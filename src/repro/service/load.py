"""The load harness: hundreds of concurrent exchanges, then the bill.

:func:`run_load` drives the :class:`KeyExchangeService` with a fleet
of concurrent full handshakes (two keygens + both directions of the
exchange per session), checks **every** result against a sequential
pure-Python reference, and folds the outcome into a
:class:`LoadReport`: throughput, p50/p95/p99 request latency,
admission rejections, ladder demotions/promotions, fault
detections/recoveries — the numbers the CI ``service-load`` job and
``repro load`` append to the BENCH trajectory as a ``service_load``
record.

The correctness oracle is cheap and exact: the group action's output
is the canonical curve coefficient, fully determined by the key and
the starting curve (the rng only picks internal sample points), so
the expected public keys and shared secrets are computed once on the
pure-Python :class:`~repro.field.fp.FieldContext` and compared
bit-for-bit against what the concurrent simulated service returns.
``divergences == 0`` is the acceptance gate, not a statistic.
"""

from __future__ import annotations

import asyncio
import math
import random
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import partial

from repro import telemetry
from repro.csidh.parameters import CsidhParameters
from repro.csidh.protocol import Csidh, PrivateKey
from repro.errors import AdmissionError, DeadlineError, ServiceError
from repro.field.fp import FieldContext
from repro.service.server import KeyExchangeService
from repro.service.tenancy import TenantConfig, default_tenant_configs
from repro.telemetry import tracing
from repro.telemetry.metrics import TelemetryError
from repro.telemetry.spans import SpanNode

#: Backoff between admission retries; rejections are expected under
#: deliberate overload and simply retried.
RETRY_BACKOFF_S = 0.001
MAX_ADMISSION_RETRIES = 10_000

#: Default per-request deadline budget for the load harness — the
#: bound that keeps ``repro load`` from waiting forever on a wedged
#: server.
DEFAULT_LOAD_TIMEOUT_S = 30.0


@dataclass
class LoadReport:
    """Everything ``repro load`` prints and BENCH records."""

    params: str
    exchanges: int
    concurrency: int
    tenants: int
    engine: str
    hardened: bool
    duration_s: float
    requests: int
    divergences: int
    rejections: int
    demotions: int
    promotions: int
    fault_detections: int
    fault_recoveries: int
    #: Requests that blew their deadline budget and were retried
    #: (surfaced alongside admission rejections).
    deadline_rejections: int = 0
    latencies_s: list[float] = field(default_factory=list, repr=False)
    #: Compact trace summary (span count, top kernels by cycles) when
    #: the run was traced; lands in the BENCH record as ``trace``.
    trace_summary: dict | None = None
    #: The traced span forest (local capture root, or the forest
    #: rebuilt from a remote ``trace_export``) for chrome/flamegraph
    #: export; not part of the BENCH record.
    trace_root: SpanNode | None = field(default=None, repr=False)

    @property
    def throughput(self) -> float:
        """Completed exchanges per second."""
        if self.duration_s <= 0:
            return 0.0
        return self.exchanges / self.duration_s

    def latency_percentile(self, q: float) -> float:
        """Nearest-rank percentile of per-request latency (seconds)."""
        if not self.latencies_s:
            return 0.0
        ordered = sorted(self.latencies_s)
        rank = max(1, math.ceil(q * len(ordered)))
        return ordered[min(rank, len(ordered)) - 1]

    def to_record(self) -> dict:
        """The ``service_load`` BENCH-trajectory record."""
        record = {
            "mode": "service_load",
            "params": self.params,
            "exchanges": self.exchanges,
            "concurrency": self.concurrency,
            "tenants": self.tenants,
            "engine": self.engine,
            "hardened": self.hardened,
            "duration_s": self.duration_s,
            "throughput_per_s": self.throughput,
            "requests": self.requests,
            "latency_p50_ms": self.latency_percentile(0.50) * 1e3,
            "latency_p95_ms": self.latency_percentile(0.95) * 1e3,
            "latency_p99_ms": self.latency_percentile(0.99) * 1e3,
            "divergences": self.divergences,
            "rejections": self.rejections,
            "deadline_rejections": self.deadline_rejections,
            "demotions": self.demotions,
            "promotions": self.promotions,
            "fault_detections": self.fault_detections,
            "fault_recoveries": self.fault_recoveries,
        }
        if self.trace_summary is not None:
            record["trace"] = self.trace_summary
        return record

    def summary(self) -> str:
        return (
            f"{self.exchanges} exchanges x {self.concurrency} "
            f"concurrent over {self.tenants} tenant(s) "
            f"[{self.engine}{', hardened' if self.hardened else ''}]: "
            f"{self.throughput:.1f} ex/s in {self.duration_s:.2f}s, "
            f"latency p50/p95/p99 "
            f"{self.latency_percentile(0.50) * 1e3:.1f}/"
            f"{self.latency_percentile(0.95) * 1e3:.1f}/"
            f"{self.latency_percentile(0.99) * 1e3:.1f} ms, "
            f"{self.divergences} divergences, "
            f"{self.rejections} rejections "
            f"(+{self.deadline_rejections} deadline), "
            f"{self.demotions} demotions, "
            f"{self.fault_recoveries} recoveries"
        )


def _session_seeds(base_seed: int, index: int) -> tuple[int, int]:
    """Deterministic, collision-free (alice, bob) seeds per session."""
    origin = base_seed * 1_000_003 + 2 * index
    return origin, origin + 1


def expected_handshakes(
    params: CsidhParameters, exchanges: int, *, seed: int = 0,
) -> list[tuple[int, int, int]]:
    """Sequential pure-Python oracle: ``(pub_a, pub_b, secret)`` per
    session, computed on :class:`FieldContext` (no simulator)."""
    reference = Csidh(params, field=FieldContext(params.p))
    oracle = []
    for index in range(exchanges):
        seed_a, seed_b = _session_seeds(seed, index)
        private_a = PrivateKey.derive(
            seed_a.to_bytes(32, "little", signed=True), params)
        private_b = PrivateKey.derive(
            seed_b.to_bytes(32, "little", signed=True), params)
        pub_a = reference.public_key(private_a)
        pub_b = reference.public_key(private_b)
        secret = reference.shared_secret(private_a, pub_b,
                                         validate=False)
        oracle.append((pub_a.coefficient, pub_b.coefficient, secret))
    return oracle


async def _with_admission_retry(call, rejections: list[int],
                                deadline_rejections: list[int] | None
                                = None):
    """Run *call()* — retrying (with backoff) through deliberate
    admission rejections, which are part of normal overload behavior.
    Deadline expiries are likewise retried (the ops are idempotent)
    but counted separately, so the load report can tell backpressure
    from slowness."""
    for _ in range(MAX_ADMISSION_RETRIES):
        try:
            return await call()
        except AdmissionError:
            rejections[0] += 1
            await asyncio.sleep(RETRY_BACKOFF_S)
        except DeadlineError:
            if deadline_rejections is None:
                raise
            deadline_rejections[0] += 1
            await asyncio.sleep(RETRY_BACKOFF_S)
    raise ServiceError(
        f"request still rejected after {MAX_ADMISSION_RETRIES} "
        f"admission retries — the service is wedged, not overloaded")


async def _run_fleet(tenant_names: list[str], exchanges: int,
                     concurrency: int, seed: int,
                     oracle: list[tuple[int, int, int]],
                     keygen, exchange) -> dict:
    """Run *exchanges* full handshakes, *concurrency* at a time,
    through ``keygen(tenant, seed)`` and ``exchange(tenant, seed,
    peer)`` (the in-process service or a wire client), check each
    session against *oracle*, and return the request-side
    :class:`LoadReport` fields."""
    gate = asyncio.Semaphore(concurrency)
    latencies: list[float] = []
    rejections = [0]
    deadline_rejections = [0]

    async def timed(coroutine_factory):
        started = time.perf_counter()
        result = await _with_admission_retry(
            coroutine_factory, rejections, deadline_rejections)
        latencies.append(time.perf_counter() - started)
        return result

    async def handshake(index: int) -> bool:
        """One full session; returns whether it matched the oracle."""
        tenant = tenant_names[index % len(tenant_names)]
        seed_a, seed_b = _session_seeds(seed, index)
        async with gate:
            pub_a = await timed(lambda: keygen(tenant, seed_a))
            pub_b = await timed(lambda: keygen(tenant, seed_b))
            secret_ab = await timed(
                lambda: exchange(tenant, seed_a, pub_b))
            secret_ba = await timed(
                lambda: exchange(tenant, seed_b, pub_a))
        want_a, want_b, want_secret = oracle[index]
        return (pub_a == want_a and pub_b == want_b
                and secret_ab == want_secret
                and secret_ba == want_secret)

    outcomes = await asyncio.gather(
        *(handshake(i) for i in range(exchanges)))
    return {"requests": len(latencies),
            "divergences": outcomes.count(False),
            "rejections": rejections[0],
            "deadline_rejections": deadline_rejections[0],
            "latencies_s": latencies}


async def run_load(
    params: CsidhParameters,
    *,
    exchanges: int = 100,
    concurrency: int = 16,
    tenant_configs: list[TenantConfig] | None = None,
    tenants: int = 4,
    engine: str = "aot",
    hardened: bool = False,
    lanes: int = 2,
    max_queue: int = 16,
    variant: str = "reduced.ise",
    seed: int = 0,
    service: KeyExchangeService | None = None,
    oracle: list[tuple[int, int, int]] | None = None,
    trace: bool = False,
    timeout_s: float | None = DEFAULT_LOAD_TIMEOUT_S,
) -> LoadReport:
    """Drive *exchanges* full handshakes, *concurrency* at a time.

    Pass *service* to reuse a running instance (e.g. one with faults
    armed); otherwise a fresh one is built from the tenant knobs and
    closed afterwards.  Pass *oracle* (from
    :func:`expected_handshakes`) to skip recomputing the reference.

    With ``trace=True`` the whole run records under a telemetry
    capture: every request gets a trace context, the report carries
    the span forest (:attr:`LoadReport.trace_root`) and its summary,
    and the **cycle-conservation invariant** is asserted — the
    forest's total cycles must equal the sum of every lane context's
    independently accumulated ``simulated_cycles``, exactly.
    """
    if exchanges < 1:
        raise ServiceError("need at least one exchange")
    if concurrency < 1:
        raise ServiceError("concurrency must be positive")
    if tenant_configs is None:
        tenant_configs = default_tenant_configs(
            tenants, engine=engine, hardened=hardened, lanes=lanes,
            max_queue=max_queue, variant=variant)
    owns_service = service is None
    if trace and not owns_service:
        raise ServiceError(
            "trace=True needs to own the service: a pre-built instance "
            "may already hold simulated cycles outside the capture")
    if service is None:
        service = KeyExchangeService(params, tenant_configs)
    tenant_names = list(service.tenants)
    if oracle is None:
        oracle = expected_handshakes(params, exchanges, seed=seed)
    if len(oracle) < exchanges:
        raise ServiceError(
            f"oracle covers {len(oracle)} sessions, need {exchanges}")

    capture_cm = telemetry.capture() if trace else nullcontext(None)
    trace_root: SpanNode | None = None
    trace_summary: dict | None = None
    started = time.perf_counter()
    try:
        with capture_cm as cap:
            fleet = await _run_fleet(
                tenant_names, exchanges, concurrency, seed, oracle,
                partial(service.keygen, deadline_s=timeout_s),
                partial(service.exchange, deadline_s=timeout_s))
            await service.drain()
            duration = time.perf_counter() - started
            # Collect before aclose(): closing a lane clears its
            # contexts (and with them the fault counters).
            demotions = promotions = detections = recoveries = 0
            simulated = 0
            for tenant in service.tenants.values():
                demotions += tenant.demotions
                promotions += tenant.promotions
                for lane in tenant.lanes:
                    lane_det, lane_rec = lane.fault_counts()
                    detections += lane_det
                    recoveries += lane_rec
                    simulated += lane.simulated_cycles()
            if trace:
                trace_root = cap.root
                tree_total = trace_root.total_cycles
                if tree_total != simulated:
                    raise TelemetryError(
                        f"cycle attribution leak under tracing: span "
                        f"forest holds {tree_total} cycles, lane "
                        f"contexts ran {simulated}")
                trace_summary = tracing.summarize_root(trace_root)
    finally:
        if owns_service:
            await service.aclose()

    return LoadReport(
        params=params.name,
        exchanges=exchanges,
        concurrency=concurrency,
        tenants=len(tenant_names),
        engine=engine,
        hardened=hardened,
        duration_s=duration,
        demotions=demotions,
        promotions=promotions,
        fault_detections=detections,
        fault_recoveries=recoveries,
        trace_summary=trace_summary,
        trace_root=trace_root,
        **fleet,
    )


async def run_load_remote(
    params: CsidhParameters,
    host: str,
    port: int,
    *,
    exchanges: int = 100,
    concurrency: int = 16,
    seed: int = 0,
    oracle: list[tuple[int, int, int]] | None = None,
    timeout_s: float | None = DEFAULT_LOAD_TIMEOUT_S,
) -> LoadReport:
    """Drive a **live** ``repro serve`` instance over the wire.

    The same handshake fleet and pure-Python oracle as
    :func:`run_load`, but through a :class:`ServiceClient` — so the
    measured latencies include the JSON-lines round trip, and the
    trace forest comes back via the ``trace_export`` op (empty when
    the server runs without telemetry).  Ladder/fault/rejection totals
    are deltas of the server's ``stats`` around the run.
    """
    from repro.service.wire import ServiceClient

    if exchanges < 1:
        raise ServiceError("need at least one exchange")
    if concurrency < 1:
        raise ServiceError("concurrency must be positive")
    if oracle is None:
        oracle = expected_handshakes(params, exchanges, seed=seed)
    if len(oracle) < exchanges:
        raise ServiceError(
            f"oracle covers {len(oracle)} sessions, need {exchanges}")

    client = ServiceClient(timeout_s=timeout_s, rng=random.Random(seed))
    async with await client.connect(host, port) as client:
        before = await client.stats()
        if before["modulus_bits"] != params.p.bit_length():
            raise ServiceError(
                f"server runs a {before['modulus_bits']}-bit modulus, "
                f"oracle params {params.name!r} are "
                f"{params.p.bit_length()}-bit")
        tenant_names = sorted(before["tenants"])
        started = time.perf_counter()
        fleet = await _run_fleet(tenant_names, exchanges, concurrency,
                                 seed, oracle, client.keygen,
                                 client.exchange)
        duration = time.perf_counter() - started
        after = await client.stats()
        document = await client.trace_export()

    def tenant_delta(key: str) -> int:
        return sum(
            after["tenants"][name][key] - before["tenants"][name][key]
            for name in tenant_names)

    trace_root = trace_summary = None
    if document.get("traces"):
        trace_root = tracing.document_to_root(document)
        trace_summary = tracing.summarize_root(trace_root)
    engines = {before["tenants"][n]["preferred_engine"]
               for n in tenant_names}
    return LoadReport(
        params=params.name,
        exchanges=exchanges,
        concurrency=concurrency,
        tenants=len(tenant_names),
        engine=engines.pop() if len(engines) == 1 else "mixed",
        hardened=any(before["tenants"][n]["hardened"]
                     for n in tenant_names),
        duration_s=duration,
        demotions=tenant_delta("demotions"),
        promotions=tenant_delta("promotions"),
        fault_detections=tenant_delta("fault_detections"),
        fault_recoveries=tenant_delta("fault_recoveries"),
        trace_summary=trace_summary,
        trace_root=trace_root,
        **fleet,
    )
