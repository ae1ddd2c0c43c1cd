"""The asyncio key-exchange service: concurrent multi-tenant sessions.

:class:`KeyExchangeService` exposes the CSIDH operations — ``keygen``,
``exchange``, ``verify`` — plus coalesced raw field ops as awaitable
methods over the existing :class:`~repro.csidh.protocol.Csidh` /
:class:`~repro.kernels.runner.KernelRunner` stack.  The concurrency
model:

* the **event loop** owns scheduling: admission control, lane
  checkout, request coalescing — one request pipeline for all four
  operations (:meth:`KeyExchangeService._run_op`);
* a **thread pool** owns execution: simulated group actions are
  blocking pure-Python work, hopped off the loop with
  ``run_in_executor`` (per-thread telemetry span stacks keep the
  cycle-attribution tree coherent);
* **lanes** own machines: every blocking call runs on a lane checked
  out of its tenant's queue, and a lane's simulator machines are
  confined to its pool scope — two concurrent sessions can never
  share mutable simulator state (``tests/service/``).

Faults walk tenants down the ``aot -> interpreter`` ladder
(:mod:`repro.service.tenancy`); a faulting operation is retried on the
interpreter, so a poisoned fused thunk degrades the one tenant's
latency instead of failing its requests.  Load alone never demotes a
tenant — admission control bounds it instead.  Field ops submitted in
one event-loop turn are coalesced into one batch per operation
(:mod:`repro.service.coalesce`), which runs on a lane like any other
request.
"""

from __future__ import annotations

import asyncio
import math
import random
import time
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from typing import Sequence

from repro import telemetry
from repro.telemetry import tracing
from repro.csidh.parameters import CsidhParameters
from repro.csidh.protocol import PrivateKey, PublicKey
from repro.csidh.validate import is_supersingular
from repro.errors import (
    DeadlineError,
    FaultError,
    ReproError,
    ServiceError,
    SimulationError,
)
from repro.service.admission import AdmissionController, CircuitBreaker
from repro.service.coalesce import RequestCoalescer
from repro.service.tenancy import (
    Lane,
    Tenant,
    TenantConfig,
    default_tenant_configs,
    next_service_id,
)

#: Field operations servable through the coalescer, with their arity.
FIELD_OPS = {"mul": 2, "sqr": 1, "add": 2, "sub": 2}

#: Consecutive execution failures before a tenant's circuit opens.
DEFAULT_BREAKER_THRESHOLD = 5

#: Cool-down before an open circuit admits its half-open probe.
DEFAULT_BREAKER_RESET_S = 30.0


def _reap(task: asyncio.Task) -> None:
    """Retrieve a drained task's outcome so asyncio never logs it."""
    if not task.cancelled():
        task.exception()


def _breaker_signal(exc: BaseException):
    """Map one failed execution onto circuit-breaker evidence.

    ``False`` counts toward tripping the circuit (the backend looks
    broken: faults, simulator crashes, deadline blowouts, unexpected
    internal errors).  ``None`` is neutral (admission rejections and
    request-validity errors say nothing about backend health) — it
    releases a half-open probe without deciding it.
    """
    if isinstance(exc, (FaultError, SimulationError, DeadlineError)):
        return False
    if isinstance(exc, ReproError):
        return None
    return False


def _integer(value, what: str) -> int:
    """A wire integer: exactly an ``int`` (``bool`` is not one)."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ServiceError(
            f"{what} must be an integer (got {type(value).__name__})")
    return value


def _seed_bytes(seed) -> bytes:
    """Normalise a request seed (bytes | int | str) for key derivation;
    ``bool`` is no integer seed (``True`` would derive seed 1's key)."""
    if isinstance(seed, bytes):
        return seed
    if isinstance(seed, int) and not isinstance(seed, bool):
        return seed.to_bytes(32, "little", signed=True)
    if isinstance(seed, str):
        return seed.encode("utf-8")
    raise ServiceError(
        f"seed must be bytes, int, or str (got {type(seed).__name__})")


class KeyExchangeService:
    """Concurrent multi-tenant CSIDH sessions over one parameter set.

    The service is **stateless** with respect to key material: private
    keys are re-derived from the request's seed via
    :meth:`PrivateKey.derive` on every call, so no secret outlives a
    request and a restarted server is immediately equivalent.
    """

    def __init__(
        self,
        params: CsidhParameters,
        tenants: Sequence[TenantConfig] | None = None,
        *,
        breaker_clock=None,
    ) -> None:
        self.params = params
        configs = list(tenants) if tenants is not None \
            else default_tenant_configs(1)
        if not configs:
            raise ServiceError("service needs at least one tenant")
        names = [cfg.name for cfg in configs]
        if len(set(names)) != len(names):
            raise ServiceError(f"duplicate tenant names in {names}")
        scope_prefix = f"svc{next_service_id()}/"
        self.tenants: dict[str, Tenant] = {
            cfg.name: Tenant(cfg, params, scope_prefix=scope_prefix)
            for cfg in configs
        }
        self.admission = AdmissionController()
        breaker_kwargs = {} if breaker_clock is None \
            else {"clock": breaker_clock}
        self.breaker = CircuitBreaker(
            failure_threshold=DEFAULT_BREAKER_THRESHOLD,
            reset_timeout_s=DEFAULT_BREAKER_RESET_S, **breaker_kwargs)
        self._lanes: dict[str, asyncio.Queue] = {}
        for tenant in self.tenants.values():
            self.admission.configure(
                tenant.config.name, tenant.config.capacity)
            self.breaker.configure(tenant.config.name)
            queue: asyncio.Queue = asyncio.Queue()
            for lane in tenant.lanes:
                queue.put_nowait(lane)
            self._lanes[tenant.config.name] = queue
        total_lanes = sum(t.config.lanes for t in self.tenants.values())
        self._executor = ThreadPoolExecutor(
            max_workers=max(total_lanes, 2),
            thread_name_prefix="repro-service",
        )
        self._coalescers: dict[str, RequestCoalescer] = {
            name: RequestCoalescer(self._batch_executor(tenant))
            for name, tenant in self.tenants.items()
        }
        # Request accounting for ``stats`` (event-loop only, so plain
        # dicts suffice).
        self._requests: dict[str, int] = {}
        self._errors: dict[str, int] = {}
        self._deadline_exceeded: dict[str, int] = {}
        self._started_monotonic = time.monotonic()
        self._closed = False
        self._draining = False

    # -- tenant / lane plumbing ----------------------------------------------

    def _tenant(self, name: str) -> Tenant:
        if not isinstance(name, str):
            raise ServiceError(
                f"tenant must be a string (got {type(name).__name__})")
        tenant = self.tenants.get(name)
        if tenant is None:
            raise ServiceError(f"unknown tenant {name!r}")
        return tenant

    # -- the degradation ladder in action ------------------------------------

    @staticmethod
    def _traced_call(call, trace, engine: str, lane: Lane):
        """Run *call* on a worker thread, continuing *trace* there.

        ``run_in_executor`` does not propagate contextvars, so the
        trace context crosses the thread boundary explicitly: the
        request's span node is adopted onto this worker's span stack
        and an ``execute[engine=...]`` child records the attempt —
        demoted retries of one request appear as sibling ``execute``
        spans under the same trace.  Without a trace (telemetry off,
        or an untraced embedder call) this is exactly the old direct
        call.
        """
        if trace is None or trace.node is None:
            return call(engine, lane)
        with tracing.activate(trace):
            with telemetry.span("execute", engine=engine):
                return call(engine, lane)

    async def _run_on_ladder(self, tenant: Tenant, lane: Lane, call):
        """Run blocking *call(engine, lane)* on the executor, demoting
        and retrying one rung down when the tenant's own execution
        faults.  Protocol-level errors (invalid peer key, bad request)
        propagate immediately — they are the caller's fault, not the
        engine's.
        """
        loop = asyncio.get_running_loop()
        trace = tracing.current_trace()
        while True:
            engine = tenant.engine
            detections_before, _ = lane.fault_counts()
            try:
                result = await loop.run_in_executor(
                    self._executor, self._traced_call, call, trace,
                    engine, lane)
            except (FaultError, SimulationError):
                # Detected divergence, exhausted recovery, or a
                # simulator crash: suspect the current tier's fused
                # trace and thunks and retry one rung down on pristine
                # state.
                tenant.note_result(False)
                if tenant.demote("fault"):
                    continue
                raise
            detections_after, _ = lane.fault_counts()
            clean = detections_after == detections_before
            if not clean:
                # Checked context caught and recovered a divergence:
                # the result is good, but the tier is suspect.
                tenant.demote("fault")
            tenant.note_result(clean)
            return result

    def _note_request(self, tenant: str, ok: bool) -> None:
        """``stats`` bookkeeping for one finished request."""
        self._requests[tenant] = self._requests.get(tenant, 0) + 1
        if not ok:
            self._errors[tenant] = self._errors.get(tenant, 0) + 1

    def _check_accepting(self) -> None:
        if self._closed:
            raise ServiceError("service is closed")
        if self._draining:
            raise ServiceError(
                "service is draining; not accepting new requests")

    @staticmethod
    def _deadline_at(deadline_s) -> float | None:
        """Turn a wire ``deadline`` budget into a loop-clock instant.

        The budget is *seconds from server receipt*, not an absolute
        timestamp, so client/server clock skew can never expire a
        request on arrival.
        """
        if deadline_s is None:
            return None
        try:
            budget = float(deadline_s)
        except (TypeError, ValueError):
            raise ServiceError(
                f"deadline must be a number of seconds "
                f"(got {deadline_s!r})") from None
        if not budget > 0 or not math.isfinite(budget):
            raise ServiceError(
                f"deadline must be a positive finite number of "
                f"seconds (got {deadline_s!r})")
        return asyncio.get_running_loop().time() + budget

    def _deadline_error(self, tenant: str, op: str,
                        where: str) -> DeadlineError:
        self._deadline_exceeded[tenant] = (
            self._deadline_exceeded.get(tenant, 0) + 1)
        telemetry.record("service_deadline_exceeded_total", op, where)
        return DeadlineError(
            f"{op} for tenant {tenant!r} exceeded its deadline "
            f"while {where}")

    async def _withhold_late(self, work, tenant: str, op: str,
                             deadline_at: float | None):
        """Await coroutine *work*, bounded by *deadline_at*.

        A deadline hit while *work* runs withholds the response but
        lets the work **drain in the background**: it is shielded, not
        cancelled, so whatever it holds (a lane, a coalesced batch's
        other members) is released only when it is truly done.
        """
        if deadline_at is None:
            return await work
        inner = asyncio.ensure_future(work)
        inner.add_done_callback(_reap)
        remaining = deadline_at - asyncio.get_running_loop().time()
        try:
            return await asyncio.wait_for(
                asyncio.shield(inner), max(remaining, 0.0))
        except asyncio.TimeoutError:
            raise self._deadline_error(tenant, op, "running") from None

    async def _on_lane(self, call, tenant: Tenant, op: str,
                       deadline_at: float | None = None):
        """Lane checkout -> ladder -> checkin, bounded by *deadline_at*.

        A deadline hit while queued for a lane cancels the wait — the
        work never starts.  Past checkout, :meth:`_withhold_late`
        applies: the lane is checked in only when its thread is done,
        so a timed-out request can never leak a lane's mutable
        simulator state to the next request.
        """
        name = tenant.config.name
        lanes = self._lanes[name]
        if deadline_at is None:
            lane = await lanes.get()
        else:
            try:
                lane = await asyncio.wait_for(
                    lanes.get(),
                    deadline_at - asyncio.get_running_loop().time())
            except asyncio.TimeoutError:
                raise self._deadline_error(name, op, "queued") from None

        async def run_and_checkin():
            try:
                return await self._run_on_ladder(tenant, lane, call)
            finally:
                lanes.put_nowait(lane)

        return await self._withhold_late(
            run_and_checkin(), name, op, deadline_at)

    async def _run_op(self, tenant_name: str, op: str, execute,
                      trace_id: str | None = None,
                      deadline_s=None):
        """Breaker -> admission -> *execute* -> telemetry.

        The one request pipeline: every operation passes in its
        execute step, ``execute(tenant, op, deadline_at)`` — a lane
        (:meth:`_on_lane`) for the protocol calls, the tenant's
        coalescer for field ops.  The whole pipeline runs under a
        per-request trace context
        (:func:`repro.telemetry.tracing.request_trace`): with telemetry
        enabled, the request's span subtree — executor attempts,
        coalescer waits, per-kernel cycles — hangs off one ``request``
        node keyed by the (possibly wire-supplied) ``trace_id``.
        """
        self._check_accepting()
        tenant = self._tenant(tenant_name)
        deadline_at = self._deadline_at(deadline_s)
        started = time.perf_counter()
        try:
            with tracing.request_trace(op, tenant_name,
                                       trace_id=trace_id):
                self.breaker.check(tenant_name)
                try:
                    with self.admission.admit(tenant_name):
                        if (deadline_at is not None and deadline_at
                                <= asyncio.get_running_loop().time()):
                            raise self._deadline_error(
                                tenant_name, op, "queued")
                        result = await execute(tenant, op, deadline_at)
                except Exception as exc:
                    # check() admitted this request (possibly as the
                    # half-open probe): exactly one record() balances it.
                    self.breaker.record(
                        tenant_name, _breaker_signal(exc))
                    raise
                else:
                    self.breaker.record(tenant_name, True)
        except Exception:
            telemetry.record("service_requests_total", tenant_name, op,
                             "error")
            self._note_request(tenant_name, ok=False)
            raise
        elapsed = time.perf_counter() - started
        telemetry.record("service_requests_total", tenant_name, op, "ok")
        telemetry.record("service_request_seconds", op, value=elapsed)
        self._note_request(tenant_name, ok=True)
        return result

    # -- protocol operations -------------------------------------------------

    async def keygen(self, tenant: str, seed, *,
                     trace_id: str | None = None,
                     deadline_s=None) -> int:
        """Derive the keypair for *seed*; return the public coefficient."""
        seed_data = _seed_bytes(seed)

        def call(engine: str, lane: Lane) -> int:
            private = PrivateKey.derive(seed_data, self.params)
            public = lane.endpoint(engine).public_key(private)
            return public.coefficient

        return await self._run_op(tenant, "keygen",
                                  partial(self._on_lane, call),
                                  trace_id, deadline_s)

    async def exchange(self, tenant: str, seed, peer_public: int,
                       *, validate: bool = True,
                       trace_id: str | None = None,
                       deadline_s=None) -> int:
        """Shared secret between *seed*'s key and *peer_public*."""
        seed_data = _seed_bytes(seed)
        _integer(peer_public, "peer public key")

        def call(engine: str, lane: Lane) -> int:
            private = PrivateKey.derive(seed_data, self.params)
            return lane.endpoint(engine).shared_secret(
                private, PublicKey(peer_public), validate=validate)

        return await self._run_op(tenant, "exchange",
                                  partial(self._on_lane, call),
                                  trace_id, deadline_s)

    async def verify(self, tenant: str, public: int, *,
                     trace_id: str | None = None,
                     deadline_s=None) -> bool:
        """Is *public* a valid (supersingular) public key?"""
        _integer(public, "public key")

        def call(engine: str, lane: Lane) -> bool:
            # Deterministic rng: the check is probabilistic per draw,
            # seeding by the key keeps verdicts reproducible.
            rng = random.Random(public)
            return is_supersingular(
                self.params, lane.context(engine),
                public % self.params.p, rng)

        return await self._run_op(tenant, "verify",
                                  partial(self._on_lane, call),
                                  trace_id, deadline_s)

    # -- coalesced field operations ------------------------------------------

    def _batch_executor(self, tenant: Tenant):
        """Build the coalescer backend: one ``<op>_batch`` on a lane."""

        async def execute(op: str, operand_sets: list[tuple]):
            def call(engine: str, lane: Lane):
                method = getattr(lane.context(engine), f"{op}_batch")
                if FIELD_OPS[op] == 1:
                    return method([ops[0] for ops in operand_sets])
                return method(list(operand_sets))

            return await self._on_lane(call, tenant, "field_op")

        return execute

    async def field_op(self, tenant: str, op: str,
                       operands: Sequence[int], *,
                       trace_id: str | None = None,
                       deadline_s=None) -> int:
        """One modular field operation, batched across sessions."""
        arity = FIELD_OPS.get(op) if isinstance(op, str) else None
        if arity is None:
            raise ServiceError(
                f"unknown field op {op!r}; expected one of "
                f"{sorted(FIELD_OPS)}")
        if not isinstance(operands, (list, tuple)):
            raise ServiceError(
                f"field op operands must be a list "
                f"(got {type(operands).__name__})")
        operands = [_integer(v, "field op operand") for v in operands]
        if len(operands) != arity:
            raise ServiceError(
                f"field op {op!r} takes {arity} operand(s), "
                f"got {len(operands)}")
        return await self._run_op(tenant, "field_op",
                                  partial(self._coalesced, op, operands),
                                  trace_id, deadline_s)

    async def _coalesced(self, field: str, operands: list[int],
                         tenant: Tenant, op: str,
                         deadline_at: float | None):
        """``field_op``'s execute step: a coalescer submission whose
        batch finishes in the background if this request's deadline
        passes first."""
        name = tenant.config.name
        return await self._withhold_late(
            self._coalescers[name].submit(field, operands), name, op,
            deadline_at)

    # -- introspection / lifecycle -------------------------------------------

    def stats(self) -> dict:
        """Point-in-time service snapshot (also served as op ``stats``)."""
        tenants = {}
        for name, tenant in self.tenants.items():
            detections = recoveries = 0
            for lane in tenant.lanes:
                lane_det, lane_rec = lane.fault_counts()
                detections += lane_det
                recoveries += lane_rec
            tenants[name] = {
                "engine": tenant.engine,
                "preferred_engine": tenant.config.engine,
                "hardened": tenant.config.hardened,
                "lanes": tenant.config.lanes,
                "capacity": tenant.config.capacity,
                "inflight": self.admission.inflight(name),
                "requests": self._requests.get(name, 0),
                "errors": self._errors.get(name, 0),
                "rejections": self.admission.rejected(name),
                "demotions": tenant.demotions,
                "promotions": tenant.promotions,
                "fault_detections": detections,
                "fault_recoveries": recoveries,
                "circuit": self.breaker.state(name),
                "circuit_rejections": self.breaker.rejected(name),
                "deadline_exceeded":
                    self._deadline_exceeded.get(name, 0),
            }
        coalesced = {
            name: {"batches": c.batches_flushed,
                   "items": c.items_flushed}
            for name, c in self._coalescers.items()
        }
        return {
            "modulus_bits": self.params.p.bit_length(),
            "uptime_s": time.monotonic() - self._started_monotonic,
            "tenants": tenants,
            "total_inflight": self.admission.total_inflight(),
            "requests_total": sum(self._requests.values()),
            "errors_total": sum(self._errors.values()),
            "rejections_total": self.admission.total_rejected(),
            "deadline_exceeded_total":
                sum(self._deadline_exceeded.values()),
            "coalesced": coalesced,
        }

    def health(self) -> dict:
        """Liveness/readiness snapshot (also served as op ``health``).

        Cheaper and stabler than :meth:`stats`: meant for probes and
        the drain sequence.
        """
        status = ("closed" if self._closed
                  else "draining" if self._draining else "ok")
        return {
            "status": status,
            "ready": self.ready(),
            "uptime_s": time.monotonic() - self._started_monotonic,
            "inflight": self.admission.total_inflight(),
            "tenants": {
                name: {"engine": tenant.engine,
                       "circuit": self.breaker.state(name)}
                for name, tenant in self.tenants.items()
            },
        }

    def ready(self) -> bool:
        """Whether the service is accepting new requests."""
        return not self._closed and not self._draining

    def begin_drain(self) -> None:
        """Stop accepting new requests; in-flight work continues.

        The graceful-shutdown sequence (``repro serve`` on SIGTERM) is
        ``begin_drain()`` -> :meth:`wait_idle` -> :meth:`aclose`.
        """
        self._draining = True

    async def wait_idle(self, grace_s: float = 5.0) -> bool:
        """Wait up to *grace_s* for in-flight requests to finish.

        Returns ``True`` when the service went idle (and its
        coalescers flushed) within the grace window, ``False`` when
        work was still in flight at the deadline — the caller closes
        anyway, abandoning the stragglers.
        """
        loop = asyncio.get_running_loop()
        deadline = loop.time() + max(grace_s, 0.0)
        while self.admission.total_inflight() > 0:
            if loop.time() >= deadline:
                return False
            await asyncio.sleep(0.01)
        await self.drain()
        return True

    async def drain(self) -> None:
        """Flush coalescers and wait for their batches to finish."""
        for coalescer in self._coalescers.values():
            await coalescer.drain()

    async def aclose(self) -> None:
        """Drain, release every tenant's scoped runners, stop workers."""
        if self._closed:
            return
        self._closed = True
        await self.drain()
        for tenant in self.tenants.values():
            tenant.close()
        self._executor.shutdown(wait=True)

    async def __aenter__(self) -> "KeyExchangeService":
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.aclose()
