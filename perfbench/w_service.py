"""service-toy: two closed-loop wire clients against the key-exchange service.

A :class:`KeyExchangeService` over CSIDH-toy (one tenant, two lanes,
``engine="aot"``, telemetry off) listens on loopback; two clients in
the same process repeat lockstep rounds: both make one full handshake
(keygen x2, exchange x2), then both make a run of ``field_op`` mul/add
requests, each request sent only after the previous reply (a closed
loop).  Handshakes
are dominated by simulation; field ops by the coalescer window, the
executor hop and the wire.

Oracles: every handshake matches ``expected_handshakes`` (pure-Python
reference) and every field op equals ``a*b % p`` or ``(a+b) % p``.
"""

from __future__ import annotations

import asyncio
import itertools
import random
import time

import common
import layers
from spans import Recorder, link_by_rid

TENANT = "tenant-0"
CLIENTS = 2
#: field_op requests per round, alternating mul and add
FIELD_RUN = 8
#: Percentile of the round times reported as ``unit_s``.
ROUND_QUANTILE = 0.1


def _session_seed_base(seed: int) -> int:
    return random.Random(f"service-toy/{seed}").getrandbits(20)


async def _start():
    """Service with warmed lanes (aot compiled from an empty artifact
    cache), a loopback server and connected clients."""
    from repro.csidh.parameters import csidh_toy
    from repro.service import (
        KeyExchangeService,
        ServiceClient,
        TenantConfig,
        start_server,
    )

    params = csidh_toy()
    service = KeyExchangeService(
        params, [TenantConfig(TENANT, engine="aot", lanes=2)])
    for lane in service.tenants[TENANT].lanes:
        lane.endpoint("aot")
    server = await start_server(service)
    port = server.sockets[0].getsockname()[1]
    clients = [await ServiceClient(rng=random.Random(i)).connect(
        "127.0.0.1", port) for i in range(CLIENTS)]
    return params, service, server, clients


async def _stop(service, server, clients) -> dict:
    for client in clients:
        await client.aclose()
    server.close()
    await server.wait_closed()
    stats = service.stats()
    await service.aclose()
    return stats


def probe() -> float:
    async def start_and_stop():
        _, service, server, clients = await _start()
        ready = time.time()
        await _stop(service, server, clients)
        return ready

    return asyncio.run(start_and_stop())


class Loop:
    """One closed-loop client's requests, timings and results."""

    def __init__(self, client, index: int, seed: int, p: int, rec) -> None:
        self.client = client
        self.index = index
        self.p = p
        self.rec = rec
        self.base = _session_seed_base(seed)
        self.rng = random.Random(f"service-toy/{seed}/field/{index}")
        self.requests: list[tuple[str, float]] = []  # (kind, seconds)
        self.handshakes: list[tuple] = []  # (session, pub_a, pub_b, s, s)
        self.field_ops: list[tuple] = []   # (op, a, b, value)
        self.errors = 0
        self._rids = itertools.count()

    async def request(self, kind: str, op: str, **fields):
        rid = f"c{self.index}-{next(self._rids)}"
        start = time.perf_counter()
        try:
            result = await self.client.request(op, tenant=TENANT,
                                               trace=rid, **fields)
        except Exception:  # noqa: BLE001 - a failed request is counted
            self.errors += 1
            return None
        end = time.perf_counter()
        self.requests.append((kind, end - start))
        if self.rec is not None:
            self.rec.record(f"client.{op}", start, end, rid)
        return result

    async def handshake(self, number: int) -> None:
        from repro.service.load import _session_seeds

        session = CLIENTS * number + self.index
        seed_a, seed_b = _session_seeds(self.base, session)
        pub_a = await self.request("handshake", "keygen", seed=seed_a)
        pub_b = await self.request("handshake", "keygen", seed=seed_b)
        s_ab = await self.request("handshake", "exchange", seed=seed_a,
                                  peer=pub_b)
        s_ba = await self.request("handshake", "exchange", seed=seed_b,
                                  peer=pub_a)
        self.handshakes.append((session, pub_a, pub_b, s_ab, s_ba))

    async def field_run(self) -> None:
        for i in range(FIELD_RUN):
            op = "mul" if i % 2 == 0 else "add"
            a, b = self.rng.randrange(self.p), self.rng.randrange(self.p)
            value = await self.request("field_op", "field_op",
                                       field_op=op, operands=[a, b])
            self.field_ops.append((op, a, b, value))


async def _drive(loops, seconds: float, speed=None) -> list[float]:
    """Rounds in lockstep until they add up to *seconds*: every
    client's handshake, then every client's field-op run.  Keeping the
    phases aligned means field ops never share the interpreter with
    another client's handshake by chance, which would make their latency
    depend on how the clients happened to drift against each other.
    Between rounds, when nothing is in flight, *speed* samples the
    host."""
    rounds = []
    for number in itertools.count():
        begun = time.perf_counter()
        await asyncio.gather(*(loop.handshake(number) for loop in loops))
        await asyncio.gather(*(loop.field_run() for loop in loops))
        rounds.append(time.perf_counter() - begun)
        if speed is not None:
            speed.catch_up(sum(rounds))
        if sum(rounds) >= seconds:
            return rounds


async def _session(seed: int, seconds: float, rec=None, speed=None):
    params, service, server, clients = await _start()
    loops = [Loop(c, i, seed, params.p, rec) for i, c in enumerate(clients)]
    try:
        rounds = await _drive(loops, seconds, speed)
    finally:
        stats = await _stop(service, server, clients)
    return params, loops, rounds, stats


def _check(params, loops, seed) -> tuple[int, int]:
    """(attempted, failed) over every request of every loop."""
    from repro.service.load import expected_handshakes

    sessions = max(h[0] for loop in loops for h in loop.handshakes) + 1
    oracle = expected_handshakes(params, sessions,
                                 seed=_session_seed_base(seed))
    p = params.p
    attempted = failed = 0
    for loop in loops:
        failed += loop.errors
        attempted += loop.errors + len(loop.requests)
        for session, pub_a, pub_b, s_ab, s_ba in loop.handshakes:
            want_a, want_b, secret = oracle[session]
            failed += sum(got != want for got, want in (
                (pub_a, want_a), (pub_b, want_b), (s_ab, secret),
                (s_ba, secret)) if got is not None)
        for op, a, b, value in loop.field_ops:
            if value is not None:
                failed += value != (a * b % p if op == "mul" else (a + b) % p)
    return attempted, failed


def _latencies(loops, kind) -> list[float]:
    return [s for loop in loops for k, s in loop.requests if k == kind]


def run(seed: int, seconds: float, trace: bool) -> common.Outcome:
    if trace:
        return _traced(seed, seconds)
    # the session cannot pause, so half the probes go before it
    probes = common.SetupProbes("service-toy")
    probes.catch_up(0.5)
    speed = common.HostSpeed()
    params, loops, rounds, _ = asyncio.run(
        _session(seed, seconds, speed=speed))
    attempted, failed = _check(params, loops, seed)
    metrics = {
        # rounds differ in their keys' work, so a low percentile rather
        # than the fastest round filters out the host's interference
        "unit_s": speed.scaled(common.percentile(rounds, ROUND_QUANTILE)),
        "success_rate": 1.0 - failed / attempted,
        "peak_rss_mb": common.peak_rss_mb(),
        "setup_s": probes.median(),
    }
    return common.Outcome(attempted=attempted, failed=failed,
                          metrics=metrics)


def _install_service(rec: Recorder) -> None:
    from repro.service.server import KeyExchangeService

    for method in ("keygen", "exchange", "field_op"):
        rec.patch(KeyExchangeService, method, rec.coroutine,
                  f"service.{method}",
                  rid=lambda a, k: k.get("trace_id"))


def _traced(seed: int, seconds: float) -> common.Outcome:
    """Half the window untraced (reference latencies), half traced."""
    from repro.field.simulated import SimulatedFieldContext

    params, plain, plain_rounds, _ = asyncio.run(
        _session(seed, seconds / 2))
    rec = Recorder()
    rec.calibrate()
    counts: dict[str, int] = {}
    installers = [
        layers.install_kernels, layers.install_csidh, _install_service,
        lambda r: layers.install_field(r, SimulatedFieldContext,
                                       batches=True),
        lambda r: layers.install_engine_tap(r, counts)]
    cache = common.fresh_cache_dir()
    try:
        with layers.installed(rec, installers):
            _, traced, traced_rounds, stats = asyncio.run(
                _session(seed, seconds / 2, rec))
    finally:
        common.remove_dir(cache)
    attempted, failed = _check(params, plain + traced, seed)
    spans = rec.spans
    link_by_rid(spans, "service.", "client.")

    def total(prefix):
        return sum(s.duration for s in spans if s.name.startswith(prefix))

    def mean_ms(prefix):
        chosen = [s.duration for s in spans if s.name.startswith(prefix)]
        return 1e3 * sum(chosen) / len(chosen) if chosen else 0.0

    batches = [s for s in spans if s.name.startswith("field.")
               and s.name.endswith("_batch")]
    items = sum(s.info.get("items", 0) for s in batches)
    batch_item_s = sum(s.duration * s.info.get("items", 0)
                       for s in batches)
    client_hs = total("client.keygen") + total("client.exchange")
    client_fo = total("client.field_op")
    service_s = {s.rid: s.duration for s in spans
                 if s.name.startswith("service.")}
    wire = [s.duration - service_s[s.rid] for s in spans
            if s.name.startswith("client.") and s.rid in service_s]
    tenant = stats["tenants"][TENANT]
    coalesced = stats["coalesced"][TENANT]
    rounds = len(traced_rounds)
    runs = sum(v for k, v in counts.items()
               if k.startswith("record_machine_run:"))
    aot_share = counts.get("record_machine_run:aot", 0) / runs
    plain_round = common.median(plain_rounds)
    traced_round = common.median(traced_rounds)
    metrics = {
        "service.exec_ms.keygen": mean_ms("csidh.public_key"),
        "service.exec_ms.exchange": mean_ms("csidh.shared_secret"),
        "service.exec_ms.field_op": 1e3 * batch_item_s / items
        if items else 0.0,
        "service.overhead_share.handshake": 1.0 - (
            total("csidh.public_key") + total("csidh.shared_secret"))
        / client_hs,
        "service.overhead_share.field_op": 1.0 - batch_item_s / client_fo,
        "service.wire_ms": 1e3 * sum(wire) / len(wire),
        "service.batch_items": coalesced["items"] / coalesced["batches"],
        "service.rejections": stats["rejections_total"],
        "service.demotions": tenant["demotions"],
        "service.promotions": tenant["promotions"],
        "service.aot_share": aot_share,
        "rv64.aot_run_share": aot_share,
        "rv64.aot_demotions": counts.get("record_aot_demotion", 0),
        "trace_overhead_pct": 100.0 * (traced_round / plain_round - 1),
    }
    for kind in ("handshake", "field_op"):
        latencies = _latencies(plain, kind)
        metrics[f"service.{kind}_p50_ms"] = 1e3 * common.median(latencies)
        metrics[f"service.{kind}_p99_ms"] = \
            1e3 * common.percentile(latencies, 0.99)
    metrics.update(layers.csidh_metrics(spans, rounds, rec.rolled_overhead))
    metrics.update(layers.field_metrics(spans, rec.rolled_overhead))
    metrics.update(layers.kernel_metrics(spans))
    return common.Outcome(attempted=attempted, failed=failed,
                          metrics=metrics, recorder=rec)
