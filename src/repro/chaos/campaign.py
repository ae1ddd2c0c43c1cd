"""Network-chaos campaigns: every injected fault, checked end-to-end.

:func:`run_chaos_campaign` is the wire-layer sibling of
:func:`repro.fault.campaign.run_campaign`.  Each trial arms exactly
one :class:`~repro.chaos.plan.ChaosSite` on a
:class:`~repro.chaos.proxy.ChaosProxy` between a fresh
:class:`~repro.service.ServiceClient` and a real in-process wire
server, then drives one full handshake (two concurrent keygens + both
exchange directions) through it and checks every public key and
shared secret bit-for-bit against the pure-Python oracle
(:func:`~repro.service.load.expected_handshakes`).  Outcomes:

* ``recovered_by_retry`` — the fault bit (a retry or reconnect
  happened) and the handshake still matched the oracle;
* ``masked``            — the fault was absorbed without any retry
  (duplicates and reordering are handled by id correlation, latency
  below the timeout is just slow);
* ``rejected_clean``    — the client surfaced a typed
  :class:`~repro.errors.ReproError` after exhausting its budget: no
  wrong answer, but no answer either;
* ``hung``              — the trial blew its wall-clock budget;
* ``escaped``           — the handshake "succeeded" with a result
  that differs from the oracle.  **Any** escape or hang fails the
  campaign (``repro chaos`` exits non-zero).

Reports are a pure function of ``(params, seed, n, kinds, knobs)``:
:meth:`ChaosReport.to_dict` deliberately excludes wall-clock times and
raw retry counters, so two same-seed runs serialize byte-identically.
"""

from __future__ import annotations

import asyncio
import random
import time
from dataclasses import dataclass

from repro import telemetry
from repro.chaos.plan import ALL_KINDS, LINES_PER_HANDSHAKE, ChaosPlan
from repro.chaos.proxy import ChaosProxy
from repro.csidh.parameters import CsidhParameters
from repro.errors import ChaosError, ReproError
from repro.service.load import _session_seeds, expected_handshakes
from repro.service.server import KeyExchangeService
from repro.service.tenancy import TenantConfig
from repro.service.wire import ServiceClient, start_server

OUTCOME_RECOVERED = "recovered_by_retry"
OUTCOME_MASKED = "masked"
OUTCOME_REJECTED = "rejected_clean"
OUTCOME_HUNG = "hung"
OUTCOME_ESCAPED = "escaped"
OUTCOMES = (OUTCOME_RECOVERED, OUTCOME_MASKED, OUTCOME_REJECTED,
            OUTCOME_HUNG, OUTCOME_ESCAPED)

#: The tenant every chaos trial runs against.
TENANT = "chaos"

#: Per-trial client knobs: tight timeout and backoff keep the
#: campaign fast while still exercising the full retry machinery.
DEFAULT_TIMEOUT_S = 0.75
DEFAULT_RETRIES = 3
_BACKOFF_S = 0.01
_BACKOFF_CAP_S = 0.05
_HOLD_S = 0.05


@dataclass(frozen=True)
class ChaosTrial:
    """One handshake driven through one armed network fault."""

    index: int
    kind: str
    nth: int            # resolved line index the fault targeted
    direction: str      # resolved direction ("c2s" / "s2c")
    outcome: str
    error_code: str | None  # stable code when rejected_clean
    injected: bool      # whether the armed fault actually fired

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "kind": self.kind,
            "nth": self.nth,
            "direction": self.direction,
            "outcome": self.outcome,
            "error_code": self.error_code,
            "injected": self.injected,
        }


@dataclass(frozen=True)
class ChaosReport:
    """Aggregate view of a chaos campaign (``repro chaos``)."""

    params: str
    seed: int
    n: int
    kinds: tuple[str, ...]
    engine: str
    timeout_s: float
    retries: int
    trials: tuple[ChaosTrial, ...]
    #: Not part of :meth:`to_dict` (timing-dependent); surfaced on the
    #: console and in the BENCH record only.
    duration_s: float
    retries_total: int
    reconnects_total: int

    @property
    def outcomes(self) -> dict[str, int]:
        counts = {outcome: 0 for outcome in OUTCOMES}
        for trial in self.trials:
            counts[trial.outcome] += 1
        return counts

    @property
    def by_kind(self) -> dict[str, dict[str, int]]:
        table: dict[str, dict[str, int]] = {}
        for trial in self.trials:
            row = table.setdefault(
                trial.kind, {outcome: 0 for outcome in OUTCOMES})
            row[trial.outcome] += 1
        return table

    @property
    def escaped(self) -> int:
        return self.outcomes[OUTCOME_ESCAPED]

    @property
    def hung(self) -> int:
        return self.outcomes[OUTCOME_HUNG]

    @property
    def recovery_rate(self) -> float:
        """Fraction of trials that completed with oracle-exact
        results (recovered or masked) — the watchdog-gated metric."""
        good = (self.outcomes[OUTCOME_RECOVERED]
                + self.outcomes[OUTCOME_MASKED])
        return good / len(self.trials) if self.trials else 0.0

    def to_dict(self) -> dict:
        """Deterministic serialization: byte-identical across two
        same-seed runs (no wall-clock, no raw retry counters)."""
        return {
            "params": self.params,
            "seed": self.seed,
            "n": self.n,
            "kinds": list(self.kinds),
            "engine": self.engine,
            "timeout_s": self.timeout_s,
            "retries": self.retries,
            "outcomes": self.outcomes,
            "by_kind": self.by_kind,
            "escaped": self.escaped,
            "hung": self.hung,
            "recovery_rate": self.recovery_rate,
            "trials": [trial.to_dict() for trial in self.trials],
        }

    def to_record(self) -> dict:
        """The ``chaos_load`` BENCH-trajectory record."""
        outcomes = self.outcomes
        return {
            "mode": "chaos_load",
            "params": self.params,
            "n": self.n,
            "seed": self.seed,
            "engine": self.engine,
            "timeout_s": self.timeout_s,
            "retries": self.retries,
            "duration_s": self.duration_s,
            "recovered_by_retry": outcomes[OUTCOME_RECOVERED],
            "masked": outcomes[OUTCOME_MASKED],
            "rejected_clean": outcomes[OUTCOME_REJECTED],
            "hung": self.hung,
            "escaped": self.escaped,
            "recovery_rate": self.recovery_rate,
            "retries_total": self.retries_total,
            "reconnects_total": self.reconnects_total,
        }

    def summary(self) -> str:
        outcomes = self.outcomes
        return (
            f"{self.n} chaos trials over {len(self.kinds)} fault "
            f"kind(s) [{self.engine}] in {self.duration_s:.2f}s: "
            f"{outcomes[OUTCOME_RECOVERED]} recovered by retry, "
            f"{outcomes[OUTCOME_MASKED]} masked, "
            f"{outcomes[OUTCOME_REJECTED]} rejected clean, "
            f"{self.hung} hung, {self.escaped} escaped "
            f"({self.retries_total} retries, "
            f"{self.reconnects_total} reconnects)")


async def _run_trial(site, proxy: ChaosProxy, port: int,
                     oracle_entry: tuple[int, int, int], *,
                     seed: int, timeout_s: float,
                     retries: int) -> tuple[ChaosTrial, int, int]:
    """One armed handshake; returns the trial plus its retry counts."""
    proxy.arm(
        site,
        lines_per_trial=LINES_PER_HANDSHAKE,
        # Clearly above (client must time out and retry) or clearly
        # below (the caller just waits a little longer) the timeout.
        latency_above_s=timeout_s * 4,
        latency_below_s=min(timeout_s / 4, 0.05),
        hold_s=_HOLD_S,
    )
    armed = proxy.armed
    client = ServiceClient(
        timeout_s=timeout_s, retries=retries, backoff_s=_BACKOFF_S,
        backoff_cap_s=_BACKOFF_CAP_S,
        rng=random.Random((seed << 20) ^ site.index))
    seed_a, seed_b = _session_seeds(seed, site.index)
    # Generous wall-clock budget: an above-timeout latency plus every
    # retry timing out would still finish inside it.  Blowing it means
    # the stack wedged — the one thing resilience must never do.
    budget = timeout_s * 4 + (retries + 1) * timeout_s * 4 + 2.0
    error_code = None
    try:
        await client.connect("127.0.0.1", port)

        async def handshake():
            # The keygens run concurrently so duplicate/reorder sites
            # have two responses in flight to play with.
            pub_a, pub_b = await asyncio.gather(
                client.keygen(TENANT, seed_a),
                client.keygen(TENANT, seed_b))
            secret_ab = await client.exchange(TENANT, seed_a, pub_b)
            secret_ba = await client.exchange(TENANT, seed_b, pub_a)
            return pub_a, pub_b, secret_ab, secret_ba

        try:
            values = await asyncio.wait_for(handshake(), budget)
        except asyncio.TimeoutError:
            outcome = OUTCOME_HUNG
        except ReproError as exc:
            error_code = exc.code
            outcome = OUTCOME_REJECTED
        else:
            want_a, want_b, want_secret = oracle_entry
            pub_a, pub_b, secret_ab, secret_ba = values
            if (pub_a == want_a and pub_b == want_b
                    and secret_ab == want_secret
                    and secret_ba == want_secret):
                faulted = client.retries_total or client.reconnects_total
                outcome = (OUTCOME_RECOVERED if faulted
                           else OUTCOME_MASKED)
            else:
                outcome = OUTCOME_ESCAPED
    finally:
        injected = proxy.fired
        retries_total = client.retries_total
        reconnects_total = client.reconnects_total
        proxy.disarm()
        await client.aclose()
    telemetry.record("chaos_trials_total", site.kind, outcome)
    trial = ChaosTrial(
        index=site.index,
        kind=site.kind,
        nth=armed.nth,
        direction=armed.direction,
        outcome=outcome,
        error_code=error_code,
        injected=injected,
    )
    return trial, retries_total, reconnects_total


async def _run_campaign(params: CsidhParameters, *, seed: int, n: int,
                        kinds: tuple[str, ...], engine: str,
                        variant: str, timeout_s: float,
                        retries: int) -> ChaosReport:
    plan = ChaosPlan(seed=seed, kinds=tuple(kinds))
    sites = plan.generate(n)
    oracle = expected_handshakes(params, n, seed=seed)
    service = KeyExchangeService(params, [TenantConfig(
        TENANT, engine=engine, lanes=2, max_queue=32, variant=variant)])
    server = await start_server(service)
    port = server.sockets[0].getsockname()[1]
    proxy = ChaosProxy("127.0.0.1", port)
    proxy_port = await proxy.start()
    trials = []
    retries_total = reconnects_total = 0
    started = time.perf_counter()
    try:
        for site in sites:
            trial, trial_retries, trial_reconnects = await _run_trial(
                site, proxy, proxy_port, oracle[site.index],
                seed=seed, timeout_s=timeout_s, retries=retries)
            trials.append(trial)
            retries_total += trial_retries
            reconnects_total += trial_reconnects
    finally:
        duration = time.perf_counter() - started
        await proxy.aclose()
        server.close()
        await server.wait_closed()
        await service.aclose()
    return ChaosReport(
        params=params.name,
        seed=seed,
        n=n,
        kinds=tuple(kinds),
        engine=engine,
        timeout_s=timeout_s,
        retries=retries,
        trials=tuple(trials),
        duration_s=duration,
        retries_total=retries_total,
        reconnects_total=reconnects_total,
    )


def run_chaos_campaign(
    params: CsidhParameters,
    *,
    seed: int = 0,
    n: int = 16,
    kinds: tuple[str, ...] = ALL_KINDS,
    engine: str = "aot",
    variant: str = "reduced.ise",
    timeout_s: float = DEFAULT_TIMEOUT_S,
    retries: int = DEFAULT_RETRIES,
) -> ChaosReport:
    """Run *n* chaos trials against a real in-process wire server.

    Every trial arms one seeded fault on the proxy, drives one full
    handshake through it with a resilient client, and classifies the
    outcome against the pure-Python oracle.  Faults are one-shot, so a
    client with ``retries >= 1`` must always be able to finish —
    ``escaped == hung == 0`` is the acceptance gate.
    """
    if timeout_s <= 0:
        raise ChaosError(f"timeout_s must be positive, got {timeout_s}")
    if retries < 1:
        raise ChaosError(
            f"chaos trials need at least one retry to recover from "
            f"one-shot faults, got retries={retries}")
    return asyncio.run(_run_campaign(
        params, seed=seed, n=n, kinds=tuple(kinds), engine=engine,
        variant=variant, timeout_s=timeout_s, retries=retries))
