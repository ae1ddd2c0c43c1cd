"""Tenants, lanes, and the graceful-degradation engine ladder.

A *tenant* is one isolated consumer of the key-exchange service: it
has its own execution-engine preference, its own hardening policy, its
own admission bounds, and — critically — its own simulator machines.
Isolation is enforced at the runner-pool level: every tenant *lane*
(one slot of intra-tenant concurrency) scopes its
:class:`~repro.field.simulated.SimulatedFieldContext` with the pool
confinement tag ``"<tenant>/<lane>"``, so no two concurrently running
sessions can ever share a live :class:`~repro.kernels.runner.KernelRunner`
machine (see :func:`repro.kernels.registry.cached_runner`).

**Degradation ladder.**  Each tenant starts on its preferred engine
(default ``aot``) and demotes down ``aot -> interpreter`` on a *fault*
— a detected divergence, an exhausted recovery, or a simulator crash
surfacing from the tenant's own runners — because a corrupted fused
form (trace or aot thunk) is the prime suspect and the interpreter
re-derives everything from pristine kernel source.  No fused form
outlives its process, so recovery never reloads a suspect copy.  Load
never demotes a tenant: the interpreter is the only rung
below aot and is strictly slower, so it would only deepen a backlog.

After :attr:`TenantConfig.promote_after` consecutive clean operations
the tenant is promoted one rung back toward its preference.  Hardened
tenants (``hardened=True``) keep checked contexts — sampled
cross-validation against the pure-Python reference, with bounded
recovery — on **every** rung; degradation changes the execution tier,
never the safety posture (``docs/ROBUSTNESS.md``).
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass, field

from repro import telemetry
from repro.csidh.parameters import CsidhParameters
from repro.csidh.protocol import Csidh
from repro.errors import ServiceError
from repro.field.simulated import SimulatedFieldContext
from repro.kernels import registry
from repro.kernels.runner import DEFAULT_CHECK_INTERVAL
from repro.rv64.machine import ENGINES

#: The demotion ladder, fastest first (Machine's engines, reversed).
ENGINE_LADDER = ("aot", "interpreter")


@dataclass(frozen=True)
class TenantConfig:
    """Static policy for one tenant."""

    name: str
    #: Preferred (fastest permitted) execution engine.
    engine: str = "aot"
    #: Checked contexts + supersingularity output validation on every
    #: rung (see docs/ROBUSTNESS.md).  The production posture.
    hardened: bool = False
    #: Intra-tenant concurrency: number of session lanes, each with
    #: its own scoped simulator machines.
    lanes: int = 1
    #: Requests allowed to wait beyond the running ones; admission
    #: capacity is ``lanes + max_queue``.
    max_queue: int = 16
    #: Kernel variant the tenant's sessions execute.
    variant: str = "reduced.ise"
    #: Sampling interval of hardened contexts.
    check_interval: int = DEFAULT_CHECK_INTERVAL
    #: Consecutive clean operations before one promotion rung.
    promote_after: int = 32

    def __post_init__(self) -> None:
        if self.engine not in ENGINES:
            raise ServiceError(
                f"tenant {self.name!r}: unknown engine "
                f"{self.engine!r}; expected one of {ENGINES}")
        if self.lanes < 1:
            raise ServiceError(
                f"tenant {self.name!r}: need at least one lane")
        if self.max_queue < 0:
            raise ServiceError(
                f"tenant {self.name!r}: max_queue must be >= 0")

    @property
    def capacity(self) -> int:
        """Admission bound: running lanes plus the waiting queue."""
        return self.lanes + self.max_queue


class Lane:
    """One slot of intra-tenant concurrency.

    A lane owns the per-engine :class:`SimulatedFieldContext` (and the
    :class:`Csidh` endpoint wrapping it) for its scope.  Contexts are
    built lazily per engine and cached — a demoted tenant's lanes keep
    their higher-tier contexts around for promotion.  A lane must only
    ever be driven by one worker at a time; the service guarantees
    that by checking lanes out of a queue.
    """

    def __init__(self, tenant: "Tenant", index: int) -> None:
        self.tenant = tenant
        self.index = index
        self.scope = f"{tenant.scope_prefix}{tenant.config.name}/{index}"
        self._contexts: dict[str, SimulatedFieldContext] = {}
        self._endpoints: dict[str, Csidh] = {}

    def context(self, engine: str) -> SimulatedFieldContext:
        """The lane's field context for *engine* (cached)."""
        ctx = self._contexts.get(engine)
        if ctx is None:
            cfg = self.tenant.config
            ctx = SimulatedFieldContext(
                self.tenant.params.p,
                variant=cfg.variant,
                engine=engine,
                checked=cfg.hardened,
                check_interval=cfg.check_interval,
                scope=self.scope,
            )
            self._contexts[engine] = ctx
        return ctx

    def endpoint(self, engine: str, seed: int = 0) -> Csidh:
        """A protocol endpoint on this lane's *engine* context.

        The endpoint is cached per engine; its internal rng only
        drives point sampling inside the group action (the action's
        output is the canonical curve coefficient, independent of
        those draws), so reuse across sessions cannot perturb
        results.
        """
        endpoint = self._endpoints.get(engine)
        if endpoint is None:
            endpoint = Csidh(
                self.tenant.params,
                field=self.context(engine),
                seed=seed,
                verify_output=self.tenant.config.hardened,
            )
            self._endpoints[engine] = endpoint
        return endpoint

    def fault_counts(self) -> tuple[int, int]:
        """(detections, recoveries) summed over this lane's contexts."""
        detections = sum(c.fault_detections
                         for c in self._contexts.values())
        recoveries = sum(c.fault_recoveries
                         for c in self._contexts.values())
        return detections, recoveries

    def simulated_cycles(self) -> int:
        """Total simulated cycles executed on this lane's contexts.

        The independent side of the cycle-conservation invariant:
        under tracing, the sum over every lane must equal the span
        forest's total (``run_load(trace=True)`` asserts it).
        """
        return sum(c.simulated_cycles for c in self._contexts.values())

    def close(self) -> None:
        """Release the lane's scoped runners back to nothing."""
        self._contexts.clear()
        self._endpoints.clear()
        registry.clear_runner_pool(self.scope)


class Tenant:
    """Runtime state of one tenant: lanes + the degradation ladder."""

    def __init__(self, config: TenantConfig,
                 params: CsidhParameters, *,
                 scope_prefix: str = "") -> None:
        self.config = config
        self.params = params
        #: Prepended to every lane scope so two services in one
        #: process (each with a ``tenant-0``) never share machines.
        self.scope_prefix = scope_prefix
        self.lanes = [Lane(self, i) for i in range(config.lanes)]
        self._lock = threading.Lock()
        self._rung = ENGINE_LADDER.index(config.engine)
        self._clean_streak = 0
        #: Totals surfaced in load reports and ``service stats``.
        self.demotions = 0
        self.promotions = 0

    # -- the degradation ladder ---------------------------------------------

    @property
    def engine(self) -> str:
        """The engine the tenant currently runs on."""
        return ENGINE_LADDER[self._rung]

    @property
    def preferred_rung(self) -> int:
        return ENGINE_LADDER.index(self.config.engine)

    def demote(self, reason: str) -> bool:
        """One rung down; returns whether the tenant actually moved."""
        with self._lock:
            engine_from = ENGINE_LADDER[self._rung]
            if self._rung >= len(ENGINE_LADDER) - 1:
                return False
            self._rung += 1
            self._clean_streak = 0
            self.demotions += 1
            engine_to = ENGINE_LADDER[self._rung]
        telemetry.record("service_demotions_total", self.config.name,
                         engine_from, engine_to, reason)
        return True

    def note_result(self, clean: bool) -> None:
        """Track op outcomes; promote after a sustained clean streak."""
        with self._lock:
            if not clean:
                self._clean_streak = 0
                return
            if self._rung <= self.preferred_rung:
                return
            self._clean_streak += 1
            if self._clean_streak < self.config.promote_after:
                return
            self._rung -= 1
            self._clean_streak = 0
            self.promotions += 1
            engine_to = ENGINE_LADDER[self._rung]
        telemetry.record("service_promotions_total", self.config.name,
                         engine_to)

    def close(self) -> None:
        for lane in self.lanes:
            lane.close()


def default_tenant_configs(
    count: int,
    *,
    engine: str = "aot",
    hardened: bool = False,
    lanes: int = 2,
    max_queue: int = 16,
    variant: str = "reduced.ise",
) -> list[TenantConfig]:
    """Uniform tenant fleet ``tenant-0 .. tenant-(count-1)`` (the load
    harness and CLI default)."""
    if count < 1:
        raise ServiceError("need at least one tenant")
    return [
        TenantConfig(
            name=f"tenant-{i}", engine=engine, hardened=hardened,
            lanes=lanes, max_queue=max_queue, variant=variant,
        )
        for i in range(count)
    ]


#: Process-wide uniquifier for anonymous service scopes, so two
#: services over the same params in one process never collide.
_SERVICE_IDS = itertools.count()


def next_service_id() -> int:
    return next(_SERVICE_IDS)
