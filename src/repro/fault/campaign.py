"""Seeded fault-injection campaigns with a detection-coverage report.

:func:`run_campaign` expands a :class:`~repro.fault.plan.FaultPlan`
into N trials.  Each trial builds a *checked*
:class:`~repro.field.simulated.SimulatedFieldContext` (sampling every
operation, ``check_interval=1`` by default), arms exactly one planned
fault on the runner behind the targeted field operation, executes that
operation on seeded operands, and classifies the outcome:

``detected_recovered``
    the hardening layer raised/absorbed a divergence and the final
    value matches the fault-free expectation (interpreter fallback on a
    freshly assembled runner succeeded);
``detected_unrecovered``
    detected, but recovery was exhausted or the value still diverged;
``masked``
    the corruption had no observable effect — the final value equals
    the fault-free expectation and no detector fired (e.g. a flipped
    bit overwritten before use);
``escaped``
    wrong value *and* no detector fired — the outcome a campaign
    exists to prove impossible (CI fails on any escape).

Everything is a pure function of the plan seed: operands come from the
plan's dedicated operand stream, no wall-clock values enter the report,
and the attached telemetry block is filtered to the fault-layer metric
families so cache warmth cannot perturb it.  Identical seed ⇒ identical
report (a Hypothesis property in ``tests/test_fault_plan.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import telemetry
from repro.errors import RecoveryExhaustedError
from repro.fault.inject import arm_and_record
from repro.fault.plan import ALL_SITES, FAULT_OPERATIONS, FaultPlan, FaultSite
from repro.field.simulated import (
    DEFAULT_RECOVERY_ATTEMPTS,
    RUNNER_SLOTS,
    SimulatedFieldContext,
)
from repro.kernels import registry
from repro.rv64.pipeline import PipelineConfig, ROCKET_CONFIG

OUTCOME_RECOVERED = "detected_recovered"
OUTCOME_UNRECOVERED = "detected_unrecovered"
OUTCOME_MASKED = "masked"
OUTCOME_ESCAPED = "escaped"

OUTCOMES = (OUTCOME_RECOVERED, OUTCOME_UNRECOVERED,
            OUTCOME_MASKED, OUTCOME_ESCAPED)


#: Metric families included in the report — the fault layer's own, so
#: the block is identical across runs regardless of pool/cache warmth.
_REPORT_METRICS = (
    "faults_injected_total",
    "faults_detected_total",
    "fault_recoveries_total",
    "checked_runs_total",
    "runner_evictions_total",
    "trace_invalidations_total",
)


@dataclass(frozen=True)
class TrialResult:
    """One injected fault and what became of it."""

    index: int
    site: str
    operation: str
    description: str
    outcome: str
    detections: int   # detector firings within the trial
    recoveries: int   # completed interpreter-fallback recoveries

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "site": self.site,
            "operation": self.operation,
            "description": self.description,
            "outcome": self.outcome,
            "detections": self.detections,
            "recoveries": self.recoveries,
        }


@dataclass(frozen=True)
class CampaignReport:
    """Aggregate detection coverage of one campaign."""

    seed: int
    n: int
    modulus: int
    variant: str
    check_interval: int
    trials: tuple[TrialResult, ...]
    metrics: dict = field(default_factory=dict)
    engine: str = "aot"

    @property
    def outcomes(self) -> dict[str, int]:
        counts = {outcome: 0 for outcome in OUTCOMES}
        for trial in self.trials:
            counts[trial.outcome] += 1
        return counts

    @property
    def by_site(self) -> dict[str, dict[str, int]]:
        table: dict[str, dict[str, int]] = {}
        for trial in self.trials:
            row = table.setdefault(
                trial.site, {outcome: 0 for outcome in OUTCOMES})
            row[trial.outcome] += 1
        return table

    @property
    def detected(self) -> int:
        counts = self.outcomes
        return counts[OUTCOME_RECOVERED] + counts[OUTCOME_UNRECOVERED]

    @property
    def escaped(self) -> int:
        return self.outcomes[OUTCOME_ESCAPED]

    @property
    def recovery_rate(self) -> float:
        """Recovered fraction of detected faults (1.0 when none)."""
        detected = self.detected
        if not detected:
            return 1.0
        return self.outcomes[OUTCOME_RECOVERED] / detected

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "n": self.n,
            "modulus": self.modulus,
            "variant": self.variant,
            "check_interval": self.check_interval,
            "engine": self.engine,
            "outcomes": self.outcomes,
            "by_site": self.by_site,
            "detected": self.detected,
            "escaped": self.escaped,
            "recovery_rate": self.recovery_rate,
            "trials": [trial.to_dict() for trial in self.trials],
            "metrics": self.metrics,
        }


def _run_trial(
    context: SimulatedFieldContext,
    reference,
    site: FaultSite,
    a: int,
    b: int,
) -> TrialResult:
    runner = getattr(context, RUNNER_SLOTS[site.operation])
    armed = arm_and_record(runner, site)
    try:
        if site.operation == "mul":
            expected, run = reference.mul(a, b), lambda: context.mul(a, b)
        elif site.operation == "sqr":
            expected, run = reference.sqr(a), lambda: context.sqr(a)
        elif site.operation == "add":
            expected, run = reference.add(a, b), lambda: context.add(a, b)
        else:
            expected, run = reference.sub(a, b), lambda: context.sub(a, b)
        try:
            value = run()
        except RecoveryExhaustedError:
            outcome = OUTCOME_UNRECOVERED
        else:
            if context.fault_detections:
                recovered = (context.fault_recoveries
                             and value == expected)
                outcome = (OUTCOME_RECOVERED if recovered
                           else OUTCOME_UNRECOVERED)
            else:
                outcome = (OUTCOME_MASKED if value == expected
                           else OUTCOME_ESCAPED)
    finally:
        armed.disarm()
    return TrialResult(
        index=site.index,
        site=site.site,
        operation=site.operation,
        description=armed.description,
        outcome=outcome,
        detections=context.fault_detections,
        recoveries=context.fault_recoveries,
    )


def run_campaign(
    p: int,
    *,
    seed: int,
    n: int,
    variant: str = "reduced.ise",
    sites: tuple[str, ...] = ALL_SITES,
    operations: tuple[str, ...] = FAULT_OPERATIONS,
    check_interval: int = 1,
    max_recovery_attempts: int = DEFAULT_RECOVERY_ATTEMPTS,
    pipeline_config: PipelineConfig = ROCKET_CONFIG,
    engine: str = "aot",
) -> CampaignReport:
    """Inject *n* planned faults into checked contexts over F_p.

    *engine* selects the execution engine the checked contexts run on:
    on ``"aot"`` (the default) trace faults corrupt the live fused
    functions and recovery evicts them; on ``"interpreter"`` they have
    nothing to corrupt and are masked.

    Each trial starts from a **cold runner pool**, making it a pure
    function of its planned site and operands: runner clocks, machine
    state and trace caches never leak from one trial into the next, so
    no outcome depends on the trials that ran before it.  The report
    carries the fault-layer metric families captured over the whole
    campaign."""
    plan = FaultPlan(seed=seed, sites=sites, operations=operations)
    planned = plan.generate(n)
    operands = plan.operand_rng()
    trials = []
    with telemetry.capture(fresh=True) as cap:
        for site in planned:
            registry.clear_runner_pool()
            context = SimulatedFieldContext(
                p, variant=variant, pipeline_config=pipeline_config,
                checked=True, check_interval=check_interval,
                max_recovery_attempts=max_recovery_attempts,
                engine=engine,
            )
            a = operands.randrange(p)
            b = operands.randrange(p)
            trials.append(
                _run_trial(context, context._reference, site, a, b))
        metrics = {
            name: samples
            for name, samples in cap.registry.to_dict().items()
            if name in _REPORT_METRICS
        }

    return CampaignReport(
        seed=seed,
        n=n,
        modulus=p,
        variant=variant,
        check_interval=check_interval,
        trials=tuple(trials),
        metrics=metrics,
        engine=engine,
    )
