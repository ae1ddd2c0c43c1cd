"""Perf-regression watchdog over ``BENCH_*.json`` trajectories.

The trajectory artifacts (:func:`~repro.telemetry.export.write_bench`)
accumulate one run record per invocation of ``repro profile``,
``repro bench`` and ``repro load``.  The watchdog turns that history
into a gate: group the runs by workload identity, take the **median of
every prior run** in a group as the baseline, and flag the group's
latest run when a metric moved past its tolerance in the bad
direction.  Medians (not means, not single predecessors) keep one
noisy CI run from poisoning the baseline in either direction.

Metric classes and their default tolerances:

* *lower-better wall-clock* (``wall_s``, ``duration_s``,
  ``latency_p50/p95/p99_ms``, ``engines.<e>.wall_s``) — noisy on
  shared CI runners, so the default tolerance is generous
  (:data:`DEFAULT_LATENCY_TOLERANCE`, +50%);
* *higher-better throughput* (``throughput_per_s``) — same noise,
  opposite direction (:data:`DEFAULT_THROUGHPUT_TOLERANCE`, −35%);
* *deterministic cycle counts* (``simulated_cycles``) — the simulator
  is bit-exact, so **any** increase is a real regression
  (:data:`DEFAULT_CYCLES_TOLERANCE`, 0.0);
* *invariant* (``divergences``) — never compared to a baseline; a
  nonzero value in the latest run is a finding outright.

Every finding carries the stable error code ``"regression"``
(:class:`~repro.errors.RegressionError`); :func:`enforce` raises it,
while the ``repro watchdog`` CLI prints the report and exits 1 so the
regression exit is distinct from usage errors (exit 2).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from statistics import median
from typing import Any, Iterable, Sequence

from repro.errors import RegressionError
from repro.telemetry.metrics import TelemetryError

#: Lower-better wall-clock metrics may grow by this fraction before
#: the watchdog fires (CI wall time is noisy; cycles are the tight
#: gate).
DEFAULT_LATENCY_TOLERANCE = 0.5
#: Higher-better throughput may drop by this fraction.
DEFAULT_THROUGHPUT_TOLERANCE = 0.35
#: Simulated cycle counts are deterministic: zero tolerance — any
#: increase over the baseline median is a regression.
DEFAULT_CYCLES_TOLERANCE = 0.0

#: Record fields that identify a workload; runs sharing all present
#: key fields form one comparison group.  (``repro profile`` records
#: carry no ``mode`` — absence is itself part of the identity.)
GROUP_KEYS = (
    "mode", "params", "variant", "engine", "exchanges",
    "concurrency", "tenants", "hardened", "rounds", "n", "seed",
)

_LOWER_BETTER = (
    "wall_s", "duration_s",
    "latency_p50_ms", "latency_p95_ms", "latency_p99_ms",
)
_HIGHER_BETTER = ("throughput_per_s",)
_TIGHT = ("simulated_cycles",)
#: Metrics that must be 0 in the latest run of every group, baseline
#: or not: a divergence is a wrong answer that left the service.
_INVARIANTS = ("divergences",)


@dataclass(frozen=True)
class Tolerances:
    """Per-class relative tolerances (fractions, not percents)."""

    latency: float = DEFAULT_LATENCY_TOLERANCE
    throughput: float = DEFAULT_THROUGHPUT_TOLERANCE
    cycles: float = DEFAULT_CYCLES_TOLERANCE

    def __post_init__(self) -> None:
        for name in ("latency", "throughput", "cycles"):
            value = getattr(self, name)
            if value < 0:
                raise TelemetryError(
                    f"{name} tolerance must be >= 0 (got {value})")

    def for_class(self, kind: str) -> float:
        return {"latency": self.latency,
                "throughput": self.throughput,
                "cycles": self.cycles}[kind]


@dataclass(frozen=True)
class Finding:
    """One metric of one group's latest run outside its tolerance."""

    #: Stable error code shared with :class:`RegressionError`.
    code = "regression"

    path: str
    group: str
    metric: str
    kind: str
    direction: str  # "increase" | "decrease" | "invariant"
    baseline: float
    latest: float
    tolerance: float

    @property
    def ratio(self) -> float:
        """``latest / baseline`` (``inf`` when the baseline is 0)."""
        if self.baseline == 0:
            return float("inf") if self.latest else 1.0
        return self.latest / self.baseline

    def to_dict(self) -> dict[str, Any]:
        return {
            "code": self.code,
            "path": self.path,
            "group": self.group,
            "metric": self.metric,
            "kind": self.kind,
            "direction": self.direction,
            "baseline": self.baseline,
            "latest": self.latest,
            "ratio": self.ratio,
            "tolerance": self.tolerance,
        }

    def describe(self) -> str:
        if self.direction == "invariant":
            return (f"{self.group}: {self.metric} must be 0, latest "
                    f"run has {self.latest:g}")
        verb = ("rose" if self.direction == "increase" else "fell")
        return (f"{self.group}: {self.metric} {verb} "
                f"{self.baseline:g} -> {self.latest:g} "
                f"({self.ratio:.2f}x, tolerance "
                f"{self.tolerance:+.0%})")


@dataclass
class WatchdogReport:
    """The outcome of one watchdog pass over one or more trajectories."""

    paths: list[str] = field(default_factory=list)
    runs_seen: int = 0
    groups_checked: int = 0
    groups_skipped: int = 0  # fewer than 2 runs: no baseline yet
    metrics_checked: int = 0
    findings: list[Finding] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.findings

    def to_dict(self) -> dict[str, Any]:
        return {
            "ok": self.ok,
            "paths": list(self.paths),
            "runs_seen": self.runs_seen,
            "groups_checked": self.groups_checked,
            "groups_skipped": self.groups_skipped,
            "metrics_checked": self.metrics_checked,
            "findings": [f.to_dict() for f in self.findings],
        }

    def summary(self) -> str:
        lines = [
            f"watchdog: {self.runs_seen} run(s) in "
            f"{len(self.paths)} trajectory file(s); "
            f"{self.groups_checked} group(s) checked, "
            f"{self.groups_skipped} skipped (no baseline), "
            f"{self.metrics_checked} metric(s) compared",
        ]
        if self.ok:
            lines.append("no regressions detected")
        else:
            lines.append(f"{len(self.findings)} regression(s):")
            lines.extend(f"  - {f.describe()}" for f in self.findings)
        return "\n".join(lines)


def _group_key(record: dict) -> str:
    parts = [f"{key}={record[key]}" for key in GROUP_KEYS
             if key in record]
    return " ".join(parts) if parts else "(unkeyed)"


def _number(value: Any) -> float | None:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    return float(value)


def _metrics(record: dict) -> dict[str, tuple[float, str]]:
    """``{metric: (value, class)}`` for every comparable metric."""
    out: dict[str, tuple[float, str]] = {}
    for name in _LOWER_BETTER:
        value = _number(record.get(name))
        if value is not None:
            out[name] = (value, "latency")
    for name in _HIGHER_BETTER:
        value = _number(record.get(name))
        if value is not None:
            out[name] = (value, "throughput")
    for name in _TIGHT:
        value = _number(record.get(name))
        if value is not None:
            out[name] = (value, "cycles")
    engines = record.get("engines")
    if isinstance(engines, dict):  # engine_comparison records
        for engine, row in engines.items():
            if isinstance(row, dict):
                value = _number(row.get("wall_s"))
                if value is not None:
                    out[f"engines.{engine}.wall_s"] = (
                        value, "latency")
    return out


def check_records(
    records: Sequence[dict],
    *,
    tolerances: Tolerances | None = None,
    path: str = "<records>",
    report: WatchdogReport | None = None,
) -> WatchdogReport:
    """Check the latest run of every group in *records* in order.

    Records accumulate into *report* when given (so
    :func:`check_paths` can merge several trajectories); otherwise a
    fresh :class:`WatchdogReport` is returned.
    """
    tolerances = tolerances or Tolerances()
    report = report if report is not None else WatchdogReport()
    report.paths.append(path)

    groups: dict[str, list[dict]] = {}
    for record in records:
        if isinstance(record, dict):
            report.runs_seen += 1
            groups.setdefault(_group_key(record), []).append(record)

    for group, runs in groups.items():
        latest = runs[-1]
        latest_metrics = _metrics(latest)

        # Invariants: a divergence is a wrong answer that left the
        # service — flag on the latest run even without any baseline.
        for invariant in _INVARIANTS:
            value = _number(latest.get(invariant))
            if value:
                report.findings.append(Finding(
                    path=path, group=group, metric=invariant,
                    kind="invariant", direction="invariant",
                    baseline=0.0, latest=value, tolerance=0.0))

        if len(runs) < 2:
            report.groups_skipped += 1
            continue
        report.groups_checked += 1

        for metric, (value, kind) in latest_metrics.items():
            history = [
                prior_value
                for prior in runs[:-1]
                for prior_value, prior_kind in
                [_metrics(prior).get(metric, (None, None))]
                if prior_value is not None
            ]
            if not history:
                continue
            baseline = float(median(history))
            if baseline <= 0:
                continue  # degenerate baseline: nothing to compare
            tolerance = tolerances.for_class(kind)
            report.metrics_checked += 1
            if kind == "throughput":
                if value < baseline * (1.0 - tolerance):
                    report.findings.append(Finding(
                        path=path, group=group, metric=metric,
                        kind=kind, direction="decrease",
                        baseline=baseline, latest=value,
                        tolerance=tolerance))
            else:
                if value > baseline * (1.0 + tolerance):
                    report.findings.append(Finding(
                        path=path, group=group, metric=metric,
                        kind=kind, direction="increase",
                        baseline=baseline, latest=value,
                        tolerance=tolerance))
    return report


def _load_runs(path: str) -> list[dict]:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except OSError as exc:
        raise TelemetryError(
            f"cannot read benchmark trajectory {path!r}: {exc}"
        ) from exc
    except ValueError as exc:
        raise TelemetryError(
            f"benchmark trajectory {path!r} is not valid JSON: {exc}"
        ) from exc
    runs = document.get("runs") if isinstance(document, dict) else None
    if not isinstance(runs, list):
        raise TelemetryError(
            f"benchmark trajectory {path!r} has no 'runs' list; is it "
            f"a write_bench artifact?")
    return [run for run in runs if isinstance(run, dict)]


def check_bench(
    path: str,
    *,
    tolerances: Tolerances | None = None,
) -> WatchdogReport:
    """Run the watchdog over one trajectory file."""
    return check_records(_load_runs(path), tolerances=tolerances,
                         path=path)


def check_paths(
    paths: Iterable[str],
    *,
    tolerances: Tolerances | None = None,
) -> WatchdogReport:
    """Run the watchdog over several trajectory files, one report."""
    report = WatchdogReport()
    for path in paths:
        check_records(_load_runs(path), tolerances=tolerances,
                      path=path, report=report)
    return report


def enforce(report: WatchdogReport) -> WatchdogReport:
    """Raise :class:`RegressionError` when *report* has findings."""
    if not report.ok:
        raise RegressionError(
            f"{len(report.findings)} perf regression(s): "
            + "; ".join(f.describe() for f in report.findings))
    return report
