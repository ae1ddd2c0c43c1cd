"""Tests for the perf-regression watchdog and its CLI.

The watchdog gates on ``BENCH_*.json`` trajectories: baseline = median
of every prior run in a workload group, latest run checked against
per-class tolerances.  The contract under test: passing trajectories
exit 0, a synthetic 2x latency regression produces findings with the
stable code ``"regression"`` and CLI exit 1, and environment problems
(missing/garbage files) stay distinguishable as exit 2.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.errors import RegressionError, ReproError
from repro.telemetry import TelemetryError, watchdog


def _service_run(**overrides) -> dict:
    run = {
        "mode": "service_load",
        "params": "CSIDH-toy",
        "engine": "jit",
        "exchanges": 50,
        "concurrency": 8,
        "tenants": 2,
        "hardened": False,
        "duration_s": 2.0,
        "throughput_per_s": 25.0,
        "latency_p50_ms": 40.0,
        "latency_p95_ms": 90.0,
        "latency_p99_ms": 120.0,
        "divergences": 0,
    }
    run.update(overrides)
    return run


def _profile_run(**overrides) -> dict:
    run = {
        "params": "CSIDH-toy",
        "variant": "reduced.ise",
        "wall_s": 1.5,
        "simulated_cycles": 500_000,
    }
    run.update(overrides)
    return run


def _write(tmp_path, runs, name="BENCH_service.json"):
    path = tmp_path / name
    path.write_text(json.dumps(
        {"benchmark": "protocol", "schema": 1, "runs": runs}))
    return str(path)


class TestGrouping:
    def test_different_workloads_never_compared(self):
        report = watchdog.check_records([
            _service_run(exchanges=50),
            _service_run(exchanges=100, latency_p95_ms=500.0),
        ])
        # Two groups of one run each: nothing to compare, no findings.
        assert report.ok
        assert report.groups_skipped == 2
        assert report.groups_checked == 0

    def test_profile_and_service_records_coexist(self):
        report = watchdog.check_records(
            [_profile_run(), _service_run(),
             _profile_run(), _service_run()])
        assert report.groups_checked == 2
        assert report.ok


class TestBaseline:
    def test_first_run_is_skipped_not_failed(self):
        report = watchdog.check_records([_service_run()])
        assert report.ok
        assert report.groups_skipped == 1

    def test_median_absorbs_one_noisy_prior(self):
        # One slow outlier among the priors must not drag the
        # baseline up (mean would): median of (40, 40, 400) = 40.
        report = watchdog.check_records([
            _service_run(),
            _service_run(latency_p50_ms=400.0),
            _service_run(),
            _service_run(latency_p50_ms=50.0),
        ])
        assert report.ok

    def test_latest_run_is_the_checked_one(self):
        # Regression in the middle of history, recovered since: fine.
        report = watchdog.check_records([
            _service_run(),
            _service_run(latency_p95_ms=900.0),
            _service_run(),
        ])
        assert report.ok


class TestDetection:
    def test_2x_latency_regression_found(self):
        report = watchdog.check_records([
            _service_run(), _service_run(),
            _service_run(latency_p95_ms=180.0),
        ])
        assert not report.ok
        finding = report.findings[0]
        assert finding.metric == "latency_p95_ms"
        assert finding.code == "regression"
        assert finding.direction == "increase"
        assert finding.ratio == pytest.approx(2.0)

    def test_throughput_drop_found(self):
        report = watchdog.check_records([
            _service_run(), _service_run(),
            _service_run(throughput_per_s=10.0),
        ])
        assert [f.metric for f in report.findings] \
            == ["throughput_per_s"]
        assert report.findings[0].direction == "decrease"

    def test_cycles_have_zero_tolerance(self):
        report = watchdog.check_records([
            _profile_run(), _profile_run(),
            _profile_run(simulated_cycles=500_001),
        ])
        assert [f.metric for f in report.findings] \
            == ["simulated_cycles"]

    def test_cycle_decrease_is_an_improvement(self):
        report = watchdog.check_records([
            _profile_run(), _profile_run(),
            _profile_run(simulated_cycles=400_000),
        ])
        assert report.ok

    def test_divergences_fail_without_baseline(self):
        report = watchdog.check_records([_service_run(divergences=1)])
        assert [f.metric for f in report.findings] == ["divergences"]
        assert report.findings[0].direction == "invariant"

    def test_engine_comparison_wall_checked(self):
        def run(wall):
            return {"mode": "engine_comparison", "params": "CSIDH-toy",
                    "variant": "reduced.ise",
                    "engines": {"jit": {"wall_s": wall},
                                "replay": {"wall_s": 1.0}}}
        report = watchdog.check_records([run(0.2), run(0.2), run(0.9)])
        assert [f.metric for f in report.findings] \
            == ["engines.jit.wall_s"]

    def test_profile_wall_regression_found(self):
        report = watchdog.check_records([
            _profile_run(), _profile_run(),
            _profile_run(wall_s=3.0),
        ])
        assert [f.metric for f in report.findings] == ["wall_s"]
        assert report.findings[0].direction == "increase"

    def test_custom_tolerance_widens_the_gate(self):
        runs = [_service_run(), _service_run(),
                _service_run(latency_p95_ms=180.0)]
        loose = watchdog.Tolerances(latency=1.5)
        assert watchdog.check_records(runs, tolerances=loose).ok

    def test_negative_tolerance_rejected(self):
        with pytest.raises(TelemetryError):
            watchdog.Tolerances(latency=-0.1)


class TestEnforceAndReport:
    def test_enforce_raises_stable_code(self):
        report = watchdog.check_records([
            _service_run(), _service_run(),
            _service_run(latency_p99_ms=1000.0),
        ])
        with pytest.raises(RegressionError) as excinfo:
            watchdog.enforce(report)
        assert excinfo.value.code == "regression"
        assert "latency_p99_ms" in str(excinfo.value)

    def test_enforce_passes_clean_report_through(self):
        report = watchdog.check_records([_service_run()])
        assert watchdog.enforce(report) is report

    def test_report_dict_is_json_able(self):
        report = watchdog.check_records([
            _service_run(), _service_run(),
            _service_run(latency_p50_ms=500.0),
        ])
        data = json.loads(json.dumps(report.to_dict()))
        assert data["ok"] is False
        assert data["findings"][0]["code"] == "regression"
        assert data["findings"][0]["metric"] == "latency_p50_ms"

    def test_missing_file_raises_repro_error(self, tmp_path):
        with pytest.raises(TelemetryError):
            watchdog.check_bench(str(tmp_path / "nope.json"))

    def test_garbage_file_raises_repro_error(self, tmp_path):
        path = tmp_path / "BENCH.json"
        path.write_text("not json {")
        with pytest.raises(TelemetryError):
            watchdog.check_bench(str(path))
        path.write_text('{"no": "runs"}')
        with pytest.raises(ReproError):
            watchdog.check_bench(str(path))

    def test_check_paths_merges_trajectories(self, tmp_path):
        a = _write(tmp_path, [_service_run()], "a.json")
        b = _write(tmp_path, [_profile_run()], "b.json")
        report = watchdog.check_paths([a, b])
        assert report.paths == [a, b]
        assert report.runs_seen == 2


class TestWatchdogCli:
    def test_clean_trajectory_exits_zero(self, tmp_path, capsys):
        path = _write(tmp_path, [_service_run(), _service_run()])
        assert main(["watchdog", path]) == 0
        out = capsys.readouterr().out
        assert "no regressions detected" in out

    def test_regression_exits_one_with_stable_code(
            self, tmp_path, capsys):
        path = _write(tmp_path, [
            _service_run(), _service_run(),
            _service_run(latency_p95_ms=400.0),
        ])
        assert main(["watchdog", path]) == 1
        captured = capsys.readouterr()
        assert "latency_p95_ms" in captured.out
        assert "error [regression]:" in captured.err

    def test_missing_file_exits_two(self, tmp_path, capsys):
        assert main(["watchdog", str(tmp_path / "nope.json")]) == 2
        assert "error [telemetry]:" in capsys.readouterr().err

    def test_json_report_written(self, tmp_path, capsys):
        path = _write(tmp_path, [
            _service_run(), _service_run(),
            _service_run(throughput_per_s=1.0),
        ])
        out_path = tmp_path / "report.json"
        assert main(["watchdog", path, "--json", str(out_path)]) == 1
        data = json.loads(out_path.read_text())
        assert data["findings"][0]["code"] == "regression"

    def test_tolerance_flags_forwarded(self, tmp_path):
        path = _write(tmp_path, [
            _service_run(), _service_run(),
            _service_run(latency_p95_ms=400.0,
                         throughput_per_s=1.0),
        ])
        assert main(["watchdog", path,
                     "--latency-tolerance", "10",
                     "--throughput-tolerance", "0.99"]) == 0

