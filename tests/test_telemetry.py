"""Tests for the telemetry subsystem: metrics, spans, exporters and the
instrumented group-action profile.

The load-bearing property throughout is *cycle conservation*: every
simulated cycle lands in exactly one span's ``self_cycles``, so subtree
totals roll up to the independently measured grand total.  The
integration tests check that invariant against a fully simulated toy
group action, end to end.
"""

from __future__ import annotations

import json

import pytest

from repro import telemetry
from repro.errors import ReproError
from repro.telemetry import (
    MetricsRegistry,
    SpanNode,
    TelemetryError,
    Tracer,
    render_span_tree,
)
from repro.telemetry.export import (
    read_jsonl,
    span_from_dict,
    span_to_dict,
    to_json_document,
    to_prometheus,
    write_bench,
    write_json,
    write_jsonl,
)
from repro.telemetry.spans import _NULL_SPAN


@pytest.fixture(autouse=True)
def _clean_global_telemetry():
    """Every test starts and ends with disabled, empty global state."""
    telemetry.disable()
    telemetry.reset()
    yield
    telemetry.disable()
    telemetry.reset()


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


class TestMetrics:
    def test_counter_inc_value_total(self):
        reg = MetricsRegistry()
        runs = reg.counter("runs_total", "help text")
        runs.inc(kernel="fp_mul")
        runs.inc(3, kernel="fp_mul")
        runs.inc(kernel="fp_add")
        assert runs.value(kernel="fp_mul") == 4
        assert runs.value(kernel="fp_add") == 1
        assert runs.value(kernel="absent") == 0
        assert runs.total() == 5

    def test_counter_rejects_negative(self):
        reg = MetricsRegistry()
        with pytest.raises(TelemetryError):
            reg.counter("c").inc(-1)

    def test_counter_get_or_create_is_same_family(self):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        reg.counter("c").inc()
        assert reg.counter("c").total() == 2

    def test_gauge_set_inc_dec(self):
        reg = MetricsRegistry()
        gauge = reg.gauge("pool_size")
        gauge.set(4)
        assert gauge.value() == 4
        gauge.labels().inc(2)
        gauge.labels().dec(1)
        assert gauge.value() == 5

    def test_histogram_buckets_and_stats(self):
        reg = MetricsRegistry()
        hist = reg.histogram("cycles", buckets=(10, 100))
        for value in (5, 50, 500):
            hist.observe(value)
        child = hist.labels()
        assert child.count == 3
        assert child.sum == 555
        assert child.min == 5 and child.max == 500
        assert child.buckets == [1, 1, 1]  # <=10, <=100, +Inf

    def test_type_clash_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TelemetryError, match="already registered"):
            reg.gauge("x")

    def test_label_order_is_canonical(self):
        reg = MetricsRegistry()
        counter = reg.counter("c")
        counter.inc(a=1, b=2)
        counter.inc(b=2, a=1)
        assert counter.value(b=2, a=1) == 2

    def test_histogram_samples_flatten(self):
        reg = MetricsRegistry()
        reg.histogram("h", buckets=(10,)).observe(3)
        names = {s.name for s in reg.samples()}
        assert names == {"h_count", "h_sum", "h_bucket"}
        buckets = [s for s in reg.samples() if s.name == "h_bucket"]
        assert [dict(s.labels)["le"] for s in buckets] == ["10", "+Inf"]
        assert [s.value for s in buckets] == [1, 1]  # cumulative

    def test_reset_drops_families(self):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        reg.reset()
        assert list(reg.samples()) == []

    def test_prometheus_rendering(self):
        reg = MetricsRegistry()
        reg.counter("runs_total").inc(2, kernel="fp_mul")
        reg.gauge("size").set(3)
        text = to_prometheus(reg)
        assert "# TYPE runs_total counter" in text
        assert 'runs_total{kernel="fp_mul"} 2' in text
        assert "# TYPE size gauge" in text
        assert text.endswith("\n")

    def test_prometheus_histogram_one_type_line(self):
        reg = MetricsRegistry()
        reg.histogram("h", buckets=(10,)).observe(3)
        text = to_prometheus(reg)
        assert text.count("# TYPE h histogram") == 1
        assert 'h_bucket{le="+Inf"} 1' in text


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------


class TestSpans:
    def test_disabled_span_is_shared_noop(self):
        tracer = Tracer()
        assert tracer.span("a") is _NULL_SPAN
        with tracer.span("a"):
            tracer.add_cycles(100)
        assert tracer.root.children == {}
        assert tracer.root.self_cycles == 0

    def test_cycles_go_to_innermost_span(self):
        tracer = Tracer()
        tracer.enabled = True
        with tracer.span("outer"):
            tracer.add_cycles(10)
            with tracer.span("inner"):
                tracer.add_cycles(5)
        outer = tracer.root.find("outer")
        inner = outer.find("inner")
        assert outer.self_cycles == 10
        assert inner.self_cycles == 5
        assert outer.total_cycles == 15
        assert tracer.root.total_cycles == 15

    def test_repeated_spans_aggregate(self):
        tracer = Tracer()
        tracer.enabled = True
        for _ in range(3):
            with tracer.span("isogeny", degree=3):
                tracer.add_cycles(7)
        with tracer.span("isogeny", degree=5):
            tracer.add_cycles(1)
        assert len(tracer.root.children) == 2
        node = tracer.root.find("isogeny", degree=3)
        assert node.count == 3
        assert node.self_cycles == 21
        assert node.label == "isogeny[degree=3]"

    def test_wall_clock_accumulates(self):
        tracer = Tracer()
        tracer.enabled = True
        with tracer.span("a"):
            pass
        assert tracer.root.find("a").wall_s >= 0.0
        assert tracer.root.find("a").count == 1

    def test_exception_unwinds_stack(self):
        tracer = Tracer()
        tracer.enabled = True
        with pytest.raises(ValueError):
            with tracer.span("outer"):
                with tracer.span("inner"):
                    raise ValueError("boom")
        assert tracer.current() is tracer.root
        # recording still works afterwards
        with tracer.span("after"):
            tracer.add_cycles(1)
        assert tracer.root.find("after").self_cycles == 1

    def test_find_with_and_without_labels(self):
        tracer = Tracer()
        tracer.enabled = True
        with tracer.span("isogeny", degree=3):
            pass
        assert tracer.root.find("isogeny") is not None
        assert tracer.root.find("isogeny", degree=3) is not None
        assert tracer.root.find("isogeny", degree=5) is None

    def test_reset_keeps_enabled_flag(self):
        tracer = Tracer()
        tracer.enabled = True
        with tracer.span("a"):
            pass
        tracer.reset()
        assert tracer.enabled
        assert tracer.root.children == {}

    def test_render_tree(self):
        tracer = Tracer()
        tracer.enabled = True
        with tracer.span("group_action"):
            with tracer.span("isogeny", degree=3):
                tracer.add_cycles(75)
            with tracer.span("sample_point"):
                tracer.add_cycles(25)
        text = render_span_tree(tracer.root)
        assert "group_action" in text
        assert "isogeny[degree=3]" in text
        assert "75.0%" in text
        # single top-level span: the synthetic root row is skipped
        assert "root" not in text

    def test_render_min_percent_filters(self):
        tracer = Tracer()
        tracer.enabled = True
        with tracer.span("big"):
            tracer.add_cycles(99)
        with tracer.span("tiny"):
            tracer.add_cycles(1)
        text = render_span_tree(tracer.root, min_percent=5.0)
        assert "big" in text
        assert "tiny" not in text


# ---------------------------------------------------------------------------
# Global helpers: capture() and the recorders
# ---------------------------------------------------------------------------


class TestGlobalHelpers:
    def test_capture_enables_and_restores(self):
        assert not telemetry.enabled()
        with telemetry.capture() as cap:
            assert telemetry.enabled()
            with telemetry.span("a"):
                telemetry.add_cycles(3)
        assert not telemetry.enabled()
        assert cap.root.find("a").self_cycles == 3

    def test_capture_fresh_drops_previous_state(self):
        telemetry.enable()
        with telemetry.span("stale"):
            pass
        with telemetry.capture() as cap:
            pass
        assert cap.root.find("stale") is None

    def test_record_helpers_noop_while_disabled(self):
        telemetry.record_kernel_run("fp_mul", "aot", 10, 5)
        telemetry.record("runner_pool_hits_total")
        telemetry.record("runner_pool_size", value=4)
        telemetry.record_machine_run("aot")
        telemetry.record_aot_demotion("trace_hooks")
        telemetry.record("trace_compiles_total")
        telemetry.record("trace_rejects_total", "control_flow")
        telemetry.record("kernel_check_failures_total", "fp_mul")
        assert list(telemetry.REGISTRY.samples()) == []
        assert telemetry.REGISTRY.bound == {}
        assert telemetry.TRACER.root.children == {}

    def test_record_kernel_run_attributes_cycles(self):
        with telemetry.capture() as cap:
            with telemetry.span("phase"):
                telemetry.record_kernel_run("fp_mul", "aot", 58, 33)
                telemetry.record_kernel_run("fp_mul", "aot", 58, 33)
        assert cap.root.find("phase").self_cycles == 116
        runs = cap.registry.counter("kernel_runs_total")
        assert runs.value(kernel="fp_mul", engine="aot") == 2
        cycles = cap.registry.counter("kernel_cycles_total")
        assert cycles.value(kernel="fp_mul") == 116

    def test_record_pool_access_counters_and_gauge(self):
        with telemetry.capture() as cap:
            for family, size in (("runner_pool_misses_total", 1),
                                 ("runner_pool_hits_total", 1),
                                 ("runner_pool_hits_total", 1)):
                telemetry.record(family)
                telemetry.record("runner_pool_size", value=size)
        reg = cap.registry
        assert reg.counter("runner_pool_misses_total").total() == 1
        assert reg.counter("runner_pool_hits_total").total() == 2
        assert reg.gauge("runner_pool_size").value() == 1


# ---------------------------------------------------------------------------
# The built-in family table and the generic recording path
# ---------------------------------------------------------------------------


def _documented_families() -> dict[str, tuple[str, ...]]:
    """``name -> label names`` from OBSERVABILITY.md's metrics table."""
    from pathlib import Path

    doc = Path(__file__).resolve().parents[1] / "docs" / "OBSERVABILITY.md"
    section = doc.read_text().split("## Built-in metrics", 1)[1]
    section = section.split("\n## ", 1)[0]
    rows: dict[str, tuple[str, ...]] = {}
    for line in section.splitlines():
        cells = [cell.strip() for cell in line.strip().split("|")[1:-1]]
        if len(cells) < 2 or not cells[0].startswith("`"):
            continue
        name = cells[0].strip("`")
        assert name not in rows, f"{name} documented twice"
        labels = () if cells[1] == "—" else tuple(
            label.strip().strip("`") for label in cells[1].split(","))
        rows[name] = labels
    return rows


class TestFamilyTable:
    def test_every_family_documented_with_its_labels(self):
        documented = _documented_families()
        declared = {name: spec.labels
                    for name, spec in telemetry.FAMILIES.items()}
        assert documented == declared

    def test_duplicate_declaration_refused(self):
        spec = telemetry.FAMILIES["kernel_runs_total"]
        with pytest.raises(TelemetryError, match="declared twice"):
            telemetry._declare(spec, spec)

    def test_undeclared_family_raises(self):
        with telemetry.capture():
            with pytest.raises(TelemetryError, match="undeclared"):
                telemetry.record("no_such_family_total")

    @pytest.mark.parametrize("labels", [(), ("fp_mul", "extra")])
    def test_wrong_label_count_raises(self, labels):
        with telemetry.capture():
            with pytest.raises(TelemetryError, match="takes labels"):
                telemetry.record("checked_runs_total", *labels)

    def test_kinds_add_set_and_observe(self):
        with telemetry.capture() as cap:
            telemetry.record("kernel_cycles_total", "fp_mul", value=5)
            telemetry.record("kernel_cycles_total", "fp_mul", value=7)
            telemetry.record("service_inflight", "t", value=3)
            telemetry.record("service_inflight", "t", value=2)
            telemetry.record("service_request_seconds", "keygen",
                             value=0.02)
        reg = cap.registry
        assert reg.counter("kernel_cycles_total").value(kernel="fp_mul") \
            == 12
        assert reg.gauge("service_inflight").value(tenant="t") == 2
        latency = reg.histogram("service_request_seconds")
        assert latency.bounds == telemetry.SERVICE_LATENCY_BUCKETS
        child = latency.labels(op="keygen")
        assert (child.count, child.sum) == (1, 0.02)

    def test_reset_drops_cached_children(self):
        with telemetry.capture() as cap:
            telemetry.record("trace_compiles_total")
            telemetry.record_kernel_run("fp_mul", "aot", 58, 33)
            telemetry.reset()
            telemetry.record("trace_compiles_total")
            telemetry.record_kernel_run("fp_mul", "aot", 58, 33)
        reg = cap.registry
        assert reg.counter("trace_compiles_total").total() == 1
        runs = reg.counter("kernel_runs_total")
        assert runs.value(kernel="fp_mul", engine="aot") == 1

    def test_concurrent_records_lose_no_update(self):
        """Threads racing to bind and bump the same children (more
        workers than cores, a short switch interval) keep exact sums."""
        import sys
        import threading

        workers, per_worker = 8, 500
        kernels = ("fp_mul", "fp_add", "fp_sub", "fp_sqr")

        def work() -> None:
            for i in range(per_worker):
                telemetry.record_kernel_run(kernels[i % 4], "aot", 3, 2)
                telemetry.record("trace_rejects_total", kernels[i % 4])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with telemetry.capture() as cap:
                threads = [threading.Thread(target=work)
                           for _ in range(workers)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        total = workers * per_worker
        reg = cap.registry
        assert reg.counter("kernel_runs_total").total() == total
        assert reg.counter("kernel_cycles_total").total() == 3 * total
        assert reg.counter("trace_rejects_total").total() == total
        assert cap.root.self_cycles == 3 * total

    def test_fresh_captures_share_no_state(self):
        with telemetry.capture() as first:
            telemetry.record_machine_run("aot")
        with telemetry.capture() as second:
            assert telemetry.REGISTRY.bound == {}
            telemetry.record_machine_run("aot")
        for cap in (first, second):
            runs = cap.registry.counter("machine_runs_total")
            assert runs.value(engine="aot") == 1
        assert not set(map(id, first.registry.bound.values())) \
            & set(map(id, second.registry.bound.values()))


# ---------------------------------------------------------------------------
# Exporters
# ---------------------------------------------------------------------------


def _sample_tree() -> Tracer:
    tracer = Tracer()
    tracer.enabled = True
    with tracer.span("group_action"):
        with tracer.span("isogeny", degree=3):
            tracer.add_cycles(30)
        with tracer.span("isogeny", degree=5):
            tracer.add_cycles(50)
        tracer.add_cycles(7)
    return tracer


class TestExport:
    def test_span_dict_round_trip_is_equal(self):
        root = _sample_tree().root
        rebuilt = span_from_dict(span_to_dict(root))
        assert rebuilt == root
        assert rebuilt.total_cycles == 87

    def test_json_document_structure(self, tmp_path):
        tracer = _sample_tree()
        reg = MetricsRegistry()
        reg.counter("c").inc(5)
        path = tmp_path / "out.json"
        write_json(str(path), tracer.root, reg,
                   extra={"workload": {"kind": "test"}})
        document = json.loads(path.read_text())
        assert document["meta"]["schema"] == 1
        assert document["spans"]["name"] == "root"
        assert document["spans"]["total_cycles"] == 87
        assert document["metrics"]["c"] == [
            {"labels": {}, "value": 5}]
        assert document["workload"] == {"kind": "test"}

    def test_jsonl_round_trip_rebuilds_exact_tree(self, tmp_path):
        tracer = _sample_tree()
        reg = MetricsRegistry()
        reg.counter("c").inc(kernel="fp_mul")
        path = tmp_path / "out.jsonl"
        write_jsonl(str(path), tracer.root, reg)
        rebuilt = read_jsonl(str(path))
        assert rebuilt == tracer.root

    def test_jsonl_lines_are_self_describing(self, tmp_path):
        path = tmp_path / "out.jsonl"
        write_jsonl(str(path), _sample_tree().root)
        events = [json.loads(line)
                  for line in path.read_text().splitlines()]
        assert events[0]["type"] == "meta"
        spans = [e for e in events if e["type"] == "span"]
        deepest = max(spans, key=lambda e: len(e["path"]))
        assert deepest["path"][0] == ["root", {}]
        assert deepest["path"][1] == ["group_action", {}]

    def test_read_jsonl_without_spans_raises(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text('{"type": "meta"}\n')
        with pytest.raises(TelemetryError):
            read_jsonl(str(path))

    def test_to_json_document_matches_tree_total(self):
        tracer = _sample_tree()
        document = to_json_document(tracer.root, MetricsRegistry())
        assert (document["spans"]["total_cycles"]
                == tracer.root.total_cycles)

    def test_write_bench_appends_runs(self, tmp_path):
        path = tmp_path / "BENCH_protocol.json"
        write_bench(str(path), "protocol", {"wall_s": 1.0})
        document = write_bench(str(path), "protocol", {"wall_s": 2.0})
        assert document["benchmark"] == "protocol"
        assert [run["wall_s"] for run in document["runs"]] == [1.0, 2.0]
        on_disk = json.loads(path.read_text())
        assert len(on_disk["runs"]) == 2

    def test_write_bench_survives_corrupt_file(self, tmp_path):
        path = tmp_path / "BENCH_protocol.json"
        path.write_text("not json {")
        document = write_bench(str(path), "protocol", {"wall_s": 3.0})
        assert len(document["runs"]) == 1


# ---------------------------------------------------------------------------
# Instrumented workloads (integration, toy parameters)
# ---------------------------------------------------------------------------


class TestInstrumentedGroupAction:
    @pytest.fixture(scope="class")
    def profile(self):
        from repro.csidh.parameters import csidh_toy
        from repro.telemetry.profile import profile_group_action

        return profile_group_action(csidh_toy(), seed=3)

    def test_cycle_conservation(self, profile):
        """Every simulated cycle is attributed to exactly one phase:
        the span tree's total equals the field context's independent
        count (checked exactly, not within tolerance)."""
        assert profile.action_node.total_cycles \
            == profile.simulated_cycles
        phase_sum = sum(child.total_cycles for child
                        in profile.action_node.children.values())
        assert phase_sum + profile.action_node.self_cycles \
            == profile.simulated_cycles

    def test_expected_phase_spans_present(self, profile):
        names = {child.name for child
                 in profile.action_node.children.values()}
        assert {"sample_point", "cofactor_clear",
                "recover_affine", "isogeny"} <= names

    def test_per_degree_isogeny_attribution(self, profile):
        degrees = {
            dict(child.labels)["degree"]
            for child in profile.action_node.children.values()
            if child.name == "isogeny"
        }
        assert degrees <= {"3", "5", "7"}
        assert degrees  # at least one isogeny ran
        for child in profile.action_node.children.values():
            if child.name == "isogeny":
                assert child.total_cycles > 0

    def test_kernel_metrics_sum_to_total(self, profile):
        cycles = profile.registry.counter("kernel_cycles_total")
        assert cycles.total() == profile.simulated_cycles
        runs = profile.registry.counter("kernel_runs_total")
        assert runs.total() > 0

    def test_aot_engine_used_throughout(self, profile):
        engines = profile.registry.counter("machine_runs_total")
        assert engines.value(engine="aot") > 0
        assert engines.value(engine="interpreter") == 0
        assert profile.registry.counter(
            "aot_demotions_total").total() == 0

    def test_hot_kernels_ranked(self, profile):
        hot = profile.hot_kernels(top=3)
        assert hot[0][0] == "fp_mul.reduced.ise"
        assert hot == sorted(hot, key=lambda item: -item[1])
        for _, cycles, runs in hot:
            assert cycles > 0 and runs > 0

    def test_render_profile_mentions_key_facts(self, profile):
        from repro.telemetry.profile import render_profile

        text = render_profile(profile)
        assert "group_action" in text
        assert "fp_mul.reduced.ise" in text
        assert "engine mix: aot=" in text

    def test_bench_record_shape(self, profile):
        record = profile.bench_record()
        assert record["params"] == "CSIDH-toy"
        assert record["simulated_cycles"] == profile.simulated_cycles
        assert sum(record["cycles_by_phase"].values()) \
            == profile.simulated_cycles
        assert record["hot_kernels"]

    def test_csidh512_refused(self):
        from repro.csidh.parameters import csidh_512
        from repro.telemetry.profile import profile_group_action

        with pytest.raises(ReproError, match="infeasible"):
            profile_group_action(csidh_512(), cross_check=True)

    def test_cross_check_forces_interpreter(self, toy_params):
        from repro.telemetry.profile import profile_group_action

        profile = profile_group_action(toy_params, seed=3,
                                       cross_check=True)
        engines = profile.registry.counter("machine_runs_total")
        assert engines.value(engine="interpreter") > 0
        assert engines.value(engine="aot") == 0
        # conservation holds on the interpreter path too
        assert profile.action_node.total_cycles \
            == profile.simulated_cycles


class TestRunnerPoolTelemetry:
    def test_hits_and_misses_counted(self, toy_params):
        from repro.kernels.registry import (
            cached_runner,
            clear_runner_pool,
        )

        clear_runner_pool()
        with telemetry.capture() as cap:
            cached_runner(toy_params.p, "fp_mul.reduced.ise")
            cached_runner(toy_params.p, "fp_mul.reduced.ise")
            cached_runner(toy_params.p, "fp_add.reduced.ise")
        reg = cap.registry
        assert reg.counter("runner_pool_misses_total").total() == 2
        assert reg.counter("runner_pool_hits_total").total() == 1
        assert reg.gauge("runner_pool_size").value() == 2


# ---------------------------------------------------------------------------
# Prometheus label escaping + wall-clock span anchors (PR 7 satellites)
# ---------------------------------------------------------------------------


class TestPrometheusEscaping:
    def test_hostile_label_values_escaped(self):
        reg = MetricsRegistry()
        hostile = 'back\\slash "quoted"\nnewline'
        reg.counter("hostile_total").inc(3, kernel=hostile)
        text = to_prometheus(reg)
        line = next(l for l in text.splitlines()
                    if l.startswith("hostile_total"))
        # The exposition stays one physical line: the raw newline must
        # have been escaped, not emitted.
        assert "\n" not in line
        assert ('kernel="back\\\\slash \\"quoted\\"\\nnewline"'
                in line)
        assert line.endswith(" 3")

    def test_benign_labels_unchanged(self):
        reg = MetricsRegistry()
        reg.counter("runs_total").inc(kernel="fp_mul.reduced.ise")
        assert ('runs_total{kernel="fp_mul.reduced.ise"} 1'
                in to_prometheus(reg))


class TestStartEpochAnchor:
    def test_span_entry_stamps_epoch_once(self):
        tracer = Tracer()
        tracer.enabled = True
        with tracer.span("outer"):
            pass
        node = tracer.root.find("outer")
        first = node.start_epoch
        assert first is not None and first > 0
        with tracer.span("outer"):
            pass
        # Re-entering the same aggregate keeps the *first* wall-clock
        # anchor: the Chrome exporter wants stable placement.
        assert node.start_epoch == first

    def test_jsonl_round_trip_preserves_epoch(self, tmp_path):
        tracer = _sample_tree()
        tracer.root.find("group_action").start_epoch = 1700000000.25
        path = tmp_path / "epoch.jsonl"
        write_jsonl(str(path), tracer.root)
        rebuilt = read_jsonl(str(path))
        assert rebuilt == tracer.root
        assert (rebuilt.find("group_action").start_epoch
                == 1700000000.25)

    def test_dict_round_trip_preserves_epoch_and_absence(self):
        tracer = _sample_tree()
        tracer.root.find("group_action").start_epoch = 123.5
        rebuilt = span_from_dict(span_to_dict(tracer.root))
        assert rebuilt == tracer.root
        assert rebuilt.find("group_action").start_epoch == 123.5
        # Nodes never entered as wall spans stay unanchored.
        assert rebuilt.start_epoch is None

    def test_epoch_distinguishes_otherwise_equal_trees(self):
        a = _sample_tree().root
        b = _sample_tree().root
        a.find("group_action").start_epoch = 1.0
        b.find("group_action").start_epoch = 2.0
        assert a != b
