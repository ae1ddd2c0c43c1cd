"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_known_commands(self):
        parser = build_parser()
        for command in ("table3", "listings",
                        "kernel fp_add.full.isa"):
            args = parser.parse_args(command.split())
            assert callable(args.func)

    @pytest.mark.parametrize("argv", [
        ["top", "--connect", "127.0.0.1:9000"],
        ["load", "--connect", "127.0.0.1:9000"],
        ["trace", "--connect", "127.0.0.1:9000"],
        ["serve", "--no-telemetry"],
    ])
    def test_live_server_flags_are_gone(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(argv)
        assert excinfo.value.code == 2
        capsys.readouterr()


class TestCommands:
    def test_table3(self, capsys):
        assert main(["table3"]) == 0
        out = capsys.readouterr().out
        assert "base core" in out
        assert "4807" in out

    def test_table3_no_paper(self, capsys):
        assert main(["table3", "--no-paper"]) == 0
        assert "(paper)" not in capsys.readouterr().out

    def test_listings(self, capsys):
        assert main(["listings"]) == 0
        out = capsys.readouterr().out
        assert "Listing 1" in out
        assert "madd57hu" in out
        assert "(2 instructions)" in out

    def test_kernel_dump(self, capsys):
        assert main(["kernel", "fp_add.full.isa",
                     "--params", "toy"]) == 0
        out = capsys.readouterr().out
        assert "# kernel: fp_add.full.isa" in out
        assert "ret" in out

    def test_kernel_unknown_name(self, capsys):
        assert main(["kernel", "nonsense", "--params", "toy"]) == 2
        err = capsys.readouterr().err
        assert "available" in err
        # one actionable line, not a traceback or a listing dump
        assert len(err.strip().splitlines()) == 1
        assert "Traceback" not in err

    def test_exchange_toy(self, capsys):
        assert main(["exchange", "--params", "toy"]) == 0
        assert "AGREED" in capsys.readouterr().out

    def test_report_to_file(self, tmp_path, capsys):
        target = tmp_path / "report.md"
        assert main(["report", "-o", str(target), "--keys", "1"]) == 0
        text = target.read_text()
        assert "# Reproduction report" in text
        assert "## Table 4" in text
        assert "Critical path" in text


class TestFaultsCommand:
    """``repro faults`` and the one-line CLI error contract."""

    def test_toy_campaign_with_json_report(self, tmp_path, capsys):
        import json

        out = tmp_path / "faults.json"
        assert main(["faults", "--params", "toy", "--n", "6",
                     "--seed", "2", "--json", str(out)]) == 0
        text = capsys.readouterr().out
        assert "escaped 0" in text
        document = json.loads(out.read_text())
        assert document["seed"] == 2
        assert document["n"] == 6
        assert document["escaped"] == 0
        assert len(document["trials"]) == 6
        assert document["metrics"]["faults_injected_total"]

    def test_quiet_suppresses_table(self, tmp_path, capsys):
        out = tmp_path / "faults.json"
        assert main(["faults", "--params", "toy", "--n", "2",
                     "--seed", "1", "--quiet",
                     "--json", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert out.exists()

    @pytest.mark.parametrize("argv, needle", [
        (["faults", "--n", "0"], "--n"),
        (["faults", "--check-interval", "0"], "--check-interval"),
        (["faults", "--quiet"], "--json"),
        (["faults", "--params", "toy", "--sites", "bogus_site"],
         "unknown fault site"),
        (["faults", "--params", "csidh-512", "--n", "1",
          "--engine", "interpreter"], "--params toy"),
        (["faults", "--params", "csidh-512", "--n", "1",
          "--engine", "interpreter"], "--engine aot"),
    ])
    def test_bad_arguments_one_line_exit_2(self, argv, needle,
                                           capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert needle in err
        assert len(err.strip().splitlines()) == 1
        assert "Traceback" not in err

    def test_csidh512_campaign_runs_on_aot(self, capsys):
        # the interpreter-only size cap does not apply to aot
        assert main(["faults", "--params", "csidh-512", "--n", "1"]) == 0
        out = capsys.readouterr().out
        assert "params=CSIDH-512" in out
        assert "escaped 0" in out


class TestBenchCommand:
    """``repro bench``: the engine-comparison benchmark."""

    def test_bench_all_engines_with_trajectory(self, tmp_path, capsys,
                                               monkeypatch):
        # keep the aot cold/warm phase out of the user's real cache dir
        monkeypatch.setenv("REPRO_AOT_CACHE", str(tmp_path / "aot"))
        out_path = tmp_path / "BENCH_protocol.json"
        assert main(["bench", "--params", "toy", "--engine", "all",
                     "--rounds", "1",
                     "--bench-out", str(out_path)]) == 0
        out = capsys.readouterr().out
        for engine in ("interpreter", "aot"):
            assert engine in out
        assert "aot first  start" in out

        import json as json_module
        document = json_module.loads(out_path.read_text())
        assert document["benchmark"] == "protocol"
        record = document["runs"][-1]
        assert record["mode"] == "engine_comparison"
        assert set(record["engines"]) == {"interpreter", "aot"}
        for row in record["engines"].values():
            assert row["wall_s"] > 0
        # within one invocation the second phase binds the artifacts
        # the first phase just wrote
        start = record["aot_start"]
        assert start["first"]["artifact_writes"] > 0
        assert start["second"]["artifact_hits"] > 0
        assert start["second"]["compiles"] == 0

    def test_bench_single_engine_no_batch(self, capsys):
        assert main(["bench", "--params", "toy", "--engine",
                     "interpreter", "--rounds", "1"]) == 0
        out = capsys.readouterr().out
        assert "interpreter" in out
        assert "mul_batch" not in out

    @pytest.mark.parametrize("argv, needle", [
        (["bench", "--params", "toy", "--rounds", "0"], "--rounds"),
        # the default --engine all includes the interpreter
        (["bench", "--params", "csidh-512"], "--params toy"),
        (["bench", "--params", "csidh-512"], "--engine aot"),
    ])
    def test_bench_bad_arguments(self, argv, needle, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert needle in err
        assert len(err.strip().splitlines()) == 1
        assert "Traceback" not in err

    def test_faults_engine_flag(self, tmp_path, capsys):
        report_path = tmp_path / "campaign.json"
        assert main(["faults", "--params", "toy", "--n", "4",
                     "--engine", "interpreter", "--json",
                     str(report_path)]) == 0
        import json as json_module
        document = json_module.loads(report_path.read_text())
        assert document["engine"] == "interpreter"
        assert document["escaped"] == 0


class TestTelemetryFlags:
    """The observability surfaces: ``profile`` and ``--telemetry``."""

    def test_profile_toy_prints_span_tree(self, capsys):
        assert main(["profile", "--params", "toy"]) == 0
        out = capsys.readouterr().out
        assert "group_action" in out
        assert "isogeny[degree=" in out
        assert "hot kernels" in out
        assert "engine mix: aot=" in out

    def test_profile_exports_and_bench(self, tmp_path, capsys):
        import json

        out = tmp_path / "telemetry.json"
        bench = tmp_path / "BENCH_protocol.json"
        assert main(["profile", "--params", "toy",
                     "-o", str(out), "--bench-out", str(bench)]) == 0
        document = json.loads(out.read_text())
        assert document["spans"]["name"] == "root"
        assert document["workload"]["kind"] == "group_action"
        trajectory = json.loads(bench.read_text())
        assert trajectory["benchmark"] == "protocol"
        (run,) = trajectory["runs"]
        assert run["simulated_cycles"] \
            == document["workload"]["simulated_cycles"]

    def test_profile_csidh512_refused(self, capsys):
        # --cross-check runs the interpreter, which keeps the size cap
        assert main(["profile", "--params", "csidh-512",
                     "--cross-check"]) == 2
        err = capsys.readouterr().err
        assert "infeasible" in err
        assert "--params toy" in err   # actionable: names the fix
        assert "--cross-check" in err  # ... and the aot path
        assert len(err.strip().splitlines()) == 1

    def test_action_telemetry_cycle_sum_invariant(self, tmp_path,
                                                  capsys):
        """The acceptance criterion: the exported span tree's per-phase
        simulated cycles sum to the reported group-action total, with
        per-isogeny-degree and per-kernel attribution."""
        import json

        out = tmp_path / "out.json"
        assert main(["action", "--params", "toy",
                     "--telemetry", str(out)]) == 0
        document = json.loads(out.read_text())
        total = document["workload"]["simulated_cycles"]

        def find(node, name):
            if node["name"] == name:
                return node
            for child in node["children"]:
                found = find(child, name)
                if found is not None:
                    return found
            return None

        action = find(document["spans"], "group_action")
        assert action is not None
        assert action["total_cycles"] == total
        phase_sum = sum(child["total_cycles"]
                        for child in action["children"])
        assert phase_sum + action["self_cycles"] == total
        degrees = {child["labels"]["degree"]
                   for child in action["children"]
                   if child["name"] == "isogeny"}
        assert degrees  # per-degree attribution present
        kernel_cycles = document["metrics"]["kernel_cycles_total"]
        assert sum(entry["value"] for entry in kernel_cycles) == total
        assert any("fp_mul" in entry["labels"]["kernel"]
                   for entry in kernel_cycles)

    def test_table4_telemetry_jsonl_round_trip(self, tmp_path,
                                               capsys):
        from repro.telemetry.export import read_jsonl

        out = tmp_path / "table4.jsonl"
        assert main(["table4", "--params", "toy",
                     "--telemetry", str(out)]) == 0
        root = read_jsonl(str(out))
        table4 = root.find("table4")
        assert table4 is not None
        measures = [node for node in table4.walk()
                    if node.name == "measure"]
        assert len(measures) == 32  # 8 operations x 4 variants
        assert table4.total_cycles > 0

    def test_report_telemetry_export(self, tmp_path, capsys):
        import json

        out = tmp_path / "report.json"
        target = tmp_path / "report.md"
        assert main(["report", "--keys", "1", "-o", str(target),
                     "--telemetry", str(out)]) == 0
        document = json.loads(out.read_text())
        names = {child["name"]
                 for child in document["spans"]["children"]}
        assert "table4" in names


class TestResilienceFlags:
    """The resilience knobs on ``repro serve`` / ``repro load``."""

    def test_serve_grace_flag_parses(self):
        args = build_parser().parse_args(
            ["serve", "--grace-s", "2.5"])
        assert args.grace_s == 2.5

    def test_serve_negative_grace_rejected(self, capsys):
        assert main(["serve", "--grace-s", "-1"]) == 2
        assert "--grace-s" in capsys.readouterr().err

    def test_load_timeout_flag_parses(self):
        args = build_parser().parse_args(
            ["load", "--timeout-s", "7"])
        assert args.timeout_s == 7.0

    def test_load_negative_timeout_rejected(self, capsys):
        assert main(["load", "--timeout-s", "-3"]) == 2
        assert "--timeout-s" in capsys.readouterr().err

    def test_load_reports_deadline_rejections(self, capsys):
        assert main(["load", "--params", "toy", "--exchanges", "2",
                     "--concurrency", "2", "--tenants", "1",
                     "--engine", "aot", "--no-trace",
                     "--timeout-s", "30"]) == 0
        assert "deadline" in capsys.readouterr().out


class TestLoadAndTraceCommands:
    """``load`` and ``trace`` share one tail: summaries, trace exports
    and the exit status."""

    @pytest.mark.parametrize("command", ["load", "trace"])
    def test_divergence_exits_1(self, command, monkeypatch, capsys):
        from repro.service import LoadReport

        async def diverging_load(params, **kwargs):
            return LoadReport(
                params=params.name, exchanges=1, concurrency=1,
                tenants=1, engine="aot", hardened=False, duration_s=0.1,
                requests=4, divergences=1, rejections=0, demotions=0,
                promotions=0, fault_detections=0, fault_recoveries=0)

        monkeypatch.setattr("repro.service.run_load", diverging_load)
        assert main([command, "--params", "toy", "--exchanges", "1",
                     "--tenants", "1"]) == 1
        out = capsys.readouterr().out
        assert "1 divergences" in out
        assert "FAIL: 1 result(s) diverged" in out

    def test_trace_writes_all_three_exports(self, tmp_path, capsys):
        import json

        paths = {name: tmp_path / name
                 for name in ("trace.json", "chrome.json", "stacks.folded")}
        assert main([
            "trace", "--params", "toy", "--exchanges", "2",
            "--concurrency", "2", "--tenants", "1",
            "--json", str(paths["trace.json"]),
            "--chrome", str(paths["chrome.json"]),
            "--flamegraph", str(paths["stacks.folded"]),
        ]) == 0
        assert "0 divergences" in capsys.readouterr().out
        document = json.loads(paths["trace.json"].read_text())
        total = document["summary"]["total_cycles"]
        assert total > 0
        assert document["summary"]["requests"] == 8

        def tree_total(node):
            return node["self_cycles"] + sum(
                tree_total(child) for child in node.get("children", ()))

        assert tree_total(document["spans"]) == total
        chrome = json.loads(paths["chrome.json"].read_text())
        assert chrome["otherData"]["total_cycles"] == total
        stacks = paths["stacks.folded"].read_text().splitlines()
        assert sum(int(line.rsplit(" ", 1)[1]) for line in stacks) \
            == total
