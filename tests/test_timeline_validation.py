"""Tests for the pipeline timeline recorder and batch validation."""

from __future__ import annotations

import pytest

from repro.core import EXTENDED_ISA
from repro.core.macros import mac_full_radix_isa, mac_full_radix_ise
from repro.errors import ParameterError
from repro.kernels.validation import validate_kernels
from repro.rv64.isa import BASE_ISA
from repro.rv64.timeline import render_timeline, trace_timeline


class TestTimeline:
    def test_entries_ordered_and_complete(self):
        entries = trace_timeline(
            "mul a0, a1, a2\nadd a3, a0, a0\nret", BASE_ISA)
        assert len(entries) == 3
        issues = [e.issue for e in entries]
        assert issues == sorted(issues)
        assert all(e.complete > e.issue for e in entries)

    def test_mul_use_stall_recorded(self):
        entries = trace_timeline(
            "mul a0, a1, a2\nadd a3, a0, a0\nret", BASE_ISA)
        assert entries[1].stall == 2  # waits on the 3-cycle multiply

    def test_independent_ops_do_not_stall(self):
        entries = trace_timeline(
            "mul a0, a1, a2\nadd a3, a4, a5\nret", BASE_ISA)
        assert entries[1].stall == 0

    def test_listing_totals_match_machine(self):
        """The timeline's horizon equals the cycle count the machine's
        own pipeline model reports for the same code."""
        from tests.helpers import result_of, run_asm
        from repro.rv64.pipeline import PipelineConfig

        source = "\n".join(
            mac_full_radix_isa("s2", "s1", "s0", "a0", "a1",
                               "t0", "t1")) + "\nret"
        config = PipelineConfig()
        entries = trace_timeline(source, EXTENDED_ISA,
                                 regs={"a0": 3, "a1": 4})
        machine = run_asm(source, {"a0": 3, "a1": 4},
                          pipeline=config, append_ret=False)
        # the machine additionally counts the trailing ret's flush
        flush = config.jump_penalty
        assert max(e.issue for e in entries) + 1 + flush \
            == result_of(machine).cycles

    def test_ise_mac_shorter_than_isa(self):
        regs = {"a0": 5, "a1": 6}
        isa = trace_timeline("\n".join(
            mac_full_radix_isa("s2", "s1", "s0", "a0", "a1", "t0",
                               "t1")) + "\nret", EXTENDED_ISA,
            regs=dict(regs))
        ise = trace_timeline("\n".join(
            mac_full_radix_ise("s2", "s1", "s0", "a0", "a1", "t0"))
            + "\nret", EXTENDED_ISA, regs=dict(regs))
        assert max(e.complete for e in ise) \
            < max(e.complete for e in isa)

    def test_render_contains_glyphs(self):
        entries = trace_timeline(
            "mul a0, a1, a2\nld a3, 0(a4)\nsd a3, 8(a4)\nret",
            BASE_ISA, regs={"a4": 0x9000})
        text = render_timeline(entries)
        assert "M" in text and "L" in text and "S" in text
        assert "cycle" in text

    def test_render_empty(self):
        assert render_timeline([]) == "(empty)"


class TestBatchValidation:
    def test_toy_sweep_passes(self, toy_params):
        report = validate_kernels(toy_params.p, trials=2)
        assert report.passed
        assert len(report.results) == 38
        assert "38 passed" in report.summary()

    @pytest.mark.parametrize("trials", [0, -1])
    def test_fewer_than_one_trial_is_refused(self, toy_params, trials):
        # the kernels without boundary operands would run zero times
        with pytest.raises(ParameterError, match="trials"):
            validate_kernels(toy_params.p, trials=trials)

    def test_constant_time_option(self, toy_params):
        report = validate_kernels(toy_params.p, trials=1,
                                  check_constant_time=True)
        assert report.passed
        assert all(r.constant_time for r in report.results)

    def test_cli_validate(self, capsys):
        from repro.cli import main

        assert main(["validate", "--params", "toy",
                     "--trials", "1"]) == 0
        assert "passed" in capsys.readouterr().out


class TestDerivedPrivateKeys:
    def test_deterministic(self, mini_params):
        from repro.csidh.protocol import PrivateKey

        a = PrivateKey.derive(b"seed", mini_params)
        b = PrivateKey.derive(b"seed", mini_params)
        assert a == b

    def test_different_seeds_differ(self, mini_params):
        from repro.csidh.protocol import PrivateKey

        assert PrivateKey.derive(b"a", mini_params) \
            != PrivateKey.derive(b"b", mini_params)

    def test_in_bounds(self, csidh512_params):
        from repro.csidh.protocol import PrivateKey

        key = PrivateKey.derive(b"\x01\x02", csidh512_params)
        m = csidh512_params.max_exponent
        assert len(key.exponents) == 74
        assert all(-m <= e <= m for e in key.exponents)

    def test_unbiased_over_many_seeds(self, toy_params):
        """Rejection sampling: every exponent value must occur."""
        from repro.csidh.protocol import PrivateKey

        seen = set()
        for i in range(200):
            key = PrivateKey.derive(i.to_bytes(2, "little"),
                                    toy_params)
            seen.update(key.exponents)
        m = toy_params.max_exponent
        assert seen == set(range(-m, m + 1))
