"""Tests for the execution profiler and hardware timing model."""

from __future__ import annotations

import pytest

from repro.hw.timing import (
    StageDelay,
    TARGET_CLOCK_NS,
    base_multiplier_stage,
    critical_path_report,
    xmul_extends_critical_path,
    xmul_full_radix_stage2,
    xmul_reduced_radix_stage2,
)
from repro.rv64.assembler import assemble
from repro.rv64.isa import BASE_ISA
from repro.rv64.machine import Machine
from repro.rv64.tracing import (
    Profiler,
    instruction_mix,
    profile_machine_run,
)


def _machine(source: str) -> tuple[Machine, int]:
    machine = Machine(BASE_ISA)
    entry = machine.load_program(assemble(source, BASE_ISA))
    return machine, entry


class TestProfiler:
    def test_counts_mnemonics(self):
        machine, entry = _machine(
            "add a0, a1, a2\nadd a0, a0, a2\nmul a3, a0, a0\nret")
        profile = profile_machine_run(machine, entry)
        assert profile.mnemonics["add"] == 2
        assert profile.mnemonics["mul"] == 1
        assert profile.total == 4

    def test_kind_fractions(self):
        machine, entry = _machine(
            "mul a0, a1, a2\nmulhu a3, a1, a2\nadd a4, a0, a3\nret")
        mix = instruction_mix(machine, entry)
        assert mix["mul"] == pytest.approx(0.5)

    def test_hot_pcs_in_loop(self):
        source = """
            li a0, 5
        loop:
            addi a0, a0, -1
            bnez a0, loop
            ret
        """
        machine, entry = _machine(source)
        profile = profile_machine_run(machine, entry)
        (hot_pc, executions), *_ = profile.hottest(1)
        assert executions == 5  # loop body runs 5 times

    def test_mnemonic_fraction(self):
        machine, entry = _machine("nop\nnop\nmul a0, a1, a2\nret")
        profile = profile_machine_run(machine, entry)
        assert profile.mnemonic_fraction("addi") == pytest.approx(0.5)

    def test_report_renders(self):
        machine, entry = _machine("mul a0, a1, a2\nret")
        profile = profile_machine_run(machine, entry)
        text = profile.report()
        assert "dynamic instructions: 2" in text
        assert "mul" in text

    def test_profiler_reset(self):
        profiler = Profiler(BASE_ISA)
        machine, entry = _machine("nop\nret")
        profiler.attach(machine)
        machine.run(entry)
        assert profiler.profile.total == 2
        profiler.reset()
        assert profiler.profile.total == 0

    def test_kernel_mac_fraction(self, kernels512):
        """The MAC fraction of the ISE mul should dominate: Listing 4
        is 2 of ~3 instructions per inner step."""
        from repro.kernels.runner import KernelRunner

        kernel = kernels512["int_mul.reduced.ise"]
        runner = KernelRunner(kernel)
        profiler = Profiler(kernel.isa).attach(runner.machine)
        runner.run(12345, 67890)
        fraction = profiler.profile.mnemonic_fraction(
            "madd57lu", "madd57hu")
        assert fraction > 0.5


class TestTraceHookEngine:
    """Attached trace hooks force a runner's aot requests onto the
    interpreter — the documented contract of `Machine.add_trace_hook` —
    and `machine_runs_total{engine}` reports which engine actually
    ran."""

    @pytest.fixture
    def runner(self):
        from repro.csidh.parameters import csidh_toy
        from repro.kernels.registry import cached_kernels
        from repro.kernels.runner import KernelRunner

        kernel = cached_kernels(csidh_toy().p)["fp_add.reduced.ise"]
        return KernelRunner(kernel, engine="aot")

    @staticmethod
    def _ran(runner) -> str:
        """The engine one aot request actually ran on."""
        from repro import telemetry

        with telemetry.capture(fresh=True) as cap:
            runner.run(3, 5)
        engines = cap.registry.counter("machine_runs_total")
        (ran,) = [engine for engine in ("interpreter", "aot")
                  if engines.value(engine=engine)]
        return ran

    def test_aot_runs_without_hooks(self, runner):
        assert self._ran(runner) == "aot"

    def test_attached_profiler_forces_interpreter(self, runner):
        profiler = Profiler(runner.kernel.isa).attach(runner.machine)
        assert self._ran(runner) == "interpreter"
        # the hook actually fired, once per retired instruction
        trace = runner.machine._trace_for(runner.entry)
        assert profiler.profile.total == trace.instructions_retired

    def test_detach_restores_aot(self, runner):
        profiler = Profiler(runner.kernel.isa).attach(runner.machine)
        assert self._ran(runner) == "interpreter"
        profiler.detach(runner.machine)
        assert self._ran(runner) == "aot"

    def test_trace_hook_context_manager_detaches_on_error(self, runner):
        with pytest.raises(RuntimeError):
            with runner.machine.trace_hook(lambda state, ins: None):
                raise RuntimeError("boom")
        assert self._ran(runner) == "aot"

    def test_profile_machine_run_leaves_no_hook(self):
        machine, entry = _machine("add a0, a1, a2\nadd a0, a0, a2\nret")
        profile_machine_run(machine, entry)
        assert machine._trace_hooks == []

    def test_telemetry_records_fallback_and_engine(self, runner):
        from repro import telemetry

        runner.machine.add_trace_hook(lambda state, ins: None)
        with telemetry.capture() as cap:
            runner.run(3, 5)
        demotions = cap.registry.counter("aot_demotions_total")
        assert demotions.value(reason="trace_hooks") == 1
        engines = cap.registry.counter("machine_runs_total")
        assert engines.value(engine="interpreter") == 1
        assert engines.value(engine="aot") == 0


class TestTimingModel:
    def test_base_stage_meets_50mhz(self):
        assert base_multiplier_stage().meets(TARGET_CLOCK_NS)

    def test_xmul_does_not_extend_critical_path(self):
        """The paper's Sect. 3.3 claim."""
        assert not xmul_extends_critical_path()
        base = base_multiplier_stage().nanoseconds
        assert xmul_full_radix_stage2().nanoseconds < base
        assert xmul_reduced_radix_stage2().nanoseconds < base

    def test_report_structure(self):
        report = critical_path_report()
        assert len(report) == 3
        assert all(0 < ns < TARGET_CLOCK_NS for ns in report.values())

    def test_stage_delay_math(self):
        stage = StageDelay("x", 10)
        assert stage.nanoseconds == pytest.approx(9.0)
        assert stage.meets(10.0)
        assert not stage.meets(5.0)

    def test_reduced_stage_deeper_than_full(self):
        """The barrel shifter makes the reduced-radix stage the deeper
        of the two extensions (mirrors its higher LUT count)."""
        assert xmul_reduced_radix_stage2().levels \
            >= xmul_full_radix_stage2().levels