"""aot → interpreter demotion, exercised per refusal and demotion reason.

The aot engine fuses a kernel's static trace
(:func:`~repro.rv64.replay.compile_trace`) into one Python function, so
every reason either stage can refuse with is a reason an aot request
demotes to the interpreter.  This file holds the tests of each reason:

* every :class:`~repro.rv64.replay.ReplayError` reason — the trace
  compiler refuses (``trace_rejects_total{reason=...}``) and an aot run
  of the program demotes and is bit-for-bit identical to a plain
  interpreter run (registers, retired instructions, cycles, histogram);
  programs broken for the interpreter too (unmapped walk-off, step-limit
  blowout) fail identically on both paths;
* every :class:`~repro.rv64.aot.AotError` reason — the fuser refuses
  (``aot_rejects_total{reason=...}``) and, where the program runs, the
  interpreter serves it;
* every run-level demotion reason
  (:data:`repro.rv64.aot.DEMOTION_REASONS`) —
  ``aot_demotions_total{reason=...}``, the engine that actually ran,
  and exactness against the interpreter.

Guards at the end assert this file names every declared reason, so a
new reason cannot land without its test.
"""

from __future__ import annotations

import re

import pytest

from repro import telemetry
from repro.core.ise import EXTENDED_ISA
from repro.csidh.parameters import csidh_toy
from repro.errors import SimulationError
from repro.kernels.registry import cached_kernels
from repro.kernels.runner import KernelRunner
from repro.mpi.representation import Radix
from repro.rv64 import aot as aot_module
from repro.rv64.aot import AotError, compile_aot, compile_aot_entry
from repro.rv64.assembler import assemble
from repro.rv64.machine import HALT_ADDRESS, Machine
from repro.rv64.pipeline import (
    PipelineModel,
    ROCKET_CONFIG,
    ROCKET_CONFIG_WITH_CACHES,
)
from repro.rv64.replay import ReplayError, compile_trace

_STRAIGHT = """
    addi t0, zero, 41
    addi t1, zero, 1
    add  a0, t0, t1
    ret
"""

_CONTROL_FLOW = """
    addi t0, zero, 5
    beq  zero, zero, 8
    addi t0, zero, 99
    addi a0, t0, 1
    ret
"""


def _machine(source: str, *, config=ROCKET_CONFIG,
             max_steps: int | None = None) -> tuple[Machine, int]:
    machine = Machine(EXTENDED_ISA, pipeline=PipelineModel(config))
    if max_steps is not None:
        machine.max_steps = max_steps
    entry = machine.load_program(assemble(source, EXTENDED_ISA))
    return machine, entry


def _assert_trace_refused(source: str, reason: str, **kwargs) -> None:
    machine, entry = _machine(source, **kwargs)
    with pytest.raises(ReplayError) as excinfo:
        compile_trace(machine, entry)
    assert excinfo.value.reason == reason


def _assert_demotes_bit_for_bit(source: str, **kwargs) -> Machine:
    """run(engine="aot") demotes and matches a plain interpreter run;
    returns the demoted machine for program-specific checks."""
    with telemetry.capture(fresh=True) as cap:
        machine, entry = _machine(source, **kwargs)
        machine.collect_histogram = True
        result = machine.run(entry, engine="aot")
    plain, entry2 = _machine(source, **kwargs)
    plain.collect_histogram = True
    expected = plain.run(entry2)

    assert result.engine == "interpreter"
    assert result.instructions_retired == expected.instructions_retired
    assert result.cycles == expected.cycles
    assert result.histogram == expected.histogram
    assert machine.regs.snapshot() == plain.regs.snapshot()
    demotions = cap.registry.counter("aot_demotions_total")
    assert demotions.value(reason="not_compilable") == 1
    return machine


def _assert_fails_like_interpreter(source: str, **kwargs) -> None:
    machine, entry = _machine(source, **kwargs)
    with pytest.raises(SimulationError) as via_aot:
        machine.run(entry, engine="aot")
    other, entry2 = _machine(source, **kwargs)
    with pytest.raises(SimulationError) as via_interp:
        other.run(entry2)
    assert str(via_aot.value) == str(via_interp.value)


# ---------------------------------------------------------------------------
# static-trace refusals (ReplayError)
# ---------------------------------------------------------------------------


class TestControlFlow:
    def test_rejected(self):
        _assert_trace_refused(_CONTROL_FLOW, "control_flow")

    def test_fallback_bit_for_bit(self):
        machine = _assert_demotes_bit_for_bit(_CONTROL_FLOW)
        assert machine.regs["a0"] == 6  # the branch was honoured


class TestRaWrite:
    # writes ra with its own (unchanged) value: harmless to execute,
    # but the compiler cannot prove the final ret still halts
    SOURCE = """
        addi t0, zero, 7
        addi ra, ra, 0
        addi a0, t0, 3
        ret
    """

    def test_rejected(self):
        _assert_trace_refused(self.SOURCE, "ra_write")

    def test_fallback_bit_for_bit(self):
        machine = _assert_demotes_bit_for_bit(self.SOURCE)
        assert machine.regs["a0"] == 10


class TestCacheTiming:
    def test_rejected(self):
        _assert_trace_refused(_STRAIGHT, "cache_timing",
                              config=ROCKET_CONFIG_WITH_CACHES)

    def test_fallback_bit_for_bit(self):
        machine = _assert_demotes_bit_for_bit(
            _STRAIGHT, config=ROCKET_CONFIG_WITH_CACHES)
        assert machine.regs["a0"] == 42


class TestUnmapped:
    # no terminal ret: the straight-line walk falls off the image, and
    # so does the interpreter — both paths must fail identically
    SOURCE = """
        addi t0, zero, 1
        add  a0, t0, t0
    """

    def test_rejected(self):
        _assert_trace_refused(self.SOURCE, "unmapped")

    def test_fallback_fails_like_interpreter(self):
        _assert_fails_like_interpreter(self.SOURCE)


class TestStepLimit:
    SOURCE = "\n".join(["addi t0, t0, 1"] * 8) + "\nret\n"

    def test_rejected(self):
        _assert_trace_refused(self.SOURCE, "step_limit", max_steps=4)

    def test_fallback_fails_like_interpreter(self):
        _assert_fails_like_interpreter(self.SOURCE, max_steps=4)


def test_every_declared_reason_is_covered():
    """A new ReplayError.reason cannot land without its test."""
    source = open(__file__, encoding="utf-8").read()
    tested = set(re.findall(r'"(control_flow|ra_write|cache_timing|'
                            r'unmapped|step_limit)"', source))
    assert tested == set(ReplayError.REASONS)


# ---------------------------------------------------------------------------
# fusion refusals (AotError) and run-level demotions
# ---------------------------------------------------------------------------


def _entry_thunk_kwargs():
    """Minimal one-operand entry-thunk shape for refusal tests."""
    return dict(
        arg_plan=((0x10000, 1, 10),),  # one limb at 0x10000 in a0
        result_reg=11,                 # result pointer in a1
        result_addr=0x10200,
        out_limbs=1,
        radix=Radix(64, 1),
        const_window=(0, 0),
    )


def _assert_refused_and_interpreter_serves(source: str, reason: str,
                                           a0: int) -> None:
    machine, entry = _machine(source)
    with pytest.raises(AotError) as excinfo:
        compile_aot(machine, entry)
    assert excinfo.value.reason == reason
    assert excinfo.value.code == "aot"

    with telemetry.capture(fresh=True) as cap:
        machine2, entry2 = _machine(source)
        result = machine2.run(entry2, engine="aot")
    assert result.engine == "interpreter"
    assert machine2.regs["a0"] == a0
    rejects = cap.registry.counter("aot_rejects_total")
    assert rejects.value(reason=reason) == 1
    demotions = cap.registry.counter("aot_demotions_total")
    assert demotions.value(reason="not_compilable") == 1


class TestAotNotReplayable:
    """A program without a static trace refuses fusion for the same
    root cause, and an aot request demotes to the interpreter."""

    def test_rejected(self):
        _assert_refused_and_interpreter_serves(
            _CONTROL_FLOW, "not_replayable", a0=6)

    def test_demotes_to_interpreter_bit_for_bit(self):
        # run-level reason "not_compilable", on the runner path too
        _assert_demotes_bit_for_bit(_CONTROL_FLOW)
        kernel = cached_kernels(csidh_toy().p)["fp_add.full.isa"]
        runner = KernelRunner(kernel, engine="aot")
        runner.machine._aot_entry_cache.clear()
        runner._aot_thunk = None
        runner.machine._aot_rejected.add(runner.entry)
        with telemetry.capture(fresh=True) as cap:
            demoted = runner.run(3, 5)
        expected = runner.run(3, 5, engine="interpreter")
        assert (demoted.limbs, demoted.cycles, demoted.instructions) \
            == (expected.limbs, expected.cycles, expected.instructions)
        runs = cap.registry.counter("kernel_runs_total")
        assert runs.value(kernel=kernel.name, engine="interpreter") == 1
        demotions = cap.registry.counter("aot_demotions_total")
        assert demotions.value(reason="not_compilable") == 1


class TestAotUnsupportedOp:
    """A mnemonic with no registered expression and no extractable
    R/I-format lambda refuses fusion."""

    SOURCE = """
        addi t0, zero, 3
        addi t1, zero, 4
        addi t2, zero, 5
        maddlu a0, t0, t1, t2
        ret
    """

    def test_rejected_and_interpreter_serves(self):
        original = aot_module._EXPRS.pop("maddlu")
        try:
            _assert_refused_and_interpreter_serves(
                self.SOURCE, "unsupported_op", a0=3 * 4 + 5)
        finally:
            aot_module._EXPRS["maddlu"] = original


class TestAotDynamicAddress:
    """A load whose address depends on loaded data cannot be fused
    into a static entry thunk."""

    SOURCE = """
        ld t0, 0(a0)
        ld t1, 0(t0)
        sd t1, 0(a1)
        ret
    """

    def test_entry_thunk_rejected(self):
        machine, entry = _machine(self.SOURCE)
        with pytest.raises(AotError) as excinfo:
            compile_aot_entry(machine, entry, **_entry_thunk_kwargs())
        assert excinfo.value.reason == "dynamic_address"


class TestAotUnsupportedAccess:
    """Sub-word accesses (and reads outside the operand spans / const
    pool) refuse entry-thunk fusion."""

    SOURCE = """
        lb t0, 0(a0)
        sd t0, 0(a1)
        ret
    """

    def test_entry_thunk_rejected(self):
        machine, entry = _machine(self.SOURCE)
        with pytest.raises(AotError) as excinfo:
            compile_aot_entry(machine, entry, **_entry_thunk_kwargs())
        assert excinfo.value.reason == "unsupported_access"


class TestAotCodegenError:
    """A broken expression template fails to fold/compile: aot refuses
    with ``codegen_error`` and the interpreter serves the run."""

    def test_rejected_and_interpreter_serves(self):
        original = aot_module._EXPRS.get("addi")
        aot_module._EXPRS["addi"] = ("i", "r1 = = broken(")
        try:
            _assert_refused_and_interpreter_serves(
                _STRAIGHT, "codegen_error", a0=42)
        finally:
            aot_module._EXPRS["addi"] = original


class TestAotTraceHooks:
    """An attached trace hook demotes aot so the hook observes every
    retired instruction — on the machine and on the runner path."""

    def test_demotes_and_hook_fires(self):
        machine, entry = _machine(_STRAIGHT)
        seen = []
        machine.add_trace_hook(lambda state, ins: seen.append(
            ins.mnemonic))
        with telemetry.capture(fresh=True) as cap:
            result = machine.run(entry, engine="aot")
        assert result.engine == "interpreter"
        assert len(seen) == result.instructions_retired
        demotions = cap.registry.counter("aot_demotions_total")
        assert demotions.value(reason="trace_hooks") == 1
        assert machine.regs["a0"] == 42

        kernel = cached_kernels(csidh_toy().p)["fp_mul.reduced.ise"]
        runner = KernelRunner(kernel, engine="aot")
        expected = runner.run(3, 5, engine="interpreter")
        with runner.machine.trace_hook(lambda state, ins: None):
            with telemetry.capture(fresh=True) as cap:
                # repeated demoted runs each start from a reset
                # pipeline: the cycle count never accumulates
                runs = [runner.run(3, 5) for _ in range(3)]
        assert [r.cycles for r in runs] == [expected.cycles] * 3
        assert {r.value for r in runs} == {expected.value}
        demotions = cap.registry.counter("aot_demotions_total")
        assert demotions.value(reason="trace_hooks") == 3


class TestAotNoSetupReturn:
    """``setup_return=False`` means the caller owns ra/sp; the fused
    function bakes the from-reset contract in and must demote."""

    def test_demotes_and_matches_interpreter(self):
        machine, entry = _machine(_STRAIGHT)
        machine.state.regs.write("ra", HALT_ADDRESS)
        with telemetry.capture(fresh=True) as cap:
            result = machine.run(entry, setup_return=False,
                                 engine="aot")
        plain, entry2 = _machine(_STRAIGHT)
        plain.state.regs.write("ra", HALT_ADDRESS)
        expected = plain.run(entry2, setup_return=False)

        assert result.engine == "interpreter"
        assert result.cycles == expected.cycles
        assert machine.regs.snapshot() == plain.regs.snapshot()
        demotions = cap.registry.counter("aot_demotions_total")
        assert demotions.value(reason="no_setup_return") == 1


def test_aot_rejection_is_cached_not_retried():
    """A refused entry is remembered; later aot requests demote
    without re-running the fuser."""
    with telemetry.capture(fresh=True) as cap:
        machine, entry = _machine(_CONTROL_FLOW)
        machine.run(entry, engine="aot")
        machine.run(entry, engine="aot")
        rejects = cap.registry.counter("aot_rejects_total")
        assert rejects.value(reason="not_replayable") == 1
        demotions = cap.registry.counter("aot_demotions_total")
        assert demotions.value(reason="not_compilable") == 2


def test_every_declared_aot_reason_is_covered():
    """A new AotError.reason or aot demotion reason cannot land
    without its test in this file."""
    source = open(__file__, encoding="utf-8").read()
    tested = set(re.findall(r'"(not_replayable|unsupported_op|'
                            r'dynamic_address|unsupported_access|'
                            r'codegen_error|not_compilable|'
                            r'trace_hooks|no_setup_return)"', source))
    assert tested == (set(AotError.REASONS)
                      | set(aot_module.DEMOTION_REASONS))
