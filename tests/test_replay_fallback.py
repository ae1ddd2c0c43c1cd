"""aot → interpreter demotion, exercised per refusal and demotion reason.

An aot run is a runner's fused entry thunk
(:func:`~repro.rv64.aot.compile_aot_entry`), fused from the kernel's
static trace (:func:`~repro.rv64.replay.compile_trace`).  Every reason
either stage can refuse with leaves the runner without a thunk, so its
aot requests demote to the interpreter.  This file holds the tests of
each reason:

* every :class:`~repro.rv64.replay.ReplayError` reason — the trace
  compiler refuses (``trace_rejects_total{reason=...}``), and an aot
  runner over a kernel with such a program demotes every run and is
  bit-for-bit identical to an interpreter runner (limbs, retired
  instructions, cycles); programs broken for the interpreter too
  (unmapped walk-off, step-limit blowout) fail identically on both
  requests;
* every :class:`~repro.rv64.aot.AotError` reason — the thunk compiler
  refuses (``aot_rejects_total{reason=...}``) and, where a kernel can
  carry the reason, the interpreter serves the runner's aot requests;
* every run-level demotion reason
  (:data:`repro.rv64.aot.DEMOTION_REASONS`) —
  ``aot_demotions_total{reason=...}``, the engine that actually ran,
  and exactness against the interpreter.

Guards at the end assert this file names every declared reason, so a
new reason cannot land without its test.
"""

from __future__ import annotations

import dataclasses
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
from repro.rv64.aot import AotError, compile_aot_entry
from repro.rv64.assembler import assemble
from repro.rv64.machine import Machine
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

#: The kernel the runner-level tests edit (one toy limb, no ISE).
_KERNEL = "fp_add.full.isa"


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


def _runner(edit=None, *, name: str = _KERNEL, config=ROCKET_CONFIG,
            engine: str = "aot") -> KernelRunner:
    """A runner over toy kernel *name*, its source rewritten by *edit*."""
    kernel = cached_kernels(csidh_toy().p)[name]
    if edit is not None:
        kernel = dataclasses.replace(kernel, source=edit(kernel.source))
    return KernelRunner(kernel, pipeline_config=config, engine=engine)


def _first(instruction: str):
    """Source edit: *instruction* becomes the kernel's first one."""
    return lambda source: source.replace(
        "\n", f"\n    {instruction}\n", 1)


def _assert_demotes_bit_for_bit(edit=None, *, name: str = _KERNEL,
                                config=ROCKET_CONFIG, reject: str,
                                operands=(3, 5)) -> None:
    """An aot runner over the edited kernel refuses its thunk with
    *reject*; its runs demote and match an interpreter runner's."""
    with telemetry.capture(fresh=True) as cap:
        runner = _runner(edit, name=name, config=config)
        demoted = runner.run(*operands)  # check=True: reference value
    plain = _runner(edit, name=name, config=config,
                    engine="interpreter")
    expected = plain.run(*operands)

    assert runner._aot_thunk is None
    assert (demoted.limbs, demoted.cycles, demoted.instructions) \
        == (expected.limbs, expected.cycles, expected.instructions)
    assert runner.machine.regs.snapshot() == plain.machine.regs.snapshot()
    rejects = cap.registry.counter("aot_rejects_total")
    assert rejects.value(reason=reject) == 1
    runs = cap.registry.counter("kernel_runs_total")
    assert runs.value(kernel=name, engine="interpreter") == 1
    assert runs.value(kernel=name, engine="aot") == 0
    demotions = cap.registry.counter("aot_demotions_total")
    assert demotions.value(reason="not_compilable") == 1


def _assert_fails_like_interpreter(runner: KernelRunner) -> None:
    with pytest.raises(SimulationError) as via_aot:
        runner.run(3, 5, engine="aot")
    with pytest.raises(SimulationError) as via_interp:
        runner.run(3, 5, engine="interpreter")
    assert str(via_aot.value) == str(via_interp.value)


# ---------------------------------------------------------------------------
# static-trace refusals (ReplayError)
# ---------------------------------------------------------------------------


class TestControlFlow:
    def test_rejected(self):
        _assert_trace_refused(_CONTROL_FLOW, "control_flow")

    def test_fallback_bit_for_bit(self):
        # a branch to the next instruction: a no-op for the value, but
        # not straight-line code
        _assert_demotes_bit_for_bit(_first("beq zero, zero, 4"),
                                    reject="not_replayable")


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
        _assert_demotes_bit_for_bit(_first("addi ra, ra, 0"),
                                    reject="not_replayable")


class TestCacheTiming:
    def test_rejected(self):
        _assert_trace_refused(_STRAIGHT, "cache_timing",
                              config=ROCKET_CONFIG_WITH_CACHES)

    def test_fallback_bit_for_bit(self):
        _assert_demotes_bit_for_bit(config=ROCKET_CONFIG_WITH_CACHES,
                                    reject="not_replayable")


class TestUnmapped:
    # no terminal ret: the straight-line walk falls off the image, and
    # so does the interpreter — both requests must fail identically
    SOURCE = """
        addi t0, zero, 1
        add  a0, t0, t0
    """

    def test_rejected(self):
        _assert_trace_refused(self.SOURCE, "unmapped")

    def test_fallback_fails_like_interpreter(self):
        runner = _runner(lambda source: source.rsplit("ret", 1)[0])
        assert runner._aot_thunk is None
        _assert_fails_like_interpreter(runner)


class TestStepLimit:
    SOURCE = "\n".join(["addi t0, t0, 1"] * 8) + "\nret\n"

    def test_rejected(self):
        _assert_trace_refused(self.SOURCE, "step_limit", max_steps=4)

    def test_fallback_fails_like_interpreter(self):
        runner = _runner(engine="interpreter")
        runner.machine.max_steps = 4
        assert runner.machine._trace_for(runner.entry) is None
        _assert_fails_like_interpreter(runner)


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


def _assert_entry_refused(source: str, reason: str) -> None:
    machine, entry = _machine(source)
    with pytest.raises(AotError) as excinfo:
        compile_aot_entry(machine, entry, **_entry_thunk_kwargs())
    assert excinfo.value.reason == reason
    assert excinfo.value.code == "aot"


class TestAotNotReplayable:
    """A program without a static trace refuses fusion for the same
    root cause, and the runner's aot requests demote to the
    interpreter."""

    def test_rejected(self):
        _assert_entry_refused(_CONTROL_FLOW, "not_replayable")

    def test_demotes_to_interpreter_bit_for_bit(self):
        # run-level reason "not_compilable": a refused kernel ...
        _assert_demotes_bit_for_bit(_first("beq zero, zero, 4"),
                                    reject="not_replayable")
        # ... and a runner built for the interpreter
        runner = _runner(engine="interpreter")
        assert runner._aot_thunk is None
        _assert_demotes_without_fusing(runner)


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
            _assert_entry_refused(self.SOURCE, "unsupported_op")
            _assert_demotes_bit_for_bit(name="fp_mul.full.ise",
                                        reject="unsupported_op")
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
        _assert_entry_refused(self.SOURCE, "dynamic_address")


class TestAotUnsupportedAccess:
    """Sub-word accesses (and reads outside the operand spans / const
    pool) refuse entry-thunk fusion."""

    SOURCE = """
        lb t0, 0(a0)
        sd t0, 0(a1)
        ret
    """

    def test_entry_thunk_rejected(self):
        _assert_entry_refused(self.SOURCE, "unsupported_access")


class TestAotCodegenError:
    """A broken expression template fails to fold/compile: aot refuses
    with ``codegen_error`` and the interpreter serves the run."""

    def test_rejected_and_interpreter_serves(self):
        original = aot_module._EXPRS.get("add")
        aot_module._EXPRS["add"] = ("r", "r1 = = broken(")
        try:
            _assert_entry_refused(_STRAIGHT, "codegen_error")
            _assert_demotes_bit_for_bit(reject="codegen_error")
        finally:
            aot_module._EXPRS["add"] = original


def _assert_demotes_without_fusing(runner: KernelRunner) -> None:
    """Two aot requests on *runner* demote, once per run, without a
    fusion attempt, and match an interpreter run."""
    expected = runner.run(3, 5, engine="interpreter")
    with telemetry.capture(fresh=True) as cap:
        demoted = [runner.run(3, 5, engine="aot") for _ in range(2)]
    assert {(r.limbs, r.cycles, r.instructions) for r in demoted} \
        == {(expected.limbs, expected.cycles, expected.instructions)}
    runs = cap.registry.counter("kernel_runs_total")
    assert runs.value(kernel=_KERNEL, engine="interpreter") == 2
    demotions = cap.registry.counter("aot_demotions_total")
    assert demotions.value(reason="not_compilable") == 2
    assert cap.registry.counter("aot_compiles_total").total() == 0
    assert cap.registry.counter("aot_rejects_total").total() == 0


def test_invalidated_thunk_demotes():
    """``invalidate_trace`` drops the live thunk; the runner is not
    re-fused, and its aot requests demote to the interpreter."""
    runner = _runner()
    assert runner.run(3, 5, engine="aot").cycles > 0
    runner.machine.invalidate_trace(runner.entry)
    assert runner.entry not in runner.machine._aot_entry_cache
    assert runner._aot_thunk is not None  # held, but no longer live
    _assert_demotes_without_fusing(runner)


def test_aot_rejection_is_cached_not_retried():
    """A refused runner fuses once, at construction; later aot
    requests demote without re-running the fuser."""
    with telemetry.capture(fresh=True) as cap:
        runner = _runner(_first("beq zero, zero, 4"))
        runner.run(3, 5)
        runner.run(3, 5)
    rejects = cap.registry.counter("aot_rejects_total")
    assert rejects.value(reason="not_replayable") == 1
    demotions = cap.registry.counter("aot_demotions_total")
    assert demotions.value(reason="not_compilable") == 2


class TestAotTraceHooks:
    """An attached trace hook demotes aot so the hook observes every
    retired instruction of every run."""

    def test_demotes_and_hook_fires(self):
        kernel = cached_kernels(csidh_toy().p)["fp_mul.reduced.ise"]
        runner = KernelRunner(kernel, engine="aot")
        expected = runner.run(3, 5, engine="interpreter")
        seen = []
        with runner.machine.trace_hook(
                lambda state, ins: seen.append(ins.mnemonic)):
            with telemetry.capture(fresh=True) as cap:
                # repeated demoted runs each start from a reset
                # pipeline: the cycle count never accumulates
                runs = [runner.run(3, 5) for _ in range(3)]
        assert [r.cycles for r in runs] == [expected.cycles] * 3
        assert {r.value for r in runs} == {expected.value}
        assert len(seen) == 3 * expected.instructions
        demotions = cap.registry.counter("aot_demotions_total")
        assert demotions.value(reason="trace_hooks") == 3
        engines = cap.registry.counter("machine_runs_total")
        assert engines.value(engine="interpreter") == 3
        assert engines.value(engine="aot") == 0


def test_every_declared_aot_reason_is_covered():
    """A new AotError.reason or aot demotion reason cannot land
    without its test in this file."""
    source = open(__file__, encoding="utf-8").read()
    tested = set(re.findall(r'"(not_replayable|unsupported_op|'
                            r'dynamic_address|unsupported_access|'
                            r'codegen_error|not_compilable|'
                            r'trace_hooks)"', source))
    assert tested == (set(AotError.REASONS)
                      | set(aot_module.DEMOTION_REASONS))
