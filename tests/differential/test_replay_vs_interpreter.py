"""The static trace must agree with the interpreter, for every kernel, on
random and adversarial operands.

:func:`~repro.rv64.replay.compile_trace` is the front end of the aot
engine: it walks a kernel once, statically, and fixes its retired
instruction count, its from-reset cycle cost, its exit pc and the
sequence of instructions the fuser executes symbolically.  All of that
is only exact if the kernel really is straight-line code with
data-independent timing, so each observation here runs the interpreter
on one operand set, records every retired instruction through a trace
hook, and compares the dynamic run with the static trace: the pcs of the
architecturally effective steps, retired instructions, cycles and the pc
the run stops at.  Boundary operands (0, 1, ``p-1``, all-ones limb
vectors — including vectors *outside* the reference domain) target the
carry chains and conditional subtractions where a data-dependent path
would show.

The module also covers trace caching and the cache-enabled timing
configuration, for which no static trace exists and an aot runner
transparently interprets.
"""

from __future__ import annotations

import itertools
import random

import pytest

from repro import telemetry
from repro.csidh.parameters import csidh_toy
from repro.kernels.registry import cached_kernels
from repro.kernels.runner import KernelRunner
from repro.kernels.spec import (
    ALL_VARIANTS,
    OP_FP_ADD,
    OP_FP_MUL,
    OP_FP_SQR,
    OP_FP_SUB,
)
from repro.rv64.pipeline import ROCKET_CONFIG_WITH_CACHES

from tests.helpers import boundary_operand_values

#: The four field operations x four variants = the 16 combinations the
#: simulated field context dispatches to.
FIELD_OPERATIONS = (OP_FP_MUL, OP_FP_SQR, OP_FP_ADD, OP_FP_SUB)
FIELD_KERNELS = [
    f"{operation}.{variant}"
    for operation in FIELD_OPERATIONS
    for variant in ALL_VARIANTS
]

_RUNNERS: dict[str, KernelRunner] = {}


def runner_for(name: str) -> KernelRunner:
    """Module-lifetime runner pool (assembly is per-kernel pure)."""
    if name not in _RUNNERS:
        kernels = cached_kernels(csidh_toy().p)
        _RUNNERS[name] = KernelRunner(kernels[name],
                                      engine="interpreter")
    return _RUNNERS[name]


def assert_replay_exact(runner: KernelRunner, values) -> None:
    """One differential observation: interpreter vs static trace."""
    machine = runner.machine
    trace = machine._trace_for(runner.entry)
    assert trace is not None
    retired = []
    with machine.trace_hook(
            lambda state, ins: retired.append((state.pc, ins))):
        run = runner.run(*values, check=False, engine="interpreter")

    name = runner.kernel.name
    assert run.instructions == trace.instructions_retired, (
        f"{name}: retired-instruction counts diverge "
        f"({run.instructions} vs {trace.instructions_retired})")
    assert run.cycles == trace.cycles, (
        f"{name}: cycle counts diverge ({run.cycles} vs {trace.cycles})")
    assert len(retired) == run.instructions
    effective = {pc for pc, _ins, _spec in trace.step_instructions}
    assert [pc for pc, _ins in retired if pc in effective] \
        == [pc for pc, _ins, _spec in trace.step_instructions], (
        f"{name}: dynamic path leaves the static trace on {values}")
    assert machine.state.pc == trace.exit_pc
    assert machine.state.halted == trace.halts


@pytest.mark.parametrize("name", FIELD_KERNELS)
def test_field_kernels_replay_supported(name):
    """All 16 field-op kernels compile to static traces."""
    runner = runner_for(name)
    trace = runner.machine._trace_for(runner.entry)
    assert trace is not None
    assert trace.cycles is not None
    assert 0 < len(trace.step_instructions) < trace.instructions_retired


@pytest.mark.parametrize("name", FIELD_KERNELS)
def test_field_kernels_boundary_operands(name):
    """Exhaustive cartesian boundary sweep for each field kernel."""
    runner = runner_for(name)
    per_operand = boundary_operand_values(runner.kernel,
                                          clip_to_domain=False)
    for values in itertools.product(*per_operand):
        assert_replay_exact(runner, values)


@pytest.mark.parametrize("name", FIELD_KERNELS)
def test_field_kernels_random_operands(name):
    """Seeded random sweep drawn from each kernel's own sampler."""
    runner = runner_for(name)
    rng = random.Random(0xD1FF)
    for _ in range(25):
        assert_replay_exact(runner, runner.kernel.sampler(rng))


def test_every_generated_kernel_is_replay_exact():
    """Beyond the field ops: the full kernel matrix (integer multiply,
    Montgomery reduction, ablation variants) traces exactly."""
    rng = random.Random(0xD1FF)
    for name in cached_kernels(csidh_toy().p):
        runner = runner_for(name)
        assert runner.machine._trace_for(runner.entry) is not None, name
        for _ in range(5):
            assert_replay_exact(runner, runner.kernel.sampler(rng))


def test_trace_is_compiled_once_and_reused():
    runner = runner_for(f"{OP_FP_ADD}.reduced.ise")
    machine = runner.machine
    trace_first = machine._trace_for(runner.entry)
    with telemetry.capture(fresh=True) as cap:
        for _ in range(2):
            assert machine._trace_for(runner.entry) is trace_first
    assert machine._trace_cache[runner.entry] is trace_first
    assert cap.registry.counter("trace_compiles_total").total() == 0


def test_cache_enabled_timing_falls_back_to_interpreter():
    """Cache miss patterns are history-dependent, so no static trace
    exists and the aot runner transparently interprets — results stay
    verified."""
    kernels = cached_kernels(csidh_toy().p)
    runner = KernelRunner(
        kernels[f"{OP_FP_MUL}.reduced.ise"],
        pipeline_config=ROCKET_CONFIG_WITH_CACHES,
        engine="aot",
    )
    assert runner.machine._trace_for(runner.entry) is None
    assert runner._aot_thunk is None
    assert runner.entry not in runner.machine._aot_entry_cache
    rng = random.Random(3)
    with telemetry.capture(fresh=True) as cap:
        run = runner.run(*runner.kernel.sampler(rng))  # check=True
    assert run.cycles > 0
    runs = cap.registry.counter("machine_runs_total")
    assert runs.value(engine="interpreter") == 1
