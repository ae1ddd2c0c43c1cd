"""The aot entry thunk must be architecturally and cycle-count identical
to the interpreter, for every kernel, on random and adversarial operands.

The entry thunk is the aot engine's only form: a runner built with
``engine="aot"`` fuses it at construction and serves every run from
it.  Each observation runs the
*same* runner (same machine, same assembled image) through the
interpreter and through the thunk, comparing result limbs, value,
retired instructions, cycle counts and the complete final register
file.  Boundary operands (0, 1, ``p-1``, all-ones limb vectors —
including vectors *outside* the reference domain, which only a
differential oracle can exercise) target the carry chains and
conditional subtractions where the two engines could plausibly diverge.
The golden cycle snapshot (``tests/golden_cycles.json``) is additionally
asserted against aot measurements — fusing whole kernels into
straight-line Python must not move a single pinned number.

The sibling modules cover the static trace the thunk is fused from
(``test_replay_vs_interpreter.py``) and the expression IR's rewrite
rules (``test_aot_rewrites.py``).
"""

from __future__ import annotations

import itertools
import json
import random

import pytest

from repro.csidh.parameters import csidh_512, csidh_toy
from repro.kernels.registry import cached_kernels
from repro.kernels.runner import KernelRunner
from repro.kernels.spec import (
    ALL_VARIANTS,
    OP_FP_ADD,
    OP_FP_MUL,
    OP_FP_SQR,
    OP_FP_SUB,
)

from tests.differential.generate_golden import GOLDEN_PATH
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
        _RUNNERS[name] = KernelRunner(kernels[name], engine="aot")
    return _RUNNERS[name]


#: Register, ``pc`` and ``halted`` contents no kernel run leaves behind:
#: the aot run is observed over these, so a read-out that never writes
#: the register file cannot pass for one that writes the right values.
SENTINEL_REGS = [0] + [0x5E7_0000_0000 + index for index in range(1, 32)]
SENTINEL_PC = 0xBAD0
SENTINEL_HALTED = None


def _architectural_state(runner: KernelRunner) -> tuple:
    state = runner.machine.state
    return list(state.regs._regs), state.pc, state.halted


def assert_aot_exact(runner: KernelRunner, values) -> None:
    """One differential observation: interpreter vs the entry thunk.

    The aot run computes only the value; its register file, ``pc`` and
    ``halted`` appear when ``limbs`` is read.  So the aot run starts
    from sentinels, must leave them in place, and must reproduce the
    interpreter's architectural state once its limbs are read out."""
    name = runner.kernel.name
    assert runner._aot_thunk is not None, name
    interp = runner.run(*values, check=False, engine="interpreter")
    interp_state = _architectural_state(runner)
    state = runner.machine.state
    state.regs._regs[:] = SENTINEL_REGS
    state.pc = SENTINEL_PC
    state.halted = SENTINEL_HALTED
    fused = runner.run(*values, check=False, engine="aot")
    assert _architectural_state(runner) == (
        SENTINEL_REGS, SENTINEL_PC, SENTINEL_HALTED), (
        f"{name}: the value-only aot run wrote architectural state")

    assert fused.limbs == interp.limbs, (
        f"{name}: result limbs diverge on {values}")
    assert _architectural_state(runner) == interp_state, (
        f"{name}: final register state, pc or halted diverge on "
        f"{values}")
    assert fused.value == interp.value
    assert fused.instructions == interp.instructions, (
        f"{name}: retired-instruction counts diverge "
        f"({fused.instructions} vs {interp.instructions})")
    assert fused.cycles == interp.cycles, (
        f"{name}: cycle counts diverge "
        f"({fused.cycles} vs {interp.cycles})")


@pytest.mark.parametrize("name", FIELD_KERNELS)
def test_field_kernels_thunk_fused(name):
    """All 16 field-op kernels fuse into entry thunks."""
    runner = runner_for(name)
    assert runner.entry in runner.machine._aot_entry_cache
    assert runner._aot_thunk is not None


@pytest.mark.parametrize("name", FIELD_KERNELS)
def test_field_kernels_boundary_operands(name):
    """Exhaustive cartesian boundary sweep for each field kernel."""
    runner = runner_for(name)
    per_operand = boundary_operand_values(runner.kernel,
                                          clip_to_domain=False)
    for values in itertools.product(*per_operand):
        assert_aot_exact(runner, values)


@pytest.mark.parametrize("name", FIELD_KERNELS)
def test_field_kernels_random_operands(name):
    """Seeded random sweep drawn from each kernel's own sampler."""
    runner = runner_for(name)
    rng = random.Random(0xD1FF)
    for _ in range(25):
        assert_aot_exact(runner, runner.kernel.sampler(rng))


def test_every_generated_kernel_is_aot_exact():
    """Beyond the field ops: the full kernel matrix (integer multiply,
    Montgomery reduction, ablation variants) fuses exactly."""
    rng = random.Random(0x717)
    for name in cached_kernels(csidh_toy().p):
        runner = runner_for(name)
        assert runner.entry in runner.machine._aot_entry_cache, name
        assert runner._aot_thunk is not None, name
        for _ in range(5):
            assert_aot_exact(runner, runner.kernel.sampler(rng))


_WIDE_RUNNERS: dict[str, KernelRunner] = {}


def wide_runner_for(name: str) -> KernelRunner:
    """Module-lifetime pool of CSIDH-512 runners: at 512 bits every
    operand spans eight or nine limbs, so wide-word lifting fires."""
    if name not in _WIDE_RUNNERS:
        kernels = cached_kernels(csidh_512().p)
        _WIDE_RUNNERS[name] = KernelRunner(kernels[name], engine="aot")
    return _WIDE_RUNNERS[name]


#: Operands per 512-bit field kernel drawn from its sampler, and again
#: anywhere below its all-ones limb vector: which window and select the
#: lifted thunk reads depends on the data.  Other kernels draw three.
WIDE_FIELD_SAMPLES = 100


@pytest.mark.parametrize("name", sorted(cached_kernels(csidh_toy().p)))
def test_every_512_bit_kernel_is_aot_exact(name):
    """The full kernel matrix at CSIDH-512 size -- where the lift
    rewrites column, carry and borrow chains into wide integers --
    fuses exactly: value, limbs, register file and cycles, on sampled
    operands, on arbitrary limb vectors and on every combination of
    boundary operands (including all-ones vectors outside the reference
    domain)."""
    runner = wide_runner_for(name)
    assert runner._aot_thunk is not None, name
    rng = random.Random(0x512)
    count = WIDE_FIELD_SAMPLES if name in FIELD_KERNELS else 3
    radix = runner.kernel.context.radix
    tops = [radix.from_limbs([radix.mask] * limbs)
            for limbs in runner.kernel.input_limbs]
    for _ in range(count):
        assert_aot_exact(runner, runner.kernel.sampler(rng))
    for _ in range(count):
        values = tuple(rng.randint(0, top) for top in tops)
        assert runner._aot_thunk(*values) is not None, values
        assert_aot_exact(runner, values)
    per_operand = boundary_operand_values(runner.kernel,
                                          clip_to_domain=False)
    for values in itertools.product(*per_operand):
        assert_aot_exact(runner, values)


def test_aot_cycles_match_golden_snapshot():
    """aot-engine cycle counts equal the pinned golden snapshot —
    whole-kernel fusion cannot move the paper's headline numbers."""
    golden = json.loads(GOLDEN_PATH.read_text())["moduli"]["csidh-toy"]
    rng = random.Random(0x717)
    for name, want in golden.items():
        runner = runner_for(name)
        run = runner.run(*runner.kernel.sampler(rng), check=False,
                         engine="aot")
        assert run.cycles == want, (
            f"{name}: aot cycles {run.cycles} != golden {want}")


def test_aot_entry_is_compiled_once_and_reused():
    runner = runner_for(f"{OP_FP_ADD}.reduced.ise")
    machine = runner.machine
    rng = random.Random(2)
    entry_first = machine._aot_entry_cache[runner.entry]
    thunk_first = runner._aot_thunk
    runner.run(*runner.kernel.sampler(rng), check=False, engine="aot")
    runner.run(*runner.kernel.sampler(rng), check=False, engine="aot")
    assert machine._aot_entry_cache[runner.entry] is entry_first
    assert runner._aot_thunk is thunk_first


def test_batch_matches_looped_singles():
    """run_batch is semantically the scalar loop, on both engines."""
    runner = runner_for(f"{OP_FP_MUL}.reduced.ise")
    rng = random.Random(5)
    sets = [runner.kernel.sampler(rng) for _ in range(8)]
    looped = [runner.run(*v, check=False, engine="interpreter")
              for v in sets]
    for engine in ("interpreter", "aot"):
        batched = runner.run_batch(sets, check=False, engine=engine)
        assert [r.value for r in batched] == [r.value for r in looped]
        assert [r.limbs for r in batched] == [r.limbs for r in looped]
        assert [r.cycles for r in batched] == [r.cycles for r in looped]
        assert ([r.instructions for r in batched]
                == [r.instructions for r in looped])


@pytest.mark.parametrize("name", [f"{OP_FP_MUL}.full.isa",
                                  f"{OP_FP_ADD}.reduced.ise"])
def test_finished_run_reads_out_after_its_thunk_is_gone(name):
    """An aot run's limbs are a deferred read-out of the thunk that ran
    it: invalidating the trace or arming and disarming a fault swaps
    the runner's thunk (and drops it from the liveness table), yet the
    finished run still reads out the interpreter's limbs and state."""
    from repro.fault import arm_fault
    from repro.fault.plan import FaultSite

    kernel = cached_kernels(csidh_512().p)[name]
    runner = KernelRunner(kernel, engine="aot")
    rng = random.Random(0x1A2)
    sets = [kernel.sampler(rng) for _ in range(2)]
    expected = []
    for values in sets:
        interp = runner.run(*values, check=False, engine="interpreter")
        expected.append((interp.limbs, _architectural_state(runner)))
    before_disarm, before_invalidate = [
        runner.run(*values, check=False, engine="aot") for values in sets]

    site = FaultSite(index=0, site="replay_closure_corrupt",
                     operation="mul", step=5, bit=13, lane=3, delta=1)
    arm_fault(runner, site).disarm()
    assert before_disarm.limbs == expected[0][0]
    assert _architectural_state(runner) == expected[0][1]

    assert runner.machine.invalidate_trace(runner.entry)
    assert runner.entry not in runner.machine._aot_entry_cache
    assert before_invalidate.limbs == expected[1][0]
    assert _architectural_state(runner) == expected[1][1]

