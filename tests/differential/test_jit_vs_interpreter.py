"""The machine-level fused function must be architecturally and
cycle-count identical to the interpreter, for every kernel.

The aot engine has two forms (see :mod:`repro.rv64.aot`).  The entry
thunk is fused when a runner is built, persisted as an artifact and
covered by ``test_aot_vs_all.py``.  The machine-level function is fused
just in time, on the first ``Machine.run(engine="aot")`` or lean-path
runner run of an entry, keeps every load and store as a real memory
effect and is never written to disk; it is what serves runners built
for the interpreter, checked mode and fault-injected runs.  This module
covers that second form.

Each observation builds no entry thunk and runs the *same* runner (same
machine, same assembled image) twice over:

* on the runner's lean path — the interpreter versus the machine-level
  function — comparing result limbs, value, retired instructions, cycle
  counts and the complete final register file;
* on :meth:`Machine.run`, both engines from the same poisoned memory
  image, comparing retired instructions, cycles, the register file and
  every touched memory page (so a dropped or misdirected store cannot
  hide behind the other engine's write).

The golden cycle snapshot (``tests/golden_cycles.json``) is additionally
asserted against ``Machine.run`` measurements on this path.
"""

from __future__ import annotations

import itertools
import json
import random

import pytest

from repro.csidh.parameters import csidh_toy
from repro.kernels.layout import RESULT_ADDR, SCRATCH_ADDR
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

FIELD_OPERATIONS = (OP_FP_MUL, OP_FP_SQR, OP_FP_ADD, OP_FP_SUB)
FIELD_KERNELS = [
    f"{operation}.{variant}"
    for operation in FIELD_OPERATIONS
    for variant in ALL_VARIANTS
]

#: Filler planted in the result and scratch buffers before each
#: machine-path run: a store one engine skips shows up as this pattern.
_POISON = b"\xa5" * 512

_RUNNERS: dict[str, KernelRunner] = {}


def runner_for(name: str) -> KernelRunner:
    """Module-lifetime runner pool (assembly is per-kernel pure).

    Built for the interpreter, so no entry thunk exists and every aot
    request runs the machine-level function."""
    if name not in _RUNNERS:
        kernels = cached_kernels(csidh_toy().p)
        _RUNNERS[name] = KernelRunner(kernels[name],
                                      engine="interpreter")
    return _RUNNERS[name]


def _machine_run(runner: KernelRunner, values, engine: str):
    """One from-reset Machine.run over a poisoned buffer image."""
    machine = runner.machine
    machine.reset()
    machine.mem.write_bytes(RESULT_ADDR, _POISON)
    machine.mem.write_bytes(SCRATCH_ADDR, _POISON)
    runner._marshal_args(values)
    result = machine.run(runner.entry, engine=engine)
    assert result.engine == engine
    pages = {number: bytes(page)
             for number, page in machine.mem._pages.items()}
    return (result.instructions_retired, result.cycles,
            list(machine.state.regs._regs), pages)


def assert_jit_exact(runner: KernelRunner, values) -> None:
    """One differential observation: interpreter vs the machine-level
    function, on the lean runner path and on Machine.run."""
    name = runner.kernel.name
    interp = runner.run(*values, check=False, engine="interpreter")
    interp_regs = list(runner.machine.state.regs._regs)
    fused = runner.run(*values, check=False, engine="aot")
    fused_regs = list(runner.machine.state.regs._regs)

    assert fused.limbs == interp.limbs, (
        f"{name}: result limbs diverge on {values}")
    assert fused.value == interp.value
    assert fused.instructions == interp.instructions, (
        f"{name}: retired-instruction counts diverge "
        f"({fused.instructions} vs {interp.instructions})")
    assert fused.cycles == interp.cycles, (
        f"{name}: cycle counts diverge "
        f"({fused.cycles} vs {interp.cycles})")
    assert fused_regs == interp_regs, (
        f"{name}: final register state diverges on {values}")

    machine_interp = _machine_run(runner, values, "interpreter")
    machine_fused = _machine_run(runner, values, "aot")
    assert machine_fused[:2] == machine_interp[:2], (
        f"{name}: machine-level instructions/cycles diverge")
    assert machine_fused[2] == machine_interp[2], (
        f"{name}: machine-level register state diverges on {values}")
    assert machine_fused[3] == machine_interp[3], (
        f"{name}: machine-level memory image diverges on {values}")


@pytest.mark.parametrize("name", FIELD_KERNELS)
def test_field_kernels_jit_supported(name):
    """All 16 field-op kernels fuse into a machine-level function."""
    runner = runner_for(name)
    assert runner._aot_thunk is None
    assert runner.machine._aot_for(runner.entry) is not None
    assert runner.machine.aot_supported(runner.entry)


@pytest.mark.parametrize("name", FIELD_KERNELS)
def test_field_kernels_boundary_operands(name):
    """Exhaustive cartesian boundary sweep, both paths per point."""
    runner = runner_for(name)
    per_operand = boundary_operand_values(runner.kernel,
                                          clip_to_domain=False)
    for values in itertools.product(*per_operand):
        assert_jit_exact(runner, values)


@pytest.mark.parametrize("name", FIELD_KERNELS)
def test_field_kernels_random_operands(name):
    """Seeded random sweep drawn from each kernel's own sampler."""
    runner = runner_for(name)
    rng = random.Random(0x717)
    for _ in range(15):
        assert_jit_exact(runner, runner.kernel.sampler(rng))


def test_every_generated_kernel_is_jit_exact():
    """Beyond the field ops: the full kernel matrix (integer multiply,
    Montgomery reduction, ablation variants) fuses exactly."""
    rng = random.Random(0x717)
    for name in cached_kernels(csidh_toy().p):
        runner = runner_for(name)
        assert runner.machine._aot_for(runner.entry) is not None, name
        for _ in range(3):
            assert_jit_exact(runner, runner.kernel.sampler(rng))


@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_jit_histogram_identical(variant):
    """Dynamic mnemonic histograms agree for every field operation."""
    for operation in FIELD_OPERATIONS:
        runner = runner_for(f"{operation}.{variant}")
        machine = runner.machine
        machine.collect_histogram = True
        try:
            machine.reset()
            interp = machine.run(runner.entry)
            machine.reset()
            fused = machine.run(runner.entry, engine="aot")
            assert fused.engine == "aot"
            assert sum(fused.histogram.values()) \
                == fused.instructions_retired
            assert fused.histogram == interp.histogram
        finally:
            machine.collect_histogram = False


def test_jit_cycles_match_golden_snapshot():
    """Machine.run cycle counts on the fused path equal the pinned
    golden snapshot."""
    golden = json.loads(GOLDEN_PATH.read_text())["moduli"]["csidh-toy"]
    rng = random.Random(0x717)
    for name, want in golden.items():
        runner = runner_for(name)
        got = _machine_run(runner, runner.kernel.sampler(rng), "aot")[1]
        assert got == want, (
            f"{name}: fused cycles {got} != golden {want}")


def test_jit_function_is_compiled_once_and_reused():
    runner = runner_for(f"{OP_FP_ADD}.reduced.ise")
    machine = runner.machine
    rng = random.Random(2)
    runner.run(*runner.kernel.sampler(rng), check=False, engine="aot")
    fn_first = machine._aot_cache[runner.entry]
    runner.run(*runner.kernel.sampler(rng), check=False, engine="aot")
    machine.reset()
    assert machine.run(runner.entry, engine="aot").engine == "aot"
    assert machine._aot_cache[runner.entry] is fn_first


def test_batch_matches_looped_singles():
    """run_batch without an entry thunk is semantically the scalar
    loop, on both engines."""
    runner = runner_for(f"{OP_FP_SQR}.full.isa")
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
