"""Generated programs versus their assembled source.

The kernel generators build each program directly, one
:class:`~repro.rv64.isa.Instruction` per builder call, and write the
assembly text beside it; nothing parses that text on the way to a run.
The assembler stays the oracle: for every generated kernel of both
parameter sets (76 programs) assembling ``kernel.source`` must give
exactly the builder's program (instructions, labels and
``source_lines``), and the builder's static mnemonic counts must be
those of the source text.  A kernel whose source was replaced runs the
new text, never the program built for the old one.
"""

from __future__ import annotations

import dataclasses
import random
from collections import Counter

import pytest

from repro.csidh.parameters import csidh_512, csidh_toy
from repro.eval.table4 import measure_table4
from repro.kernels.registry import build_all_kernels, cached_kernels
from repro.kernels.runner import KernelRunner
from repro.rv64.assembler import Assembler, assemble
from tests.differential.generate_golden import PARAMETER_SETS

PROGRAMS = [(set_name, name)
            for set_name, factory in PARAMETER_SETS.items()
            for name in sorted(cached_kernels(factory().p))]


def _source_mnemonics(source: str) -> Counter:
    """Mnemonic of every instruction line of *source*."""
    counts: Counter = Counter()
    for line in source.splitlines():
        line = line.split("#", 1)[0].strip()
        if line and not line.endswith(":"):
            counts[line.split(None, 1)[0]] += 1
    return counts


def test_every_kernel_of_both_sets_is_covered():
    assert len(PROGRAMS) == 76


@pytest.mark.parametrize("set_name,name", PROGRAMS,
                         ids=[f"{s}/{n}" for s, n in PROGRAMS])
def test_built_program_equals_the_assembled_source(set_name, name):
    kernel = cached_kernels(PARAMETER_SETS[set_name]().p)[name]
    built = kernel.program
    assembled = assemble(kernel.source, kernel.isa)
    assert built is not None
    assert built.instructions == assembled.instructions
    assert built.labels == assembled.labels
    assert built.source_lines == assembled.source_lines
    assert _source_mnemonics(kernel.source) == kernel.static_counts


def test_measure_table4_assembles_nothing(monkeypatch):
    calls = []
    parse = Assembler.assemble

    def counting(self, source):
        calls.append(source)
        return parse(self, source)

    monkeypatch.setattr(Assembler, "assemble", counting)
    cached_kernels.cache_clear()
    try:
        table = measure_table4(csidh_512().p, verify_samples=1)
    finally:
        cached_kernels.cache_clear()
    assert len(table.cycles) == 8
    assert calls == []


def test_builds_share_no_instructions():
    """The instruction table lives for one ``build_all_kernels`` call:
    every call builds its instructions again."""
    p = csidh_toy().p
    first = build_all_kernels(p)["fp_mul.full.isa"].program
    second = build_all_kernels(p)["fp_mul.full.isa"].program
    assert first.instructions == second.instructions
    assert not {id(ins) for ins in first.instructions} & \
        {id(ins) for ins in second.instructions}


def test_a_replaced_source_runs_its_own_text():
    kernel = cached_kernels(csidh_toy().p)["fp_add.full.isa"]
    # the edit clears the result's low limb just before ``ret``
    body, ret = kernel.source.rsplit("    ret\n", 1)
    edited = dataclasses.replace(
        kernel, source=f"{body}    sd zero, 0(a0)\n    ret\n{ret}")
    assert kernel.program is not None
    assert edited.program is None
    a, b = kernel.sampler(random.Random(1))
    original = KernelRunner(kernel).run(a, b)
    run = KernelRunner(edited).run(a, b, check=False)
    assert run.instructions == original.instructions + 1
    assert run.limbs == (0,) + original.limbs[1:]
    assert run.value == original.value - original.limbs[0]
