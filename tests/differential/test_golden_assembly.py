"""Golden assembly regression: pin the assembler's output per kernel.

For every generated kernel of both parameter sets (76 programs) this
test assembles the source again and diffs a SHA-256 digest of the
result (every instruction field, the labels and ``source_lines``)
against ``tests/golden_assembly.json``.  The cycle and pipeline-stats
snapshots would catch most assembler drift only through its effect on
timing; this one catches any change to the
:class:`~repro.rv64.assembler.AssembledProgram` itself, including the
diagnostics text.  Regenerate after intentional changes with::

    PYTHONPATH=src python -m tests.differential.generate_golden
"""

from __future__ import annotations

import json

from repro.csidh.parameters import csidh_512
from repro.kernels.registry import cached_kernels
from tests.differential.generate_golden import (
    ASSEMBLY_PATH,
    PARAMETER_SETS,
    collect_assembly,
)


def test_snapshot_covers_every_kernel_of_every_set():
    golden = json.loads(ASSEMBLY_PATH.read_text())["moduli"]
    assert set(golden) == set(PARAMETER_SETS)
    names = set(cached_kernels(csidh_512().p))
    assert len(names) == 38
    for set_name, programs in golden.items():
        assert set(programs) == names, set_name
        assert all(entry["instructions"] > 0
                   for entry in programs.values()), set_name


def test_assembled_programs_match_golden_snapshot():
    golden = json.loads(ASSEMBLY_PATH.read_text())["moduli"]
    current = collect_assembly()["moduli"]

    lines = []
    for set_name in sorted(set(golden) | set(current)):
        want = golden.get(set_name, {})
        got = current.get(set_name, {})
        for kernel in sorted(set(want) | set(got)):
            if want.get(kernel) != got.get(kernel):
                lines.append(f"  {set_name}/{kernel}: "
                             f"{want.get(kernel)} -> {got.get(kernel)}")

    assert not lines, (
        "assembled programs drifted from tests/golden_assembly.json "
        "(regenerate via python -m tests.differential.generate_golden "
        "if intentional):\n" + "\n".join(lines))
