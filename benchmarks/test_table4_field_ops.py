"""E2 — Table 4 rows 1-8: cycle counts of the field-arithmetic kernels.

Each benchmark runs one kernel variant on the ISA simulator under the
Rocket timing model; the simulated cycle counts (the paper's metric)
are printed as the regenerated table.  A host-time gate holds the
assembler, which every regenerated table runs 32 times, to a bounded
multiple of the cheapest possible pass over the same text.
"""

from __future__ import annotations

import time

import pytest

from repro.eval.paperdata import PAPER_TABLE4
from repro.eval.table4 import render_table4
from repro.kernels.runner import KernelRunner
from repro.kernels.spec import ALL_VARIANTS, TABLE4_OPERATIONS
from repro.rv64.assembler import assemble
from tests.helpers import interleaved_best


@pytest.mark.parametrize("operation", TABLE4_OPERATIONS)
@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_kernel_cycles(benchmark, kernels, rng, operation, variant):
    kernel = kernels[f"{operation}.{variant}"]
    runner = KernelRunner(kernel)
    values = kernel.sampler(rng)

    run = benchmark(runner.run, *values)

    paper = PAPER_TABLE4[operation][variant]
    benchmark.extra_info["simulated_cycles"] = run.cycles
    benchmark.extra_info["paper_cycles"] = paper
    benchmark.extra_info["instructions"] = run.instructions
    # shape guard: within 2x of the paper's absolute cell
    assert 0.5 < run.cycles / paper < 2.0


def test_render_full_table4(table4):
    print("\n=== E2 / Table 4 rows 1-8: cycles per operation "
          "(ours vs. paper) ===")
    print(render_table4(table4))
    # the central reversal: ISEs make reduced radix the faster choice
    assert table4.cycles["fp_mul"]["reduced.ise"] \
        < table4.cycles["fp_mul"]["full.ise"]
    assert table4.cycles["fp_mul"]["full.isa"] \
        < table4.cycles["fp_mul"]["reduced.isa"]


#: Ceiling on assembling the 32 Table-4 kernel sources over one
#: ``splitlines()`` + ``split()`` pass over the same text.  The one-pass,
#: table-driven assembler read 5.7-11.0x over 12 runs on a shared
#: 2-vCPU x86-64 host (CPython 3.11); the two-pass assembler that
#: rebuilt its operand closures and scanned every line for comments
#: and labels read 20.4-35.5x over 10 runs, failing every one.
ASSEMBLE_OVER_SPLIT_CEILING = 15.0


def test_assembler_over_split_pass(kernels):
    """Assembling the Table-4 sources against tokenising them, best of
    7 each, alternating."""
    sources = [(kernels[f"{operation}.{variant}"].source,
                kernels[f"{operation}.{variant}"].isa)
               for operation in TABLE4_OPERATIONS
               for variant in ALL_VARIANTS]

    def assemble_all() -> float:
        start = time.perf_counter()
        for source, isa in sources:
            assemble(source, isa)
        return time.perf_counter() - start

    def split_all() -> float:
        start = time.perf_counter()
        for source, _isa in sources:
            for line in source.splitlines():
                line.split()
        return time.perf_counter() - start

    assemble_s, split_s = interleaved_best(7, assemble_all, split_all)
    ratio = assemble_s / split_s
    print(f"\n=== assemble 32 Table-4 sources: {assemble_s * 1e3:.1f} ms, "
          f"split pass {split_s * 1e3:.2f} ms ({ratio:.1f}x) ===")
    assert ratio <= ASSEMBLE_OVER_SPLIT_CEILING, ratio
