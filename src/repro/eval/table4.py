"""Regeneration of Table 4: per-operation cycle counts, four variants.

Every cell is produced by generating the corresponding kernel (its
program is built directly, not parsed from its text), executing it on
the RV64 simulator under the Rocket timing model, and reading off the
cycle count.  The kernels are straight-line constant-
time code, so the count is input-independent; a verification pass with
random operands guards the functional result anyway.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro import telemetry
from repro.eval.paperdata import PAPER_TABLE4, TABLE4_ROW_LABELS
from repro.field.counters import OpCosts
from repro.kernels.registry import cached_kernels
from repro.kernels.runner import KernelRunner
from repro.kernels.spec import ALL_VARIANTS, TABLE4_OPERATIONS
from repro.rv64.pipeline import PipelineConfig, ROCKET_CONFIG


@dataclass
class Table4:
    """Measured cycles: ``cycles[operation][variant]``."""

    modulus: int
    cycles: dict[str, dict[str, int]] = field(default_factory=dict)

    def row(self, operation: str) -> dict[str, int]:
        return self.cycles[operation]

    def op_costs(self, variant: str) -> OpCosts:
        """Field-operation costs of one variant (feeds the group-action
        composition)."""
        return OpCosts(
            fp_mul=self.cycles["fp_mul"][variant],
            fp_sqr=self.cycles["fp_sqr"][variant],
            fp_add=self.cycles["fp_add"][variant],
            fp_sub=self.cycles["fp_sub"][variant],
            label=variant,
        )


def measure_table4(
    modulus: int,
    *,
    pipeline_config: PipelineConfig = ROCKET_CONFIG,
    verify_samples: int = 1,
    seed: int = 2024,
    engine: str = "interpreter",
) -> Table4:
    """Measure every Table 4 cell on the simulator.

    *engine* selects the execution engine.  The verification samples
    go through :meth:`KernelRunner.run_batch`; the cycle counts are
    engine-independent either way (the differential suite proves
    it)."""
    kernels = cached_kernels(modulus)
    rng = random.Random(seed)
    table = Table4(modulus=modulus)
    with telemetry.span("table4"):
        for operation in TABLE4_OPERATIONS:
            row: dict[str, int] = {}
            for variant in ALL_VARIANTS:
                kernel = kernels[f"{operation}.{variant}"]
                runner = KernelRunner(
                    kernel, pipeline_config=pipeline_config,
                    engine=engine)
                with telemetry.span("measure", operation=operation,
                                    variant=variant):
                    samples = [kernel.sampler(rng)
                               for _ in range(max(verify_samples, 1))]
                    runs = runner.run_batch(samples)
                    cycles = runs[-1].cycles
                row[variant] = cycles
            table.cycles[operation] = row
    return table


def render_table4(table: Table4, *, include_paper: bool = True) -> str:
    """Plain-text rendering mirroring the paper's row/column layout."""
    header = (
        f"{'Operation':26s}"
        f"{'full/ISA':>10s}{'full/ISE':>10s}"
        f"{'red/ISA':>10s}{'red/ISE':>10s}"
    )
    lines = [header, "-" * len(header)]
    for operation in TABLE4_OPERATIONS:
        label = TABLE4_ROW_LABELS[operation]
        row = table.cycles[operation]
        cells = "".join(f"{row[v]:>10d}" for v in ALL_VARIANTS)
        lines.append(f"{label:26s}{cells}")
        if include_paper:
            paper = PAPER_TABLE4[operation]
            cells = "".join(f"{paper[v]:>10d}" for v in ALL_VARIANTS)
            lines.append(f"{'  (paper)':26s}{cells}")
    return "\n".join(lines)
