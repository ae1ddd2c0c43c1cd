"""Regenerate ``tests/golden_cycles.json``,
``tests/golden_pipeline_stats.json`` and ``tests/golden_assembly.json``.

Run after an *intentional* change to the pipeline model or the kernel
generators::

    PYTHONPATH=src python -m tests.differential.generate_golden

The cycle snapshot pins the static cycle count of every generated
kernel for the toy and CSIDH-512 moduli on the default Rocket-class
pipeline — the numbers behind the paper's Table 4.  Straight-line
kernels have data-independent timing, so one number per kernel is the
whole story; :func:`repro.kernels.runner.KernelRunner.static_cycles`
reads it off the static trace without executing anything.

The pipeline-stats snapshot pins what the cycle total hides: one
interpreter run per kernel on seeded sample operands, under the plain
Rocket model and under the cache-enabled one, recording every
:class:`~repro.rv64.pipeline.PipelineStats` counter (instructions,
cycles, the stall split, cache-miss cycles and the per-kind issue
counts).  It is the oracle for the interpreter and timing model
themselves, whose hot path a speed-up may rewrite but whose
statistics it must not move.

The assembly snapshot pins the assembler's output for every generated
kernel: a SHA-256 digest over each program's instructions (every
field), labels and ``source_lines``.  It is the oracle for the
assembler, whose parsing a speed-up may rewrite but whose
:class:`~repro.rv64.assembler.AssembledProgram` it must not move.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

from repro.csidh.parameters import csidh_512, csidh_toy
from repro.kernels.registry import cached_kernels, cached_runner
from repro.kernels.runner import KernelRunner
from repro.rv64.assembler import assemble
from repro.rv64.pipeline import ROCKET_CONFIG, ROCKET_CONFIG_WITH_CACHES

GOLDEN_PATH = Path(__file__).resolve().parent.parent / "golden_cycles.json"
STATS_PATH = (Path(__file__).resolve().parent.parent
              / "golden_pipeline_stats.json")
ASSEMBLY_PATH = (Path(__file__).resolve().parent.parent
                 / "golden_assembly.json")

#: Parameter sets pinned by the snapshot (name -> modulus factory).
PARAMETER_SETS = {
    "csidh-toy": csidh_toy,
    "csidh-512": csidh_512,
}

#: Timing configurations pinned by the pipeline-stats snapshot.
PIPELINE_CONFIGS = {
    "rocket": ROCKET_CONFIG,
    "rocket+caches": ROCKET_CONFIG_WITH_CACHES,
}

#: PipelineStats counters recorded per run.
STATS_FIELDS = (
    "instructions", "cycles", "raw_hazard_stalls",
    "control_flush_cycles", "cache_miss_cycles", "kind_counts",
)


def collect_cycles() -> dict:
    """Current per-kernel static cycle counts, ready to serialise."""
    moduli = {}
    for set_name, factory in PARAMETER_SETS.items():
        p = factory().p
        moduli[set_name] = {
            name: cached_runner(p, name).static_cycles()
            for name in sorted(cached_kernels(p))
        }
    return {
        "_comment": (
            "Static cycle counts per generated kernel on the default "
            "Rocket-class pipeline (in-order single-issue, full "
            "forwarding, no caches).  Regenerate with: PYTHONPATH=src "
            "python -m tests.differential.generate_golden"
        ),
        "moduli": moduli,
    }


def kernel_stats(kernel, config, seed: str) -> dict:
    """PipelineStats of one fresh interpreter run of *kernel* under
    *config*, on operands drawn from ``random.Random(seed)``."""
    runner = KernelRunner(kernel, pipeline_config=config)
    runner.run(*kernel.sampler(random.Random(seed)))
    stats = runner.machine.pipeline.stats
    out = {name: getattr(stats, name) for name in STATS_FIELDS}
    out["kind_counts"] = dict(sorted(stats.kind_counts.items()))
    return out


def collect_stats() -> dict:
    """Current per-kernel pipeline statistics, ready to serialise."""
    moduli = {}
    for set_name, factory in PARAMETER_SETS.items():
        kernels = cached_kernels(factory().p)
        moduli[set_name] = {
            config_name: {
                name: kernel_stats(kernels[name], config,
                                   f"{set_name}/{name}")
                for name in sorted(kernels)
            }
            for config_name, config in PIPELINE_CONFIGS.items()
        }
    return {
        "_comment": (
            "PipelineStats of one interpreter run per generated kernel "
            "on seeded sample operands (seed '<set>/<kernel>'), under "
            "the Rocket-class model without and with caches.  "
            "Regenerate with: PYTHONPATH=src python -m "
            "tests.differential.generate_golden"
        ),
        "moduli": moduli,
    }


def program_digest(program) -> str:
    """SHA-256 over every instruction field, the labels (in definition
    order) and the source lines of an assembled program."""
    payload = json.dumps([
        [[ins.mnemonic, ins.rd, ins.rs1, ins.rs2, ins.rs3, ins.imm]
         for ins in program.instructions],
        list(program.labels.items()),
        program.source_lines,
    ], separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


def collect_assembly() -> dict:
    """Current per-kernel assembly digests, ready to serialise."""
    moduli = {}
    for set_name, factory in PARAMETER_SETS.items():
        kernels = cached_kernels(factory().p)
        moduli[set_name] = {}
        for name in sorted(kernels):
            program = assemble(kernels[name].source, kernels[name].isa)
            moduli[set_name][name] = {
                "instructions": len(program),
                "sha256": program_digest(program),
            }
    return {
        "_comment": (
            "SHA-256 of each generated kernel's assembled program "
            "(instruction fields, labels, source lines).  Regenerate "
            "with: PYTHONPATH=src python -m "
            "tests.differential.generate_golden"
        ),
        "moduli": moduli,
    }


def main() -> None:
    snapshot = collect_cycles()
    GOLDEN_PATH.write_text(json.dumps(snapshot, indent=2) + "\n")
    total = sum(len(v) for v in snapshot["moduli"].values())
    print(f"wrote {GOLDEN_PATH} ({total} kernels)")
    stats = collect_stats()
    STATS_PATH.write_text(json.dumps(stats, indent=2) + "\n")
    runs = sum(len(kernels) for configs in stats["moduli"].values()
               for kernels in configs.values())
    print(f"wrote {STATS_PATH} ({runs} runs)")
    assembly = collect_assembly()
    ASSEMBLY_PATH.write_text(json.dumps(assembly, indent=2) + "\n")
    programs = sum(len(v) for v in assembly["moduli"].values())
    print(f"wrote {ASSEMBLY_PATH} ({programs} programs)")


if __name__ == "__main__":
    main()
