"""Regenerate ``tests/golden_cycles.json``.

Run after an *intentional* change to the pipeline model or the kernel
generators::

    PYTHONPATH=src python -m tests.differential.generate_golden

The snapshot pins the static cycle count of every generated kernel for
the toy and CSIDH-512 moduli on the default Rocket-class pipeline —
the numbers behind the paper's Table 4.  Straight-line kernels have
data-independent timing, so one number per kernel is the whole story;
:func:`repro.kernels.runner.KernelRunner.static_cycles` reads it off
the static trace without executing anything.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.csidh.parameters import csidh_512, csidh_toy
from repro.kernels.registry import cached_kernels, cached_runner

GOLDEN_PATH = Path(__file__).resolve().parent.parent / "golden_cycles.json"

#: Parameter sets pinned by the snapshot (name -> modulus factory).
PARAMETER_SETS = {
    "csidh-toy": csidh_toy,
    "csidh-512": csidh_512,
}


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


def main() -> None:
    snapshot = collect_cycles()
    GOLDEN_PATH.write_text(json.dumps(snapshot, indent=2) + "\n")
    total = sum(len(v) for v in snapshot["moduli"].values())
    print(f"wrote {GOLDEN_PATH} ({total} kernels)")


if __name__ == "__main__":
    main()
