"""Seeded, reproducible fault plans.

A :class:`FaultPlan` expands a seed into a sequence of
:class:`FaultSite` records.  Sites carry *raw* selector integers
(``step``, ``bit``, ``lane``, ``delta``) rather than resolved targets:
the injector maps them onto the concrete kernel (modulo the number of
candidate instructions, trace steps, result limbs, ...) at arm time.
This keeps the plan independent of kernel shape — the same seed names
the same abstract faults for every variant — while staying fully
deterministic, which is what makes a campaign debuggable: re-running
with the seed from a failing report reproduces the exact fault
sequence, telemetry stream and report (asserted by a Hypothesis
property in ``tests/test_fault_plan.py``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.errors import FaultError

#: Mid-kernel register bit flip, injected by an interpreter trace hook
#: (hooks force the interpreter engine, modelling a transient fault).
SITE_REGISTER_FLIP = "register_flip"
#: Mid-kernel bit flip in the result buffer in data memory.
SITE_MEMORY_FLIP = "memory_flip"
#: The static trace loses one step (instruction skip); the aot tier is
#: re-fused from the poisoned copy.  (The ``replay_*`` site names date
#: from the retired replay engine and stay for seed compatibility.)
SITE_REPLAY_SKIP = "replay_step_skip"
#: A trace step gains a register-corrupting payload (bit flip of rd).
SITE_REPLAY_CLOSURE = "replay_closure_corrupt"
#: The trace's precomputed static cycle count is altered.
SITE_REPLAY_CYCLES = "replay_cycles_corrupt"
#: The KernelRunner's result read-out is perturbed (engine-agnostic).
SITE_OUTPUT_CORRUPT = "output_corrupt"

ALL_SITES = (
    SITE_REGISTER_FLIP,
    SITE_MEMORY_FLIP,
    SITE_REPLAY_SKIP,
    SITE_REPLAY_CLOSURE,
    SITE_REPLAY_CYCLES,
    SITE_OUTPUT_CORRUPT,
)

#: Field operations a campaign drives faults through.
FAULT_OPERATIONS = ("mul", "sqr", "add", "sub")


@dataclass(frozen=True)
class FaultSite:
    """One planned fault: a site kind plus raw target selectors."""

    index: int       # trial number within the campaign
    site: str        # one of ALL_SITES
    operation: str   # one of FAULT_OPERATIONS
    step: int        # raw instruction / trace-step selector
    bit: int         # raw bit selector (mapped mod 64 / mod 8)
    lane: int        # raw register / limb / byte selector
    delta: int       # raw cycle-count perturbation (>= 1)

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "site": self.site,
            "operation": self.operation,
            "step": self.step,
            "bit": self.bit,
            "lane": self.lane,
            "delta": self.delta,
        }


@dataclass(frozen=True)
class FaultPlan:
    """A seeded generator of reproducible fault sequences."""

    seed: int
    sites: tuple[str, ...] = ALL_SITES
    operations: tuple[str, ...] = FAULT_OPERATIONS

    def __post_init__(self) -> None:
        unknown = [s for s in self.sites if s not in ALL_SITES]
        if unknown:
            raise FaultError(
                f"unknown fault site(s) {unknown}; choose from "
                f"{', '.join(ALL_SITES)}"
            )
        bad_ops = [o for o in self.operations
                   if o not in FAULT_OPERATIONS]
        if bad_ops:
            raise FaultError(
                f"unknown operation(s) {bad_ops}; choose from "
                f"{', '.join(FAULT_OPERATIONS)}"
            )
        if not self.sites:
            raise FaultError("a fault plan needs at least one site")

    def generate(self, n: int) -> tuple[FaultSite, ...]:
        """The first *n* planned faults (pure function of the seed)."""
        if n < 1:
            raise FaultError(f"need at least one fault, got {n}")
        rng = random.Random(self.seed)
        out = []
        for index in range(n):
            out.append(FaultSite(
                index=index,
                site=self.sites[rng.randrange(len(self.sites))],
                operation=self.operations[
                    rng.randrange(len(self.operations))],
                step=rng.getrandbits(16),
                bit=rng.getrandbits(8),
                lane=rng.getrandbits(16),
                delta=1 + rng.getrandbits(5),
            ))
        return tuple(out)

    def operand_rng(self) -> random.Random:
        """The campaign's operand stream (independent of site draws so
        adding a site kind does not reshuffle operands)."""
        return random.Random(self.seed ^ 0x0FA0175EED)
