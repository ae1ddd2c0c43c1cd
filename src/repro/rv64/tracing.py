"""Execution tracing and profiling utilities for the simulator.

Complements the timing model with *observability*: dynamic instruction
histograms, per-pc hot-spot ranking, instruction-kind mixes and
formatted profile reports — the tooling one needs to reason about where
a kernel spends its instructions (e.g. what fraction of a Montgomery
multiplication is MAC work vs. carry bookkeeping, the paper's central
software argument).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.rv64.isa import InstructionSet
from repro.rv64.machine import Machine


@dataclass
class ExecutionProfile:
    """Dynamic counts gathered over one or more runs."""

    mnemonics: Counter = field(default_factory=Counter)
    kinds: Counter = field(default_factory=Counter)
    pcs: Counter = field(default_factory=Counter)
    total: int = 0

    def mnemonic_fraction(self, *names: str) -> float:
        """Fraction of dynamic instructions drawn from *names*."""
        if not self.total:
            return 0.0
        return sum(self.mnemonics[n] for n in names) / self.total

    def hottest(self, count: int = 10) -> list[tuple[int, int]]:
        """The *count* most-executed pcs as (pc, executions)."""
        return self.pcs.most_common(count)

    def report(self, *, top: int = 12) -> str:
        """Human-readable profile summary."""
        lines = [f"dynamic instructions: {self.total}"]
        lines.append("instruction kinds:")
        for kind, n in self.kinds.most_common():
            lines.append(f"  {kind:8s} {n:8d}  ({100 * n / self.total:5.1f}%)")
        lines.append(f"top {top} mnemonics:")
        for mnemonic, n in self.mnemonics.most_common(top):
            lines.append(
                f"  {mnemonic:10s} {n:8d}  ({100 * n / self.total:5.1f}%)"
            )
        return "\n".join(lines)


class Profiler:
    """Attachable machine profiler (a trace hook with aggregation)."""

    def __init__(self, isa: InstructionSet) -> None:
        self.isa = isa
        self.profile = ExecutionProfile()

    def hook(self, state, ins) -> None:
        profile = self.profile
        profile.mnemonics[ins.mnemonic] += 1
        profile.kinds[self.isa[ins.mnemonic].kind] += 1
        profile.pcs[state.pc] += 1
        profile.total += 1

    def attach(self, machine: Machine) -> "Profiler":
        """Attach to *machine*.

        Note: while attached, a :class:`~repro.kernels.runner.KernelRunner`
        on *machine* serves its aot requests through the
        **interpreter**, because a fused entry thunk has no
        per-instruction dispatch for this hook to observe; each such
        run counts ``aot_demotions_total{reason="trace_hooks"}``.
        Detach to restore the aot path.
        """
        machine.add_trace_hook(self.hook)
        return self

    def detach(self, machine: Machine) -> "Profiler":
        """Stop observing *machine* (re-enables its aot path)."""
        machine.remove_trace_hook(self.hook)
        return self

    def reset(self) -> None:
        self.profile = ExecutionProfile()


def profile_machine_run(
    machine: Machine, entry: int, **run_kwargs
) -> ExecutionProfile:
    """Run *machine* from *entry* with a profiler attached."""
    profiler = Profiler(machine.isa)
    with machine.trace_hook(profiler.hook):
        machine.run(entry, **run_kwargs)
    return profiler.profile


def instruction_mix(machine: Machine, entry: int) -> dict[str, float]:
    """Kind -> dynamic fraction for one run (convenience wrapper)."""
    profile = profile_machine_run(machine, entry)
    if not profile.total:
        return {}
    return {
        kind: count / profile.total
        for kind, count in profile.kinds.items()
    }
