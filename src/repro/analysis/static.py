"""Static analysis of generated kernels.

Provides the instruction-mix and dependency-structure views used in the
evaluation narrative: how many MAC-class instructions a kernel
contains, the longest register dependency chain (a lower bound on
execution time for an in-order core), and per-kind breakdowns.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from repro.kernels.spec import Kernel
from repro.rv64.assembler import assemble
from repro.rv64.isa import (
    KIND_LOAD,
    KIND_MUL,
    KIND_STORE,
    InstructionSet,
    resolve_operands,
)

#: mnemonics implementing the multiply-accumulate work
MAC_MNEMONICS = frozenset({
    "mul", "mulhu", "maddlu", "maddhu", "madd57lu", "madd57hu",
})


@dataclass(frozen=True)
class KernelProfile:
    """Static characteristics of one kernel."""

    name: str
    instructions: int
    kind_counts: dict[str, int]
    mnemonic_counts: dict[str, int]
    mac_instructions: int
    loads: int
    stores: int
    critical_path: int  # longest dependency chain in latency cycles

    @property
    def arithmetic_intensity(self) -> float:
        """MAC instructions per memory access."""
        memory = self.loads + self.stores
        return self.mac_instructions / memory if memory else 0.0


def _latency(kind: str) -> int:
    # static critical-path weights: mul-class 3, loads 2, rest 1
    if kind == KIND_MUL:
        return 3
    if kind == KIND_LOAD:
        return 2
    return 1


def profile_kernel(kernel: Kernel) -> KernelProfile:
    """Compute the static profile of *kernel*."""
    program = kernel.program
    if program is None:  # hand-written or edited source
        program = assemble(kernel.source, kernel.isa)
    return profile_program(kernel.name, program.instructions,
                           kernel.isa)


def profile_program(
    name: str, instructions, isa: InstructionSet
) -> KernelProfile:
    """Static profile of an instruction list under *isa*."""
    kinds: Counter[str] = Counter()
    mnemonics: Counter[str] = Counter()
    ready = [0] * 32  # completion time of the chain producing each reg
    critical = 0

    for ins in instructions:
        spec = isa[ins.mnemonic]
        kinds[spec.kind] += 1
        mnemonics[ins.mnemonic] += 1
        sources, dest = resolve_operands(spec, ins)
        start = 0
        for reg in sources:
            if reg and ready[reg] > start:
                start = ready[reg]
        finish = start + _latency(spec.kind)
        if dest:
            ready[dest] = finish
        if finish > critical:
            critical = finish

    mac_count = sum(mnemonics[m] for m in MAC_MNEMONICS)
    return KernelProfile(
        name=name,
        instructions=len(instructions),
        kind_counts=dict(kinds),
        mnemonic_counts=dict(mnemonics),
        mac_instructions=mac_count,
        loads=kinds.get(KIND_LOAD, 0),
        stores=kinds.get(KIND_STORE, 0),
        critical_path=critical,
    )


def compare_profiles(
    a: KernelProfile, b: KernelProfile
) -> dict[str, float]:
    """Relative change (b vs. a) of the headline static metrics."""
    def ratio(x: int, y: int) -> float:
        return y / x if x else float("inf")

    return {
        "instructions": ratio(a.instructions, b.instructions),
        "macs": ratio(a.mac_instructions, b.mac_instructions),
        "critical_path": ratio(a.critical_path, b.critical_path),
    }
