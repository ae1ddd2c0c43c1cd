"""List scheduler for straight-line kernels.

The paper's assembly is hand-optimised; the authors interleave
independent operations so the 2-stage multiplier's latency is hidden.
Our kernel *generators* emit naive sequential code, which costs some
cycles on dependency stalls.  This pass recovers the hand-scheduling:
it builds the register/memory dependency DAG of a straight-line
instruction sequence and re-orders it greedily by critical-path height,
respecting all RAW/WAR/WAW and memory-order constraints.

Used by the E10 scheduling ablation to quantify how much of our
ISA-only gap to the paper is explained by instruction scheduling alone.
Semantics preservation is guaranteed by construction (only independent
instructions commute) and re-checked in tests by running scheduled
kernels against their golden references.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.rv64.isa import (
    Instruction,
    InstructionSet,
    KIND_BRANCH,
    KIND_JUMP,
    KIND_LOAD,
    KIND_MUL,
    KIND_STORE,
    KIND_SYSTEM,
    resolve_operands,
)

_BARRIER_KINDS = frozenset({KIND_BRANCH, KIND_JUMP, KIND_SYSTEM})


@dataclass
class _Node:
    index: int
    ins: Instruction
    kind: str
    successors: list[int] = field(default_factory=list)
    predecessors: int = 0
    height: int = 0


def _latency(kind: str) -> int:
    if kind == KIND_MUL:
        return 3
    if kind == KIND_LOAD:
        return 2
    return 1


def _build_dag(
    instructions: list[Instruction], isa: InstructionSet
) -> list[_Node]:
    nodes = [
        _Node(i, ins, isa[ins.mnemonic].kind)
        for i, ins in enumerate(instructions)
    ]
    last_writer: dict[int, int] = {}
    readers: dict[int, list[int]] = {}
    last_store: int | None = None
    loads_since_store: list[int] = []
    edges: set[tuple[int, int]] = set()

    def add_edge(src: int, dst: int) -> None:
        if src != dst and (src, dst) not in edges:
            edges.add((src, dst))
            nodes[src].successors.append(dst)
            nodes[dst].predecessors += 1

    for i, ins in enumerate(instructions):
        spec = isa[ins.mnemonic]
        sources, rd = resolve_operands(spec, ins)
        for reg in sources:
            if reg and reg in last_writer:
                add_edge(last_writer[reg], i)          # RAW
        if rd:
            for reader in readers.get(rd, ()):
                add_edge(reader, i)                     # WAR
            if rd in last_writer:
                add_edge(last_writer[rd], i)            # WAW
            last_writer[rd] = i
            readers[rd] = []
        for reg in sources:
            if reg:
                readers.setdefault(reg, []).append(i)

        kind = spec.kind
        if kind == KIND_LOAD:
            if last_store is not None:
                add_edge(last_store, i)                 # load after store
            loads_since_store.append(i)
        elif kind == KIND_STORE:
            if last_store is not None:
                add_edge(last_store, i)                 # store ordering
            for load in loads_since_store:
                add_edge(load, i)                       # store after loads
            last_store = i
            loads_since_store = []
        elif kind in _BARRIER_KINDS:
            for j in range(i):                          # full barrier
                add_edge(j, i)
    return nodes


def _compute_heights(nodes: list[_Node]) -> None:
    for node in reversed(nodes):
        best = 0
        for succ in node.successors:
            if nodes[succ].height > best:
                best = nodes[succ].height
        node.height = best + _latency(node.kind)


def schedule(
    instructions: list[Instruction], isa: InstructionSet
) -> list[Instruction]:
    """Re-order a straight-line sequence to minimise in-order stalls.

    Greedy cycle-driven list scheduling: at each simulated cycle the
    ready instruction with the greatest critical-path height issues
    (tie-broken by original order, keeping the result deterministic).
    """
    if not instructions:
        return []
    nodes = _build_dag(instructions, isa)
    _compute_heights(nodes)

    indegree = [node.predecessors for node in nodes]
    earliest = [0] * len(nodes)  # operand-ready cycle
    ready = [i for i, degree in enumerate(indegree) if degree == 0]
    out: list[Instruction] = []
    cycle = 0

    while ready:
        issuable = [i for i in ready if earliest[i] <= cycle]
        if not issuable:
            cycle = min(earliest[i] for i in ready)
            continue
        issuable.sort(key=lambda i: (-nodes[i].height, i))
        chosen = issuable[0]
        ready.remove(chosen)
        out.append(nodes[chosen].ins)
        finish = cycle + _latency(nodes[chosen].kind)
        for succ in nodes[chosen].successors:
            if earliest[succ] < finish:
                earliest[succ] = finish
            indegree[succ] -= 1
            if indegree[succ] == 0:
                ready.append(succ)
        cycle += 1

    if len(out) != len(instructions):
        raise AssertionError("scheduler dropped instructions")
    return out


def schedule_source(source: str, isa: InstructionSet) -> str:
    """Schedule assembly text; returns re-ordered assembly text."""
    from repro.rv64.assembler import assemble
    from repro.rv64.disassembler import format_instruction

    program = assemble(source, isa)
    reordered = schedule(program.instructions, isa)
    return "\n".join(
        "    " + format_instruction(isa, ins) for ins in reordered
    ) + "\n"
