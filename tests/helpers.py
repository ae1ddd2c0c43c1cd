"""Test helpers: run assembly snippets; operand strategies for kernels."""

from __future__ import annotations

from repro.core.ise import EXTENDED_ISA
from repro.kernels.spec import (
    Kernel,
    OP_FAST_REDUCE,
    OP_FAST_REDUCE_ADD,
    OP_FP_ADD,
    OP_FP_MUL,
    OP_FP_SQR,
    OP_FP_SUB,
    OP_INT_MUL,
    OP_INT_MUL_OS,
    OP_INT_SQR,
    OP_MONT_REDC,
)
from repro.rv64.assembler import assemble
from repro.rv64.isa import InstructionSet
from repro.rv64.machine import ExecutionResult, Machine
from repro.rv64.pipeline import PipelineConfig, PipelineModel


def run_asm(
    source: str,
    regs: dict[str, int] | None = None,
    mem: dict[int, int] | None = None,
    *,
    isa: InstructionSet = EXTENDED_ISA,
    pipeline: PipelineConfig | None = None,
    append_ret: bool = True,
) -> Machine:
    """Assemble *source*, preload registers/memory words, run, return
    the machine (inspect ``.regs`` / ``.mem`` afterwards)."""
    if append_ret and "ret" not in source:
        source = source.rstrip("\n") + "\nret\n"
    machine = Machine(
        isa,
        pipeline=PipelineModel(pipeline) if pipeline else None,
    )
    entry = machine.load_program(assemble(source, isa))
    for name, value in (regs or {}).items():
        machine.regs[name] = value
    for address, value in (mem or {}).items():
        machine.mem.store_u64(address, value)
    machine.last_result = machine.run(entry)  # type: ignore[attr-defined]
    return machine


def result_of(machine: Machine) -> ExecutionResult:
    return machine.last_result  # type: ignore[attr-defined]


# ---------------------------------------------------------------------------
# Operand strategies for kernel-level property testing
# ---------------------------------------------------------------------------

def operand_bounds(kernel: Kernel) -> tuple[int, ...]:
    """Exclusive upper bound of each operand in *kernel*'s reference
    domain (mirrors the registry's seeded samplers)."""
    ctx = kernel.context
    p = ctx.modulus
    operation = kernel.operation
    if operation in (OP_INT_MUL, OP_INT_MUL_OS, OP_FP_ADD, OP_FP_SUB,
                     OP_FP_MUL):
        return (p, p)
    if operation in (OP_INT_SQR, OP_FP_SQR):
        return (p,)
    if operation == OP_MONT_REDC:
        # the real workload: double-width products of field elements
        return ((p - 1) * (p - 1) + 1,)
    if operation in (OP_FAST_REDUCE, OP_FAST_REDUCE_ADD):
        return (min(2 * p, 1 << ctx.radix.capacity_bits),)
    raise ValueError(f"unknown operation {operation!r}")


def boundary_operand_values(kernel: Kernel, *,
                            clip_to_domain: bool = True):
    """Per-operand boundary values: 0, 1, p-1, all-ones limb vectors.

    With ``clip_to_domain`` the all-ones vector is capped at the
    operand's reference domain so golden-reference checks stay valid;
    without it the raw vector is kept (useful for differential tests,
    which only compare two execution paths against each other).
    """
    radix = kernel.context.radix
    p = kernel.context.modulus
    per_operand = []
    for hi, limbs in zip(operand_bounds(kernel), kernel.input_limbs):
        all_ones = radix.from_limbs([radix.mask] * limbs)
        candidates = {0, 1, p - 1, all_ones}
        if clip_to_domain:
            candidates = {min(c, hi - 1) for c in candidates}
        per_operand.append(tuple(sorted(candidates)))
    return tuple(per_operand)


def kernel_operands(kernel: Kernel, *, boundary_bias: bool = True):
    """Hypothesis strategy over valid operand tuples for *kernel*.

    Draws uniformly from the operand's reference domain, with (by
    default) extra weight on the boundary values where carry chains and
    conditional subtractions earn their keep.
    """
    from hypothesis import strategies as st

    per_operand = []
    for hi, boundary in zip(operand_bounds(kernel),
                            boundary_operand_values(kernel)):
        uniform = st.integers(min_value=0, max_value=hi - 1)
        if boundary_bias:
            per_operand.append(
                st.one_of(uniform, st.sampled_from(boundary)))
        else:
            per_operand.append(uniform)
    return st.tuples(*per_operand)


def best_of(n: int, run) -> float:
    """Best (smallest) of *n* calls of the timing function *run*."""
    return min(run() for _ in range(n))


def interleaved_best(n: int, first, second) -> tuple[float, float]:
    """Best of *n* calls of each timing function, the two alternating
    call by call, so a change of host speed during the measurement
    moves both alike (a ratio of the two is the overhead gates' input;
    two separate best-of-*n* blocks let drift between the blocks move
    it)."""
    best_first = best_second = float("inf")
    for _round in range(n):
        best_first = min(best_first, first())
        best_second = min(best_second, second())
    return best_first, best_second


def assert_batch_links(root) -> tuple[list, dict]:
    """The coalescing oracle over a traced span forest.

    Every ``request`` node under *root* has a ``coalesce.wait`` child
    and at least one ``coalesced[batch=id]`` link, each link names a
    ``batch[batch=id,...]`` node under *root*, and every cycle sits on
    a ``batch`` node.  Returns the request nodes and the batch nodes
    by id.
    """
    tops = list(root.children.values())
    batches = {dict(node.labels)["batch"]: node
               for node in tops if node.name == "batch"}
    requests = [node for node in tops if node.name == "request"]
    for request in requests:
        assert ("coalesce.wait", ()) in request.children, request.label
        links = [dict(child.labels)["batch"]
                 for child in request.children.values()
                 if child.name == "coalesced"]
        assert links, f"{request.label} lost its batch link"
        assert set(links) <= set(batches), request.label
        assert request.total_cycles == 0, request.label
    assert root.total_cycles == sum(
        batch.total_cycles for batch in batches.values())
    return requests, batches
