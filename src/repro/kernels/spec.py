"""Kernel descriptors: program and source + metadata + reference semantics.

A :class:`Kernel` couples one generated assembly routine with everything
needed to execute and verify it: the instruction set it requires, the
field context, the operand shapes, a golden-reference function, and a
seeded input sampler for randomised testing.

A generated kernel carries the program its generator built next to its
assembly text (:attr:`Kernel.built`), so running or profiling it parses
no text.  :attr:`Kernel.program` hands that program out only while
``source`` is still the text it was built with: a kernel whose source
was replaced (``dataclasses.replace(kernel, source=...)``) or that was
written by hand has no program, and its callers assemble ``source``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Callable

from repro.mpi.montgomery import MontgomeryContext
from repro.rv64.assembler import AssembledProgram
from repro.rv64.isa import InstructionSet

#: operation identifiers, in Table 4 row order
OP_INT_MUL = "int_mul"
OP_INT_SQR = "int_sqr"
OP_MONT_REDC = "mont_redc"
OP_FAST_REDUCE = "fast_reduce"
OP_FP_ADD = "fp_add"
OP_FP_SUB = "fp_sub"
OP_FP_MUL = "fp_mul"
OP_FP_SQR = "fp_sqr"
#: ablation-only variant (Algorithm 1 select instead of Algorithm 2)
OP_FAST_REDUCE_ADD = "fast_reduce_add"
#: ablation-only variant (row-wise instead of column-wise multiply)
OP_INT_MUL_OS = "int_mul_os"

TABLE4_OPERATIONS = (
    OP_INT_MUL,
    OP_INT_SQR,
    OP_MONT_REDC,
    OP_FAST_REDUCE,
    OP_FP_ADD,
    OP_FP_SUB,
    OP_FP_MUL,
    OP_FP_SQR,
)

VARIANT_FULL_ISA = "full.isa"
VARIANT_FULL_ISE = "full.ise"
VARIANT_REDUCED_ISA = "reduced.isa"
VARIANT_REDUCED_ISE = "reduced.ise"

ALL_VARIANTS = (
    VARIANT_FULL_ISA,
    VARIANT_FULL_ISE,
    VARIANT_REDUCED_ISA,
    VARIANT_REDUCED_ISE,
)


@dataclass(frozen=True)
class Kernel:
    """One generated assembly kernel, ready to assemble and run."""

    name: str                 # e.g. "fp_mul.reduced.ise"
    operation: str            # one of the OP_* identifiers
    variant: str              # one of the VARIANT_* identifiers
    source: str               # assembly text (ends with ret)
    isa: InstructionSet
    context: MontgomeryContext
    input_limbs: tuple[int, ...]   # limb count of each operand
    output_limbs: int
    reference: Callable[..., int]  # exact expected output value
    sampler: Callable[..., tuple[int, ...]]  # rng -> operand values
    static_counts: Counter = field(default_factory=Counter, compare=False)
    #: ``(source, program)`` as the generator built them
    built: tuple[str, AssembledProgram] | None = field(
        default=None, compare=False, repr=False)

    @property
    def program(self) -> AssembledProgram | None:
        """The generator's program of ``source``, or ``None`` when there
        is none or ``source`` is no longer the text it was built with
        (the caller then assembles ``source``)."""
        built = self.built
        if built is not None and built[0] == self.source:
            return built[1]
        return None

    @property
    def uses_ise(self) -> bool:
        return self.variant.endswith(".ise")

    @property
    def radix_name(self) -> str:
        return self.variant.split(".")[0]

    def __str__(self) -> str:
        return f"Kernel({self.name}, {self.context.radix.name})"
