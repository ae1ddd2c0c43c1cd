"""The paper's custom instructions (Figures 1-3), executable and encoded.

Two ISE sets are proposed (Table 1), each with three custom instructions:

========================  ==============================================
full-radix                ``maddlu``, ``maddhu`` (fused 64x64 multiply-
                          add, low/high half), ``cadd`` (compute-carry-
                          then-add)
reduced-radix             ``madd57lu``, ``madd57hu`` (multiply-shift-
                          and-add over a full 64-bit multiplier, radix
                          2^57), ``sraiadd`` (fused arithmetic-shift-
                          then-add)
========================  ==============================================

Design guidelines honoured (Sect. 3.2): operands live in the scalar
general-purpose register file; no special architectural state; at most
two source addresses except for the performance-critical MAC
instructions, which use the standard R4-type format (as the RV64GC
floating-point FMA does).

Encodings follow the paper's figures: the R4-type instructions occupy
the custom opcode ``0b1111011`` with a 2-bit ``funct2`` selector in bits
26:25 (``maddlu``=00, ``maddhu``=01 per Figure 1; ``madd57lu``=10,
``madd57hu``=11 per Figure 2; ``cadd``=10 per Figure 3).  ``sraiadd``
occupies opcode ``0b0101011`` with its 6-bit shift amount in bits 30:25
and bit 31 set.  Note that ``cadd`` and ``madd57lu`` share an encoding
point: the two ISE sets are *alternatives* — a core implements one set
or the other (the paper synthesises two distinct extended cores, Table
3) — so the binary encoding spaces never coexist.  Use the per-set
instruction sets (:data:`FULL_RADIX_ISA`, :data:`REDUCED_RADIX_ISA`)
whenever binary decode matters; :data:`EXTENDED_ISA` unions all six
mnemonics for assembler convenience only.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.rv64.bits import MASK64, SIGN64, sra64, u64
from repro.rv64.isa import (
    BASE_ISA,
    FMT_R4,
    FMT_RIA,
    InstrSpec,
    Instruction,
    KIND_ALU,
    KIND_MUL,
    OP_CUSTOM_MADD,
    OP_CUSTOM_SRAIADD,
    register_global_spec,
)
from repro.rv64.templates import register_expr as register_aot_expr

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.rv64.machine import MachineState

#: Limb width of the paper's reduced-radix representation.
REDUCED_RADIX_BITS = 57
MASK57 = (1 << REDUCED_RADIX_BITS) - 1

#: funct3 shared by all custom instructions (per Figures 1-3).
CUSTOM_FUNCT3 = 0b111


# ---------------------------------------------------------------------------
# Reference semantics (pure functions, used by tests and the hardware model)
# ---------------------------------------------------------------------------

def msa2(x: int, y: int, j: int, m: int, z: int) -> int:
    """The paper's Multiply-Shift-And-Add paradigm.

    ``rd <- (((rs1 * rs2) >> j) & m) + rs3`` — the general form that
    covers ``mla``/``vpmadd52luq``-style instructions (Sect. 3.2) and our
    ``madd57lu``/``madd57hu``.
    """
    return u64((((u64(x) * u64(y)) >> j) & m) + z)


def maddlu_value(x: int, y: int, z: int) -> int:
    """``maddlu``: low 64 bits of ``x*y + z`` (Figure 1, left)."""
    return (u64(x) * u64(y) + u64(z)) & MASK64


def maddhu_value(x: int, y: int, z: int) -> int:
    """``maddhu``: bits 127..64 of ``x*y + z`` (Figure 1, right).

    Multiply-Add-Shift-And rather than MSA2: adding *z* before the shift
    folds the carry-out of the low half into the high half, saving the
    explicit ``sltu`` carry check of Listing 1.
    """
    return ((u64(x) * u64(y) + u64(z)) >> 64) & MASK64


def madd57lu_value(x: int, y: int, z: int) -> int:
    """``madd57lu``: ``((x*y) & (2^57-1)) + z`` (Figure 2, left)."""
    return msa2(x, y, 0, MASK57, z)


def madd57hu_value(x: int, y: int, z: int) -> int:
    """``madd57hu``: ``((x*y) >> 57) + z`` (Figure 2, right).

    The full 64-bit multiplier plus the (j, m) product-slice control is
    the paper's fix for the AVX-512IFMA *multiplier saturation problem*:
    limbs carrying a few delayed-carry extra bits still multiply
    correctly, because the datapath never truncates the inputs.
    """
    return msa2(x, y, REDUCED_RADIX_BITS, MASK64, z)


def cadd_value(x: int, y: int, z: int) -> int:
    """``cadd``: carry-out of ``x + y`` added to ``z`` (Figure 3)."""
    return u64(((u64(x) + u64(y)) >> 64) + u64(z))


def sraiadd_value(x: int, y: int, imm: int) -> int:
    """``sraiadd``: ``x + EXTS(y >> imm)`` (Figure 3) — fused srai+add."""
    return u64(u64(x) + sra64(y, imm))


# ---------------------------------------------------------------------------
# Machine-level execute functions
# ---------------------------------------------------------------------------
# The operands are the assembled register indices, so the semantics
# index the machine's register list directly, and a write to x0 is
# discarded.  Registers always hold values in [0, 2^64), so each body
# is its reference function above written inline without re-masking
# its operands (``tests/test_ise_semantics.py`` checks each against its
# reference over random and boundary operands): ``maddhu`` needs no
# final mask, as ``x*y + z <= 2^128 - 2^64``.

def _exec_maddlu(state: MachineState, ins: Instruction) -> None:
    if ins.rd:
        x = state.x
        x[ins.rd] = (x[ins.rs1] * x[ins.rs2] + x[ins.rs3]) & MASK64


def _exec_maddhu(state: MachineState, ins: Instruction) -> None:
    if ins.rd:
        x = state.x
        x[ins.rd] = (x[ins.rs1] * x[ins.rs2] + x[ins.rs3]) >> 64


def _exec_madd57lu(state: MachineState, ins: Instruction) -> None:
    if ins.rd:
        x = state.x
        x[ins.rd] = ((x[ins.rs1] * x[ins.rs2] & MASK57)
                     + x[ins.rs3]) & MASK64


def _exec_madd57hu(state: MachineState, ins: Instruction) -> None:
    if ins.rd:
        x = state.x
        x[ins.rd] = (((x[ins.rs1] * x[ins.rs2]) >> REDUCED_RADIX_BITS)
                     + x[ins.rs3]) & MASK64


def _exec_cadd(state: MachineState, ins: Instruction) -> None:
    if ins.rd:
        x = state.x
        x[ins.rd] = (((x[ins.rs1] + x[ins.rs2]) >> 64)
                     + x[ins.rs3]) & MASK64


def _exec_sraiadd(state: MachineState, ins: Instruction) -> None:
    if ins.rd:
        x = state.x
        # (y ^ 2^63) - 2^63 is y's signed reading
        x[ins.rd] = (x[ins.rs1] + (((x[ins.rs2] ^ SIGN64) - SIGN64)
                                   >> (ins.imm & 63))) & MASK64


# ---------------------------------------------------------------------------
# Instruction specs and sets
# ---------------------------------------------------------------------------
# All custom instructions execute on XMUL: timing class KIND_MUL, so they
# share the multiplier's 2-stage pipeline latency, matching Sect. 3.3.

MADDLU = InstrSpec(
    "maddlu", FMT_R4, KIND_MUL, _exec_maddlu, OP_CUSTOM_MADD,
    funct3=CUSTOM_FUNCT3, funct2=0b00,
    description="rd <- (rs1*rs2 + rs3) & (2^64-1)")
MADDHU = InstrSpec(
    "maddhu", FMT_R4, KIND_MUL, _exec_maddhu, OP_CUSTOM_MADD,
    funct3=CUSTOM_FUNCT3, funct2=0b01,
    description="rd <- ((rs1*rs2 + rs3) >> 64) & (2^64-1)")
CADD = InstrSpec(
    "cadd", FMT_R4, KIND_MUL, _exec_cadd, OP_CUSTOM_MADD,
    funct3=CUSTOM_FUNCT3, funct2=0b10,
    description="rd <- ((rs1 + rs2) >> 64) + rs3")
MADD57LU = InstrSpec(
    "madd57lu", FMT_R4, KIND_MUL, _exec_madd57lu, OP_CUSTOM_MADD,
    funct3=CUSTOM_FUNCT3, funct2=0b10,
    description="rd <- ((rs1*rs2) & (2^57-1)) + rs3")
MADD57HU = InstrSpec(
    "madd57hu", FMT_R4, KIND_MUL, _exec_madd57hu, OP_CUSTOM_MADD,
    funct3=CUSTOM_FUNCT3, funct2=0b11,
    description="rd <- ((rs1*rs2) >> 57) + rs3")
# sraiadd executes in XMUL but bypasses the multiplier array (it is a
# fused shift+add), so a dependent instruction sees single-cycle latency
# like any ALU op — hence timing class "alu" rather than "mul".
SRAIADD = InstrSpec(
    "sraiadd", FMT_RIA, KIND_ALU, _exec_sraiadd, OP_CUSTOM_SRAIADD,
    funct3=CUSTOM_FUNCT3,
    description="rd <- rs1 + EXTS(rs2 >> imm)")

FULL_RADIX_SPECS = (MADDLU, MADDHU, CADD)
REDUCED_RADIX_SPECS = (MADD57LU, MADD57HU, SRAIADD)
ALL_ISE_SPECS = FULL_RADIX_SPECS + REDUCED_RADIX_SPECS

#: RV64GC-equivalent base + full-radix ISEs (one extended core variant).
FULL_RADIX_ISA = BASE_ISA.extend("rv64im+ise-full", FULL_RADIX_SPECS)

#: RV64GC-equivalent base + reduced-radix ISEs (the other variant).
REDUCED_RADIX_ISA = BASE_ISA.extend("rv64im+ise-reduced",
                                    REDUCED_RADIX_SPECS)

#: Union of all six mnemonics — assembler/simulator convenience only;
#: binary decode of this set is ambiguous (cadd/madd57lu share funct2).
EXTENDED_ISA = BASE_ISA.extend("rv64im+ise-all", ALL_ISE_SPECS)

for _spec in ALL_ISE_SPECS:
    register_global_spec(_spec)


# ---------------------------------------------------------------------------
# Whole-kernel aot expressions
# ---------------------------------------------------------------------------
# The aot tier fuses these into its dataflow graph (constant-folding
# through them where operands are static), instead of falling back to
# one bound-lambda call per instruction, an opaque node that no rewrite
# sees through (docs/SIMULATOR.md).  Same
# algebra as the pure value functions above; the aot-vs-interpreter
# differential suite pins the inlined expressions to the reference
# semantics, so they cannot drift.  maddhu needs no final mask:
# (x*y + z) <= 2^128 - 2^64, so the high half is already < 2^64.

register_aot_expr("maddlu", "r4", "({a} * {b} + {c}) & M")
register_aot_expr("maddhu", "r4", "({a} * {b} + {c}) >> 64")
register_aot_expr(
    "madd57lu", "r4", f"(({{a}} * {{b}} & {MASK57}) + {{c}}) & M")
register_aot_expr(
    "madd57hu", "r4",
    f"(((({{a}} * {{b}}) >> {REDUCED_RADIX_BITS}) & M) + {{c}}) & M")
register_aot_expr("cadd", "r4", "((({a} + {b}) >> 64) + {c}) & M")
# x + EXTS(y >> imm): {sb} is the signed reinterpretation of rs2
register_aot_expr("sraiadd", "ria", "({a} + ({sb} >> {sh})) & M")
