"""RV64I + RV64M instruction definitions and executable semantics.

Each instruction is described by an :class:`InstrSpec` holding its
assembly format, binary encoding fields, timing class and an ``execute``
function.  Specs are collected into an :class:`InstructionSet`, which is
the unit the assembler, encoder, decoder and machine all consume.  The
base RV64IM set lives here; the paper's custom instructions register
their own specs from :mod:`repro.core.ise` into derived sets, keeping the
substrate independent of the contribution built on top of it.

Only the integer subset relevant to MPI arithmetic is implemented (the
paper's kernels use no floating point, atomics or CSRs); this covers the
complete RV64I base integer ISA plus the M extension.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Callable, Iterable, TYPE_CHECKING

from repro.errors import EncodingError, SimulationError
from repro.rv64.bits import (
    MASK64,
    mulh64,
    mulhsu64,
    mulhu64,
    s32,
    s64,
    sign_extend,
    sra64,
    u32,
    u64,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.rv64.machine import MachineState

# Timing classes consumed by the pipeline model.
KIND_ALU = "alu"
KIND_MUL = "mul"
KIND_DIV = "div"
KIND_LOAD = "load"
KIND_STORE = "store"
KIND_BRANCH = "branch"
KIND_JUMP = "jump"
KIND_SYSTEM = "system"

# Assembly/encoding formats.
FMT_R = "R"          # op rd, rs1, rs2
FMT_R4 = "R4"        # op rd, rs1, rs2, rs3          (custom MAC format)
FMT_I = "I"          # op rd, rs1, imm
FMT_I_SHIFT = "IS"   # op rd, rs1, shamt6
FMT_LOAD = "LD"      # op rd, imm(rs1)
FMT_S = "S"          # op rs2, imm(rs1)
FMT_B = "B"          # op rs1, rs2, label/offset
FMT_U = "U"          # op rd, imm20
FMT_J = "J"          # op rd, label/offset
FMT_RIA = "RIA"      # op rd, rs1, rs2, imm          (sraiadd format)
FMT_NONE = "N"       # op


@dataclass(frozen=True, slots=True)
class Instruction:
    """A decoded/assembled instruction instance.

    Register fields are architectural indices (0-31); ``imm`` is a plain
    signed Python integer (already sign-extended where applicable).
    Slotted, since program images hold thousands.
    """

    mnemonic: str
    rd: int = 0
    rs1: int = 0
    rs2: int = 0
    rs3: int = 0
    imm: int = 0

    def __reduce__(self):
        # rebuild through __init__: copying and pickling a frozen
        # slotted instance then need no per-version state protocol
        return (Instruction, (self.mnemonic, self.rd, self.rs1, self.rs2,
                              self.rs3, self.imm))

    def __str__(self) -> str:
        from repro.rv64.registers import register_name as rn

        m = self.mnemonic
        return {
            FMT_R: lambda: f"{m} {rn(self.rd)}, {rn(self.rs1)}, {rn(self.rs2)}",
            FMT_R4: lambda: (
                f"{m} {rn(self.rd)}, {rn(self.rs1)}, "
                f"{rn(self.rs2)}, {rn(self.rs3)}"
            ),
            FMT_I: lambda: f"{m} {rn(self.rd)}, {rn(self.rs1)}, {self.imm}",
            FMT_I_SHIFT: lambda: (
                f"{m} {rn(self.rd)}, {rn(self.rs1)}, {self.imm}"
            ),
            FMT_LOAD: lambda: f"{m} {rn(self.rd)}, {self.imm}({rn(self.rs1)})",
            FMT_S: lambda: f"{m} {rn(self.rs2)}, {self.imm}({rn(self.rs1)})",
            FMT_B: lambda: f"{m} {rn(self.rs1)}, {rn(self.rs2)}, {self.imm}",
            FMT_U: lambda: f"{m} {rn(self.rd)}, {self.imm:#x}",
            FMT_J: lambda: f"{m} {rn(self.rd)}, {self.imm}",
            FMT_RIA: lambda: (
                f"{m} {rn(self.rd)}, {rn(self.rs1)}, "
                f"{rn(self.rs2)}, {self.imm}"
            ),
            FMT_NONE: lambda: m,
        }.get(_lookup_format(m), lambda: m)()


def _lookup_format(mnemonic: str) -> str:
    spec = _GLOBAL_SPECS.get(mnemonic)
    return spec.fmt if spec else FMT_NONE


ExecuteFn = Callable[["MachineState", Instruction], None]


#: Source-register fields each format consumes, in operand order.
_FORMAT_READS: dict[str, tuple[str, ...]] = {
    FMT_R: ("rs1", "rs2"),
    FMT_R4: ("rs1", "rs2", "rs3"),
    FMT_I: ("rs1",),
    FMT_I_SHIFT: ("rs1",),
    FMT_LOAD: ("rs1",),
    FMT_S: ("rs1", "rs2"),
    FMT_B: ("rs1", "rs2"),
    FMT_U: (),
    FMT_J: (),
    FMT_RIA: ("rs1", "rs2"),
    FMT_NONE: (),
}


def _sources_getter(
    reads: tuple[str, ...]
) -> Callable[[Instruction], tuple[int, ...]]:
    """A function returning the tuple of an instruction's *reads*
    fields (``attrgetter`` returns a bare value for a single field)."""
    if len(reads) > 1:
        return operator.attrgetter(*reads)
    if reads:
        get = operator.attrgetter(reads[0])
        return lambda ins: (get(ins),)
    return lambda ins: ()


#: Format -> function returning an instruction's source-register
#: indices, in ``_FORMAT_READS`` order.
_FORMAT_SOURCES = {fmt: _sources_getter(reads)
                   for fmt, reads in _FORMAT_READS.items()}

#: Formats whose ``rd`` field names a destination register.
_FORMATS_WRITING_RD = frozenset((
    FMT_R, FMT_R4, FMT_I, FMT_I_SHIFT, FMT_LOAD, FMT_U, FMT_J, FMT_RIA,
))


@dataclass(frozen=True)
class InstrSpec:
    """Static description of one machine instruction.

    ``reads`` (the source-register fields the format consumes) and
    ``writes_rd`` are per-format facts, resolved once when the spec is
    built; :func:`resolve_operands` applies them once per static
    instruction for the timing model.
    """

    mnemonic: str
    fmt: str
    kind: str
    execute: ExecuteFn
    opcode: int
    funct3: int | None = None
    funct7: int | None = None
    funct2: int | None = None  # R4-type selector (bits 26:25)
    description: str = ""
    reads: tuple[str, ...] = field(init=False, repr=False, compare=False)
    writes_rd: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.fmt not in _FORMAT_READS:
            raise EncodingError(
                f"unknown format {self.fmt!r} for {self.mnemonic!r}")
        object.__setattr__(self, "reads", _FORMAT_READS[self.fmt])
        object.__setattr__(self, "writes_rd",
                           self.fmt in _FORMATS_WRITING_RD)


def resolve_operands(
    spec: InstrSpec, ins: Instruction
) -> tuple[tuple[int, ...], int]:
    """The register indices *ins* reads, in operand order, and the one
    it writes (0 when it writes none), from ``spec.reads`` and
    ``spec.writes_rd``: the facts the timing model consumes."""
    return _FORMAT_SOURCES[spec.fmt](ins), ins.rd if spec.writes_rd else 0


class InstructionSet:
    """A named collection of instruction specs (an ISA variant)."""

    def __init__(self, name: str, specs: Iterable[InstrSpec] = ()) -> None:
        self.name = name
        self._specs: dict[str, InstrSpec] = {}
        for spec in specs:
            self.add(spec)

    def add(self, spec: InstrSpec) -> None:
        if spec.mnemonic in self._specs:
            raise EncodingError(
                f"duplicate mnemonic {spec.mnemonic!r} in ISA {self.name!r}"
            )
        self._specs[spec.mnemonic] = spec

    def extend(self, name: str, specs: Iterable[InstrSpec]) -> InstructionSet:
        """Return a new set containing this set's specs plus *specs*."""
        merged = InstructionSet(name, self._specs.values())
        for spec in specs:
            merged.add(spec)
        return merged

    def __contains__(self, mnemonic: str) -> bool:
        return mnemonic in self._specs

    def __getitem__(self, mnemonic: str) -> InstrSpec:
        try:
            return self._specs[mnemonic]
        except KeyError:
            raise EncodingError(
                f"unknown mnemonic {mnemonic!r} in ISA {self.name!r}"
            ) from None

    def get(self, mnemonic: str) -> InstrSpec | None:
        return self._specs.get(mnemonic)

    @property
    def mnemonics(self) -> tuple[str, ...]:
        return tuple(self._specs)

    def specs(self) -> tuple[InstrSpec, ...]:
        return tuple(self._specs.values())


# ---------------------------------------------------------------------------
# Semantics
# ---------------------------------------------------------------------------
# Each function mutates the machine state.  The machine sets
# ``state.next_pc = state.pc + 4`` before dispatch; control-flow
# instructions overwrite it.  Register operands are the assembled
# indices, so the semantics index the register list ``state.x``
# directly: a write to ``x0`` is skipped (its value is discarded, as on
# hardware) and every written value is wrapped to 64 bits.  The ALU
# wrappers below mask their op's result once, so an op may return any
# int (or a bool) and most are plain ``operator`` functions.


def _exec_lui(state: MachineState, ins: Instruction) -> None:
    # RV64: the 32-bit value imm<<12 is sign-extended to 64 bits.
    if ins.rd:
        state.x[ins.rd] = s32(ins.imm << 12) & MASK64


def _exec_auipc(state: MachineState, ins: Instruction) -> None:
    if ins.rd:
        state.x[ins.rd] = (state.pc + s32(ins.imm << 12)) & MASK64


def _exec_jal(state: MachineState, ins: Instruction) -> None:
    pc = state.pc
    if ins.rd:
        state.x[ins.rd] = (pc + 4) & MASK64
    state.next_pc = (pc + ins.imm) & MASK64


def _exec_jalr(state: MachineState, ins: Instruction) -> None:
    x = state.x
    target = ((x[ins.rs1] + ins.imm) & MASK64) & ~1
    if ins.rd:
        x[ins.rd] = (state.pc + 4) & MASK64
    state.next_pc = target


def _branch(cond: Callable[[int, int], bool]) -> ExecuteFn:
    def execute(state: MachineState, ins: Instruction) -> None:
        x = state.x
        if cond(x[ins.rs1], x[ins.rs2]):
            state.next_pc = (state.pc + ins.imm) & MASK64
            state.branch_taken = True

    return execute


def _load(size: int, signed: bool) -> ExecuteFn:
    def execute(state: MachineState, ins: Instruction) -> None:
        x = state.x
        address = (x[ins.rs1] + ins.imm) & MASK64
        # a load into x0 still accesses memory (and may trap)
        value = state.mem.load(address, size, signed=signed)
        if ins.rd:
            x[ins.rd] = value & MASK64
        state.last_address = address

    return execute


def _store(size: int) -> ExecuteFn:
    def execute(state: MachineState, ins: Instruction) -> None:
        x = state.x
        address = (x[ins.rs1] + ins.imm) & MASK64
        state.mem.store(address, x[ins.rs2], size)
        state.last_address = address

    return execute


def _alu_imm(op: Callable[[int, int], int]) -> ExecuteFn:
    def execute(state: MachineState, ins: Instruction) -> None:
        rd = ins.rd
        if rd:
            x = state.x
            x[rd] = op(x[ins.rs1], ins.imm) & MASK64

    return execute


def _alu_reg(op: Callable[[int, int], int]) -> ExecuteFn:
    def execute(state: MachineState, ins: Instruction) -> None:
        rd = ins.rd
        if rd:
            x = state.x
            x[rd] = op(x[ins.rs1], x[ins.rs2]) & MASK64

    return execute


def _exec_ecall(state: MachineState, ins: Instruction) -> None:
    raise SimulationError("ecall executed (no execution environment)")


def _exec_ebreak(state: MachineState, ins: Instruction) -> None:
    state.halted = True


def _exec_fence(state: MachineState, ins: Instruction) -> None:
    return None  # memory model is sequentially consistent here


def _div(a: int, b: int) -> int:
    sa, sb = s64(a), s64(b)
    if sb == 0:
        return MASK64
    if sa == -(1 << 63) and sb == -1:
        return u64(sa)
    quotient = abs(sa) // abs(sb)
    return u64(-quotient if (sa < 0) != (sb < 0) else quotient)


def _divu(a: int, b: int) -> int:
    return MASK64 if b == 0 else a // b


def _rem(a: int, b: int) -> int:
    sa, sb = s64(a), s64(b)
    if sb == 0:
        return u64(sa)
    if sa == -(1 << 63) and sb == -1:
        return 0
    remainder = abs(sa) % abs(sb)
    return u64(-remainder if sa < 0 else remainder)


def _remu(a: int, b: int) -> int:
    return a if b == 0 else a % b


def _divw(a: int, b: int) -> int:
    sa, sb = s32(a), s32(b)
    if sb == 0:
        return MASK64
    if sa == -(1 << 31) and sb == -1:
        return u64(sa)
    quotient = abs(sa) // abs(sb)
    return u64(s32(-quotient if (sa < 0) != (sb < 0) else quotient))


def _divuw(a: int, b: int) -> int:
    ua, ub = u32(a), u32(b)
    return MASK64 if ub == 0 else u64(s32(ua // ub))


def _remw(a: int, b: int) -> int:
    sa, sb = s32(a), s32(b)
    if sb == 0:
        return u64(sa)
    if sa == -(1 << 31) and sb == -1:
        return 0
    remainder = abs(sa) % abs(sb)
    return u64(s32(-remainder if sa < 0 else remainder))


def _remuw(a: int, b: int) -> int:
    ua, ub = u32(a), u32(b)
    return u64(s32(ua)) if ub == 0 else u64(s32(ua % ub))


def _spec(
    mnemonic: str,
    fmt: str,
    kind: str,
    execute: ExecuteFn,
    opcode: int,
    funct3: int | None = None,
    funct7: int | None = None,
    description: str = "",
) -> InstrSpec:
    return InstrSpec(
        mnemonic=mnemonic,
        fmt=fmt,
        kind=kind,
        execute=execute,
        opcode=opcode,
        funct3=funct3,
        funct7=funct7,
        description=description,
    )


# Opcode constants (RISC-V spec, Table 24.1).
OP_LUI = 0b0110111
OP_AUIPC = 0b0010111
OP_JAL = 0b1101111
OP_JALR = 0b1100111
OP_BRANCH = 0b1100011
OP_LOAD = 0b0000011
OP_STORE = 0b0100011
OP_IMM = 0b0010011
OP_IMM32 = 0b0011011
OP_REG = 0b0110011
OP_REG32 = 0b0111011
OP_MISC_MEM = 0b0001111
OP_SYSTEM = 0b1110011
# Custom opcode space used by the paper's ISEs.
OP_CUSTOM_MADD = 0b1111011   # R4-type madd*/cadd (Figures 1-3)
OP_CUSTOM_SRAIADD = 0b0101011  # sraiadd (Figure 3)


def _base_specs() -> list[InstrSpec]:
    specs: list[InstrSpec] = [
        _spec("lui", FMT_U, KIND_ALU, _exec_lui, OP_LUI,
              description="load upper immediate"),
        _spec("auipc", FMT_U, KIND_ALU, _exec_auipc, OP_AUIPC,
              description="add upper immediate to pc"),
        _spec("jal", FMT_J, KIND_JUMP, _exec_jal, OP_JAL,
              description="jump and link"),
        _spec("jalr", FMT_I, KIND_JUMP, _exec_jalr, OP_JALR, funct3=0b000,
              description="jump and link register"),
        _spec("beq", FMT_B, KIND_BRANCH,
              _branch(lambda a, b: a == b), OP_BRANCH, funct3=0b000),
        _spec("bne", FMT_B, KIND_BRANCH,
              _branch(lambda a, b: a != b), OP_BRANCH, funct3=0b001),
        _spec("blt", FMT_B, KIND_BRANCH,
              _branch(lambda a, b: s64(a) < s64(b)), OP_BRANCH, funct3=0b100),
        _spec("bge", FMT_B, KIND_BRANCH,
              _branch(lambda a, b: s64(a) >= s64(b)), OP_BRANCH, funct3=0b101),
        _spec("bltu", FMT_B, KIND_BRANCH,
              _branch(lambda a, b: a < b), OP_BRANCH, funct3=0b110),
        _spec("bgeu", FMT_B, KIND_BRANCH,
              _branch(lambda a, b: a >= b), OP_BRANCH, funct3=0b111),
        # Loads.
        _spec("lb", FMT_LOAD, KIND_LOAD, _load(1, True), OP_LOAD,
              funct3=0b000),
        _spec("lh", FMT_LOAD, KIND_LOAD, _load(2, True), OP_LOAD,
              funct3=0b001),
        _spec("lw", FMT_LOAD, KIND_LOAD, _load(4, True), OP_LOAD,
              funct3=0b010),
        _spec("ld", FMT_LOAD, KIND_LOAD, _load(8, False), OP_LOAD,
              funct3=0b011),
        _spec("lbu", FMT_LOAD, KIND_LOAD, _load(1, False), OP_LOAD,
              funct3=0b100),
        _spec("lhu", FMT_LOAD, KIND_LOAD, _load(2, False), OP_LOAD,
              funct3=0b101),
        _spec("lwu", FMT_LOAD, KIND_LOAD, _load(4, False), OP_LOAD,
              funct3=0b110),
        # Stores.
        _spec("sb", FMT_S, KIND_STORE, _store(1), OP_STORE, funct3=0b000),
        _spec("sh", FMT_S, KIND_STORE, _store(2), OP_STORE, funct3=0b001),
        _spec("sw", FMT_S, KIND_STORE, _store(4), OP_STORE, funct3=0b010),
        _spec("sd", FMT_S, KIND_STORE, _store(8), OP_STORE, funct3=0b011),
        # Register-immediate ALU.
        _spec("addi", FMT_I, KIND_ALU,
              _alu_imm(operator.add), OP_IMM, funct3=0b000),
        _spec("slti", FMT_I, KIND_ALU,
              _alu_imm(lambda a, i: s64(a) < i), OP_IMM, funct3=0b010),
        _spec("sltiu", FMT_I, KIND_ALU,
              _alu_imm(lambda a, i: a < (i & MASK64)), OP_IMM, funct3=0b011),
        _spec("xori", FMT_I, KIND_ALU,
              _alu_imm(operator.xor), OP_IMM, funct3=0b100),
        _spec("ori", FMT_I, KIND_ALU,
              _alu_imm(operator.or_), OP_IMM, funct3=0b110),
        _spec("andi", FMT_I, KIND_ALU,
              _alu_imm(operator.and_), OP_IMM, funct3=0b111),
        _spec("slli", FMT_I_SHIFT, KIND_ALU,
              _alu_imm(lambda a, i: a << (i & 63)), OP_IMM,
              funct3=0b001, funct7=0b0000000),
        _spec("srli", FMT_I_SHIFT, KIND_ALU,
              _alu_imm(lambda a, i: a >> (i & 63)), OP_IMM,
              funct3=0b101, funct7=0b0000000),
        _spec("srai", FMT_I_SHIFT, KIND_ALU,
              _alu_imm(sra64), OP_IMM, funct3=0b101, funct7=0b0100000),
        # Register-register ALU.
        _spec("add", FMT_R, KIND_ALU,
              _alu_reg(operator.add), OP_REG,
              funct3=0b000, funct7=0b0000000),
        _spec("sub", FMT_R, KIND_ALU,
              _alu_reg(operator.sub), OP_REG,
              funct3=0b000, funct7=0b0100000),
        _spec("sll", FMT_R, KIND_ALU,
              _alu_reg(lambda a, b: a << (b & 63)), OP_REG,
              funct3=0b001, funct7=0b0000000),
        _spec("slt", FMT_R, KIND_ALU,
              _alu_reg(lambda a, b: s64(a) < s64(b)), OP_REG,
              funct3=0b010, funct7=0b0000000),
        _spec("sltu", FMT_R, KIND_ALU,
              _alu_reg(operator.lt), OP_REG,
              funct3=0b011, funct7=0b0000000),
        _spec("xor", FMT_R, KIND_ALU,
              _alu_reg(operator.xor), OP_REG,
              funct3=0b100, funct7=0b0000000),
        _spec("srl", FMT_R, KIND_ALU,
              _alu_reg(lambda a, b: a >> (b & 63)), OP_REG,
              funct3=0b101, funct7=0b0000000),
        _spec("sra", FMT_R, KIND_ALU,
              _alu_reg(lambda a, b: sra64(a, b & 63)), OP_REG,
              funct3=0b101, funct7=0b0100000),
        _spec("or", FMT_R, KIND_ALU,
              _alu_reg(operator.or_), OP_REG,
              funct3=0b110, funct7=0b0000000),
        _spec("and", FMT_R, KIND_ALU,
              _alu_reg(operator.and_), OP_REG,
              funct3=0b111, funct7=0b0000000),
        # RV64I 32-bit word ops.
        _spec("addiw", FMT_I, KIND_ALU,
              _alu_imm(lambda a, i: s32(a + i)), OP_IMM32,
              funct3=0b000),
        _spec("slliw", FMT_I_SHIFT, KIND_ALU,
              _alu_imm(lambda a, i: s32(a << (i & 31))), OP_IMM32,
              funct3=0b001, funct7=0b0000000),
        _spec("srliw", FMT_I_SHIFT, KIND_ALU,
              _alu_imm(lambda a, i: s32(u32(a) >> (i & 31))), OP_IMM32,
              funct3=0b101, funct7=0b0000000),
        _spec("sraiw", FMT_I_SHIFT, KIND_ALU,
              _alu_imm(lambda a, i: s32(a) >> (i & 31)), OP_IMM32,
              funct3=0b101, funct7=0b0100000),
        _spec("addw", FMT_R, KIND_ALU,
              _alu_reg(lambda a, b: s32(a + b)), OP_REG32,
              funct3=0b000, funct7=0b0000000),
        _spec("subw", FMT_R, KIND_ALU,
              _alu_reg(lambda a, b: s32(a - b)), OP_REG32,
              funct3=0b000, funct7=0b0100000),
        _spec("sllw", FMT_R, KIND_ALU,
              _alu_reg(lambda a, b: s32(a << (b & 31))), OP_REG32,
              funct3=0b001, funct7=0b0000000),
        _spec("srlw", FMT_R, KIND_ALU,
              _alu_reg(lambda a, b: s32(u32(a) >> (b & 31))), OP_REG32,
              funct3=0b101, funct7=0b0000000),
        _spec("sraw", FMT_R, KIND_ALU,
              _alu_reg(lambda a, b: s32(a) >> (b & 31)), OP_REG32,
              funct3=0b101, funct7=0b0100000),
        # System.
        _spec("ecall", FMT_NONE, KIND_SYSTEM, _exec_ecall, OP_SYSTEM,
              funct3=0b000, funct7=0b0000000),
        _spec("ebreak", FMT_NONE, KIND_SYSTEM, _exec_ebreak, OP_SYSTEM,
              funct3=0b000, funct7=0b0000001),
        _spec("fence", FMT_NONE, KIND_SYSTEM, _exec_fence, OP_MISC_MEM,
              funct3=0b000),
        # RV64M.
        _spec("mul", FMT_R, KIND_MUL,
              _alu_reg(operator.mul), OP_REG,
              funct3=0b000, funct7=0b0000001,
              description="low 64 bits of product"),
        _spec("mulh", FMT_R, KIND_MUL,
              _alu_reg(mulh64), OP_REG, funct3=0b001, funct7=0b0000001),
        _spec("mulhsu", FMT_R, KIND_MUL,
              _alu_reg(mulhsu64), OP_REG, funct3=0b010, funct7=0b0000001),
        _spec("mulhu", FMT_R, KIND_MUL,
              _alu_reg(mulhu64), OP_REG, funct3=0b011, funct7=0b0000001,
              description="high 64 bits of unsigned product"),
        _spec("div", FMT_R, KIND_DIV, _alu_reg(_div), OP_REG,
              funct3=0b100, funct7=0b0000001),
        _spec("divu", FMT_R, KIND_DIV, _alu_reg(_divu), OP_REG,
              funct3=0b101, funct7=0b0000001),
        _spec("rem", FMT_R, KIND_DIV, _alu_reg(_rem), OP_REG,
              funct3=0b110, funct7=0b0000001),
        _spec("remu", FMT_R, KIND_DIV, _alu_reg(_remu), OP_REG,
              funct3=0b111, funct7=0b0000001),
        _spec("mulw", FMT_R, KIND_MUL,
              _alu_reg(lambda a, b: s32(a * b)), OP_REG32,
              funct3=0b000, funct7=0b0000001),
        _spec("divw", FMT_R, KIND_DIV, _alu_reg(_divw), OP_REG32,
              funct3=0b100, funct7=0b0000001),
        _spec("divuw", FMT_R, KIND_DIV, _alu_reg(_divuw), OP_REG32,
              funct3=0b101, funct7=0b0000001),
        _spec("remw", FMT_R, KIND_DIV, _alu_reg(_remw), OP_REG32,
              funct3=0b110, funct7=0b0000001),
        _spec("remuw", FMT_R, KIND_DIV, _alu_reg(_remuw), OP_REG32,
              funct3=0b111, funct7=0b0000001),
    ]
    return specs


BASE_ISA = InstructionSet("rv64im", _base_specs())

# A flat mnemonic -> spec view used for stringification regardless of ISA.
_GLOBAL_SPECS: dict[str, InstrSpec] = {
    s.mnemonic: s for s in BASE_ISA.specs()
}


def register_global_spec(spec: InstrSpec) -> None:
    """Record *spec* in the global stringification table (idempotent)."""
    _GLOBAL_SPECS.setdefault(spec.mnemonic, spec)


def make_sign_extender(width: int) -> Callable[[int], int]:
    """Convenience factory used by decoders: sign-extend *width* bits."""
    return lambda v: sign_extend(v, width)
