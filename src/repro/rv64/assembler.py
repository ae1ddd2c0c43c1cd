"""Two-pass textual assembler for the RV64 simulator.

Accepts standard RISC-V assembly syntax for the implemented subset:

* one instruction or label per line; comments start with ``#``, ``//``
  or ``;``;
* labels are ``name:`` and may be referenced by branch/jump operands;
  a numeric target is a byte offset from the instruction, for the
  ``beqz``/``bnez``/``j`` pseudo-instructions as for ``beq``/``jal``;
* ABI and architectural register names are both accepted;
* immediates may be decimal, hex (``0x``), binary (``0b``) or octal
  (``0o``), with an optional sign;
* common pseudo-instructions are expanded (``li``, ``mv``, ``not``,
  ``neg``, ``nop``, ``seqz``, ``snez``, ``beqz``, ``bnez``, ``j``,
  ``jr``, ``ret``).

The first pass does, per line, only the work that line needs: the
comment and label scans run only when the line holds a marker, the
mnemonic and operands are split once, each register is one dictionary
lookup, and the operands are parsed by one row of a table keyed by
mnemonic (operand count and parser), built per call from the
:class:`InstructionSet`'s formats plus the pseudo-instructions.  A
line whose text was already parsed in the same call reuses the
(immutable) result.  The second pass only patches label references.
Every error, an operand-count mismatch (pseudo-instructions included)
or an undefined label, is an :class:`AssemblerError` naming the line.

The assembler is driven by the :class:`InstructionSet` it is given, so
ISE mnemonics registered by :mod:`repro.core` assemble with no changes
here.

Generated kernels are not parsed: their generators build each
:class:`Instruction` directly (:class:`repro.kernels.builder.KernelBuilder`,
which expands ``li`` with :func:`expand_li`) and write the source text
beside it.  This assembler serves hand-written sources, the listings
and tests, runs a kernel whose source was replaced, and is the oracle
every generated program must equal
(``tests/differential/test_builder_vs_assembler.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Union

from repro.errors import AssemblerError, ReproError
from repro.rv64.bits import fits_signed, sign_extend
from repro.rv64.isa import (
    FMT_B,
    FMT_I,
    FMT_I_SHIFT,
    FMT_J,
    FMT_LOAD,
    FMT_NONE,
    FMT_R,
    FMT_R4,
    FMT_RIA,
    FMT_S,
    FMT_U,
    Instruction,
    InstructionSet,
)
from repro.rv64.registers import _NAME_TO_INDEX, register_index


@dataclass
class AssembledProgram:
    """Result of assembling a source module."""

    instructions: list[Instruction]
    labels: dict[str, int]  # label -> byte offset from program base
    source_lines: list[str]  # one entry per instruction, for diagnostics

    def __len__(self) -> int:
        return len(self.instructions)


def _parse_int(token: str) -> int:
    token = token.strip()
    try:
        return int(token, 0)
    except ValueError:
        raise AssemblerError(f"bad integer literal {token!r}") from None


def _strip_comment(line: str) -> str:
    for marker in ("#", "//", ";"):
        pos = line.find(marker)
        if pos >= 0:
            line = line[:pos]
    return line.strip()


_register = _NAME_TO_INDEX.get


def _registers(tokens: list[str]) -> list[int]:
    """Resolve every token in order; the first bad one raises
    (the slow path behind a failed :func:`_register` lookup)."""
    return [register_index(token) for token in tokens]


def _parse_mem_operand(token: str) -> tuple[int, int]:
    """Parse ``imm(reg)`` into (imm, reg_index)."""
    open_paren = token.find("(")
    if open_paren < 0 or not token.endswith(")"):
        raise AssemblerError(f"expected imm(reg), got {token!r}")
    imm_text = token[:open_paren].strip() or "0"
    reg_text = token[open_paren + 1:-1].strip()
    imm = _parse_int(imm_text)
    reg = _register(reg_text)
    return imm, reg if reg is not None else register_index(reg_text)


def expand_li(rd: int, value: int) -> list[Instruction]:
    """Expand ``li rd, value`` into base instructions.

    Handles any 64-bit constant (interpreted modulo 2**64) with the
    standard lui/addi(w)/slli recursion used by GNU as and LLVM.
    """
    value &= (1 << 64) - 1
    signed = value - (1 << 64) if value >> 63 else value

    if fits_signed(signed, 12):
        return [Instruction("addi", rd=rd, rs1=0, imm=signed)]

    if fits_signed(signed, 32):
        hi20 = ((signed + 0x800) >> 12) & 0xFFFFF
        lo12 = sign_extend(signed & 0xFFF, 12)
        out = [Instruction("lui", rd=rd, imm=hi20)]
        if lo12:
            out.append(Instruction("addiw", rd=rd, rs1=rd, imm=lo12))
        return out

    lo12 = sign_extend(signed & 0xFFF, 12)
    upper = (signed - lo12) >> 12
    out = expand_li(rd, upper)
    out.append(Instruction("slli", rd=rd, rs1=rd, imm=12))
    if lo12:
        out.append(Instruction("addi", rd=rd, rs1=rd, imm=lo12))
    return out


@dataclass(frozen=True, slots=True)
class _PendingBranch:
    """A branch or jump whose target is a label, resolved in pass two
    to ``Instruction(mnemonic, rd, rs1, rs2, imm=offset)``."""

    mnemonic: str
    rd: int
    rs1: int
    rs2: int
    label: str


_Item = Union[Instruction, _PendingBranch, list]
_Parser = Callable[[str, list], _Item]


# -- operand parsers, one per format ---------------------------------------
# Each takes (mnemonic, operands) with the operand count already checked
# and raises on the first bad operand in the order the operands are read.


def _parse_r(m: str, ops: list[str]) -> Instruction:
    rd, rs1, rs2 = _register(ops[0]), _register(ops[1]), _register(ops[2])
    if rd is None or rs1 is None or rs2 is None:
        rd, rs1, rs2 = _registers(ops)
    return Instruction(m, rd, rs1, rs2)


def _parse_r4(m: str, ops: list[str]) -> Instruction:
    rd, rs1 = _register(ops[0]), _register(ops[1])
    rs2, rs3 = _register(ops[2]), _register(ops[3])
    if rd is None or rs1 is None or rs2 is None or rs3 is None:
        rd, rs1, rs2, rs3 = _registers(ops)
    return Instruction(m, rd, rs1, rs2, rs3)


def _parse_i(m: str, ops: list[str]) -> Instruction:
    rd, rs1 = _register(ops[0]), _register(ops[1])
    if rd is None or rs1 is None:
        rd, rs1 = _registers(ops[:2])
    return Instruction(m, rd, rs1, 0, 0, _parse_int(ops[2]))


def _parse_load(m: str, ops: list[str]) -> Instruction:
    imm, rs1 = _parse_mem_operand(ops[1])
    rd = _register(ops[0])
    if rd is None:
        rd = register_index(ops[0])
    return Instruction(m, rd, rs1, 0, 0, imm)


def _parse_store(m: str, ops: list[str]) -> Instruction:
    imm, rs1 = _parse_mem_operand(ops[1])
    rs2 = _register(ops[0])
    if rs2 is None:
        rs2 = register_index(ops[0])
    return Instruction(m, 0, rs1, rs2, 0, imm)


def _parse_b(m: str, ops: list[str]) -> Instruction | _PendingBranch:
    rs1, rs2 = _register(ops[0]), _register(ops[1])
    if rs1 is None or rs2 is None:
        rs1, rs2 = _registers(ops[:2])
    return _target(m, 0, rs1, rs2, ops[2])


def _parse_u(m: str, ops: list[str]) -> Instruction:
    rd = _register(ops[0])
    if rd is None:
        rd = register_index(ops[0])
    return Instruction(m, rd, 0, 0, 0, _parse_int(ops[1]))


def _parse_j(m: str, ops: list[str]) -> Instruction | _PendingBranch:
    rd = _register(ops[0])
    if rd is None:
        rd = register_index(ops[0])
    return _target(m, rd, 0, 0, ops[1])


def _parse_ria(m: str, ops: list[str]) -> Instruction:
    rd, rs1, rs2 = _register(ops[0]), _register(ops[1]), _register(ops[2])
    if rd is None or rs1 is None or rs2 is None:
        rd, rs1, rs2 = _registers(ops[:3])
    return Instruction(m, rd, rs1, rs2, 0, _parse_int(ops[3]))


def _parse_none(m: str, ops: list[str]) -> Instruction:
    return Instruction(m)


#: Format -> (operand count, parser).
_FORMATS: dict[str, tuple[int, _Parser]] = {
    FMT_R: (3, _parse_r),
    FMT_R4: (4, _parse_r4),
    FMT_I: (3, _parse_i),
    FMT_I_SHIFT: (3, _parse_i),
    FMT_LOAD: (2, _parse_load),
    FMT_S: (2, _parse_store),
    FMT_B: (3, _parse_b),
    FMT_U: (2, _parse_u),
    FMT_J: (2, _parse_j),
    FMT_RIA: (4, _parse_ria),
    FMT_NONE: (0, _parse_none),
}


# -- pseudo-instructions ---------------------------------------------------


def _pseudo_rr(build: Callable[[int, int], Instruction]) -> _Parser:
    """A two-register pseudo-instruction ``op rd, rs``."""
    def parse(m: str, ops: list[str]) -> Instruction:
        rd, rs = _register(ops[0]), _register(ops[1])
        if rd is None or rs is None:
            rd, rs = _registers(ops)
        return build(rd, rs)

    return parse


def _target(m: str, rd: int, rs1: int, rs2: int,
            target: str) -> Instruction | _PendingBranch:
    """A branch or jump to *target*: a numeric byte offset assembles
    now, anything else is a label resolved in pass two."""
    try:
        return Instruction(m, rd, rs1, rs2, 0, _parse_int(target))
    except AssemblerError:
        return _PendingBranch(m, rd, rs1, rs2, target)


def _pseudo_branch_zero(branch: str) -> _Parser:
    """``beqz``/``bnez rs, target``: compare *rs* against x0."""
    def parse(m: str, ops: list[str]) -> Instruction | _PendingBranch:
        rs = _register(ops[0])
        if rs is None:
            rs = register_index(ops[0])
        return _target(branch, 0, rs, 0, ops[1])

    return parse


def _pseudo_li(m: str, ops: list[str]) -> list[Instruction]:
    rd = _register(ops[0])
    if rd is None:
        rd = register_index(ops[0])
    return expand_li(rd, _parse_int(ops[1]))


def _pseudo_jr(m: str, ops: list[str]) -> Instruction:
    rs = _register(ops[0])
    if rs is None:
        rs = register_index(ops[0])
    return Instruction("jalr", 0, rs, 0, 0, 0)


_NOP = Instruction("addi", 0, 0, 0, 0, 0)
_RET = Instruction("jalr", 0, 1, 0, 0, 0)

#: Pseudo-instruction -> (operand count, parser); these take precedence
#: over the instruction set's own mnemonics.
_PSEUDOS: dict[str, tuple[int, _Parser]] = {
    "nop": (0, lambda m, ops: _NOP),
    "mv": (2, _pseudo_rr(lambda rd, rs: Instruction(
        "addi", rd, rs, 0, 0, 0))),
    "not": (2, _pseudo_rr(lambda rd, rs: Instruction(
        "xori", rd, rs, 0, 0, -1))),
    "neg": (2, _pseudo_rr(lambda rd, rs: Instruction(
        "sub", rd, 0, rs))),
    "seqz": (2, _pseudo_rr(lambda rd, rs: Instruction(
        "sltiu", rd, rs, 0, 0, 1))),
    "snez": (2, _pseudo_rr(lambda rd, rs: Instruction(
        "sltu", rd, 0, rs))),
    "li": (2, _pseudo_li),
    "ret": (0, lambda m, ops: _RET),
    "jr": (1, _pseudo_jr),
    "beqz": (2, _pseudo_branch_zero("beq")),
    "bnez": (2, _pseudo_branch_zero("bne")),
    "j": (1, lambda m, ops: _target("jal", 0, 0, 0, ops[0])),
}


def _count_error(mnemonic: str, expected: int, got: int) -> AssemblerError:
    if mnemonic == "li":
        return AssemblerError("li needs two operands")
    return AssemblerError(
        f"{mnemonic}: expected {expected} operands, got {got}")


class Assembler:
    """Two-pass assembler over a given instruction set."""

    def __init__(self, isa: InstructionSet) -> None:
        self.isa = isa

    def _operand_table(self) -> dict[str, tuple[int, _Parser]]:
        """Mnemonic -> (operand count, parser) for the current set."""
        table = {spec.mnemonic: _FORMATS[spec.fmt]
                 for spec in self.isa.specs()}
        table.update(_PSEUDOS)
        return table

    def _parse_line(self, table, text: str) -> _Item:
        """Parse one comment- and label-free instruction line."""
        parts = text.split(None, 1)
        mnemonic = parts[0].lower()
        if len(parts) > 1:
            operands = [token.strip() for token in parts[1].split(",")]
            if "" in operands:
                operands = [token for token in operands if token]
        else:
            operands = []
        row = table.get(mnemonic)
        if row is None:
            self.isa[mnemonic]  # raises the unknown-mnemonic error
        count, parse = row
        if len(operands) != count:
            raise _count_error(mnemonic, count, len(operands))
        return parse(mnemonic, operands)

    def assemble(self, source: str) -> AssembledProgram:
        """Assemble *source* text into an :class:`AssembledProgram`."""
        table = self._operand_table()
        parsed: dict[str, _Item] = {}  # line text -> item (immutable)
        items: list = []
        item_lines: list[str] = []
        # (index, line number) of each label reference
        pending: list[tuple[int, int]] = []
        labels: dict[str, int] = {}

        for line_number, raw in enumerate(source.splitlines(), start=1):
            stripped = raw.strip()
            if "#" in raw or ";" in raw or "//" in raw:
                line = _strip_comment(raw)
            else:
                line = stripped
            while ":" in line:
                name, _, rest = line.partition(":")
                name = name.strip()
                if not name.isidentifier():
                    raise AssemblerError(
                        f"line {line_number}: bad label {name!r}"
                    )
                if name in labels:
                    raise AssemblerError(
                        f"line {line_number}: duplicate label {name!r}"
                    )
                labels[name] = 4 * len(items)
                line = rest.strip()
            if not line:
                continue

            item = parsed.get(line)
            if item is None:
                try:
                    item = self._parse_line(table, line)
                except ReproError as exc:
                    raise AssemblerError(
                        f"line {line_number}: {exc}") from None
                parsed[line] = item
            kind = type(item)
            if kind is list:
                items.extend(item)
                item_lines.extend([stripped] * len(item))
                continue
            if kind is _PendingBranch:
                pending.append((len(items), line_number))
            items.append(item)
            item_lines.append(stripped)

        for index, line_number in pending:
            item = items[index]
            if item.label not in labels:
                raise AssemblerError(
                    f"line {line_number}: undefined label {item.label!r}")
            items[index] = Instruction(
                item.mnemonic, item.rd, item.rs1, item.rs2, 0,
                labels[item.label] - 4 * index)
        return AssembledProgram(items, labels, item_lines)


def assemble(source: str, isa: InstructionSet) -> AssembledProgram:
    """Module-level convenience wrapper around :class:`Assembler`."""
    return Assembler(isa).assemble(source)
