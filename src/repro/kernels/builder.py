"""Kernel builder used by the generators: instructions plus their text.

Generated kernels are fully unrolled straight-line functions (the paper:
"we also unroll the loops fully"), so the builder is deliberately
simple.  It has one method per instruction format of
:mod:`repro.rv64.isa` (:meth:`~KernelBuilder.r`, :meth:`~KernelBuilder.r4`,
:meth:`~KernelBuilder.i` for immediates and shifts,
:meth:`~KernelBuilder.load`, :meth:`~KernelBuilder.store`,
:meth:`~KernelBuilder.ria`) plus the pseudo-instructions the generators
use (:meth:`~KernelBuilder.li`, :meth:`~KernelBuilder.mv`,
:meth:`~KernelBuilder.ret`).  Each call appends the
:class:`~repro.rv64.isa.Instruction` itself (``li`` its
:func:`~repro.rv64.assembler.expand_li` expansion) to the kernel's
program and the line the assembler would read it from to the kernel's
source, so :meth:`~KernelBuilder.program` is exactly
``assemble(builder.build(), isa)`` with no text parsed
(``tests/differential/test_builder_vs_assembler.py`` holds every
generated kernel to that).

Instructions are interned by line text: a caller that builds many
kernels passes every builder the same table (one per
:func:`~repro.kernels.registry.build_all_kernels` call), so a line
repeated across kernels is resolved and allocated once, and its text
is kept once.  A miss checks
the mnemonic's format against the instruction specs and resolves each
register name with one lookup.

The builder also hands out scratch registers from an explicit pool and
counts the static mnemonics (pseudo-instructions before expansion) that
the listing-count experiments consume.
"""

from __future__ import annotations

from collections import Counter

from repro.errors import KernelError
from repro.rv64.assembler import AssembledProgram, expand_li
from repro.rv64.isa import (
    FMT_I,
    FMT_I_SHIFT,
    FMT_LOAD,
    FMT_R,
    FMT_R4,
    FMT_RIA,
    FMT_S,
    Instruction,
    _lookup_format,
)
from repro.rv64.registers import _NAME_TO_INDEX

#: Registers a bare-metal kernel may freely use.  Everything except
#: ``zero``, ``ra`` (return address), ``sp`` and ``a0`` (result pointer)
#: is available; ``a1``/``a2`` come last so operand pointers are only
#: recycled once the generator has consumed them.
KERNEL_REGISTER_POOL: tuple[str, ...] = (
    "t0", "t1", "t2", "t3", "t4", "t5", "t6",
    "s0", "s1", "s2", "s3", "s4", "s5", "s6", "s7", "s8", "s9",
    "s10", "s11",
    "a3", "a4", "a5", "a6", "a7",
    "gp", "tp",
    "a2", "a1",
)


class RegisterPool:
    """Hands out named registers; raises when a kernel would spill."""

    def __init__(self, reserved: tuple[str, ...] = ()) -> None:
        self._free = [r for r in KERNEL_REGISTER_POOL if r not in reserved]
        self._taken: dict[str, str] = {}

    def take(self, purpose: str) -> str:
        """Allocate one register, labelled with *purpose* for errors."""
        if not self._free:
            raise KernelError(
                f"register pool exhausted allocating {purpose!r}; "
                f"in use: {sorted(self._taken)}"
            )
        reg = self._free.pop(0)
        self._taken[reg] = purpose
        return reg

    def take_many(self, count: int, purpose: str) -> list[str]:
        return [self.take(f"{purpose}[{i}]") for i in range(count)]

    def release(self, reg: str) -> None:
        if reg not in self._taken:
            raise KernelError(f"releasing register {reg} not in use")
        del self._taken[reg]
        self._free.insert(0, reg)

    def release_many(self, regs: list[str]) -> None:
        for reg in regs:
            self.release(reg)

    @property
    def available(self) -> int:
        return len(self._free)


class _SymbolicRegisters(dict):
    """Register table of a listing written with symbolic names (the
    paper's ``e``, ``h``, ``l``): a name that is no register resolves
    to ``x0``, since only the text of such a listing is read."""

    def __missing__(self, name: str) -> int:
        return 0


_SYMBOLIC_REGISTERS = _SymbolicRegisters(_NAME_TO_INDEX)

_R = (FMT_R,)
_R4 = (FMT_R4,)
_I = (FMT_I, FMT_I_SHIFT)
_LOAD = (FMT_LOAD,)
_STORE = (FMT_S,)
_RIA = (FMT_RIA,)


class KernelBuilder:
    """Accumulates a kernel's instructions, its source text and static
    statistics.

    *interned* is the table to share with other builders (a fresh one
    by default).  It maps a line's text to that text and its
    instruction (``li``: its expansion), so a kernel's source lines
    and instructions are each one object per distinct line.
    """

    def __init__(self, name: str,
                 interned: dict[str, object] | None = None) -> None:
        self.name = name
        self._texts: list[str] = []      # one per source instruction
        self._mnemonics: list[str] = []  # one per source instruction
        self._marks: list[tuple[int, str]] = []  # (text index, line)
        self._instructions: list[Instruction] = []
        self._source_lines: list[str] = []  # one per instruction
        self._labels: dict[str, int] = {}
        self._interned = {} if interned is None else interned
        self._registers: dict[str, int] = _NAME_TO_INDEX

    @classmethod
    def listing(cls, emit, *registers: str) -> list[str]:
        """The lines *emit* (a function of a builder and register
        names, such as the listings of :mod:`repro.core.macros`)
        writes for *registers*, which may be symbolic names."""
        builder = cls("listing")
        builder._registers = _SYMBOLIC_REGISTERS
        emit(builder, *registers)
        return builder._texts

    # -- one method per instruction format ----------------------------------

    def r(self, mnemonic: str, rd: str, rs1: str, rs2: str) -> None:
        """``mnemonic rd, rs1, rs2``."""
        text = f"{mnemonic} {rd}, {rs1}, {rs2}"
        entry = self._interned.get(text)
        if entry is None:
            entry = self._intern(text, mnemonic, _R, rd, rs1, rs2)
        self._append(mnemonic, *entry)

    def r4(self, mnemonic: str, rd: str, rs1: str, rs2: str,
           rs3: str) -> None:
        """``mnemonic rd, rs1, rs2, rs3`` (the custom MAC format)."""
        text = f"{mnemonic} {rd}, {rs1}, {rs2}, {rs3}"
        entry = self._interned.get(text)
        if entry is None:
            entry = self._intern(text, mnemonic, _R4, rd, rs1, rs2, rs3)
        self._append(mnemonic, *entry)

    def i(self, mnemonic: str, rd: str, rs1: str, imm: int) -> None:
        """``mnemonic rd, rs1, imm`` (immediate ALU ops and shifts)."""
        text = f"{mnemonic} {rd}, {rs1}, {imm}"
        entry = self._interned.get(text)
        if entry is None:
            entry = self._intern(text, mnemonic, _I, rd, rs1, imm=imm)
        self._append(mnemonic, *entry)

    def load(self, mnemonic: str, rd: str, imm: int, rs1: str) -> None:
        """``mnemonic rd, imm(rs1)``."""
        text = f"{mnemonic} {rd}, {imm}({rs1})"
        entry = self._interned.get(text)
        if entry is None:
            entry = self._intern(text, mnemonic, _LOAD, rd, rs1, imm=imm)
        self._append(mnemonic, *entry)

    def store(self, mnemonic: str, rs2: str, imm: int, rs1: str) -> None:
        """``mnemonic rs2, imm(rs1)``."""
        text = f"{mnemonic} {rs2}, {imm}({rs1})"
        entry = self._interned.get(text)
        if entry is None:
            entry = self._intern(text, mnemonic, _STORE, "zero", rs1, rs2,
                               imm=imm)
        self._append(mnemonic, *entry)

    def ria(self, mnemonic: str, rd: str, rs1: str, rs2: str,
            imm: int) -> None:
        """``mnemonic rd, rs1, rs2, imm`` (the ``sraiadd`` format)."""
        text = f"{mnemonic} {rd}, {rs1}, {rs2}, {imm}"
        entry = self._interned.get(text)
        if entry is None:
            entry = self._intern(text, mnemonic, _RIA, rd, rs1, rs2, imm=imm)
        self._append(mnemonic, *entry)

    # -- pseudo-instructions ----------------------------------------------------

    def li(self, rd: str, value: int) -> None:
        """``li rd, value``: the assembler's ``lui``/``addi(w)``/``slli``
        expansion, counted once as ``li``."""
        text = f"li {rd}, {value}"
        entry = self._interned.get(text)
        if entry is None:
            entry = self._interned[text] = (text, tuple(
                expand_li(self._register(rd, text), value)))
        text, expansion = entry
        self._texts.append(text)
        self._mnemonics.append("li")
        self._instructions.extend(expansion)
        self._source_lines.extend([text] * len(expansion))

    def mv(self, rd: str, rs: str) -> None:
        """``mv rd, rs``, i.e. ``addi rd, rs, 0``."""
        text = f"mv {rd}, {rs}"
        entry = self._interned.get(text)
        if entry is None:
            entry = self._intern(text, "addi", _I, rd, rs)
        self._append("mv", *entry)

    def ret(self) -> None:
        """``ret``, i.e. ``jalr zero, 0(ra)``."""
        entry = self._interned.get("ret")
        if entry is None:
            entry = self._interned["ret"] = ("ret", Instruction("jalr", 0, 1))
        self._append("ret", *entry)

    # -- text-only lines ------------------------------------------------------

    def comment(self, text: str) -> None:
        self._marks.append((len(self._texts), f"    # {text}"))

    def label(self, name: str) -> None:
        if not name.isidentifier() or name in self._labels:
            raise KernelError(f"bad or duplicate label {name!r}")
        self._labels[name] = 4 * len(self._instructions)
        self._marks.append((len(self._texts), f"{name}:"))

    # -- internals ------------------------------------------------------------

    def _append(self, mnemonic: str, text: str, ins: Instruction) -> None:
        self._texts.append(text)
        self._mnemonics.append(mnemonic)
        self._instructions.append(ins)
        self._source_lines.append(text)

    def _register(self, name: str, text: str) -> int:
        try:
            return self._registers[name]
        except KeyError:
            raise KernelError(
                f"{text!r}: unknown register {name!r}") from None

    def _intern(self, text: str, mnemonic: str, formats: tuple[str, ...],
                rd: str = "zero", rs1: str = "zero", rs2: str = "zero",
                rs3: str = "zero", *, imm: int = 0
                ) -> tuple[str, Instruction]:
        """Build the instruction of a line not seen yet and intern it
        with the line's text."""
        if _lookup_format(mnemonic) not in formats:
            raise KernelError(
                f"{text!r}: {mnemonic!r} is not a "
                f"{'/'.join(formats)}-format instruction")
        entry = self._interned[text] = (text, Instruction(
            mnemonic, self._register(rd, text), self._register(rs1, text),
            self._register(rs2, text), self._register(rs3, text), imm))
        return entry

    # -- results ------------------------------------------------------------

    @property
    def static_counts(self) -> Counter[str]:
        """Source instructions per mnemonic (pseudo-ops unexpanded)."""
        return Counter(self._mnemonics)

    @property
    def static_instructions(self) -> int:
        """Static instruction count (pseudo-ops counted pre-expansion)."""
        return len(self._mnemonics)

    def build(self) -> str:
        """Return the finished assembly source: one indented line per
        instruction, with the comments and labels where they were
        added."""
        texts = self._texts
        lines = []
        start = 0
        for index, line in self._marks:
            if index > start:
                lines.append("    " + "\n    ".join(texts[start:index]))
                start = index
            lines.append(line)
        if start < len(texts):
            lines.append("    " + "\n    ".join(texts[start:]))
        return f"# kernel: {self.name}\n" + "\n".join(lines) + "\n"

    def program(self) -> AssembledProgram:
        """The program :meth:`build`'s source assembles to."""
        return AssembledProgram(self._instructions, dict(self._labels),
                                self._source_lines)
