"""Property test: every line the assembler accepts assembles as written.

Programs are drawn line by line from every instruction format and every
pseudo-instruction, in the spellings the syntax allows: ABI, ``xN`` and
``fp`` register names in mixed case; decimal, hex, binary and octal
immediates with either sign; tabs and extra spaces; ``#``, ``//`` and
``;`` comments; labels before an instruction and labels alone on a
line.  Each program must assemble to exactly the expected
instructions, labels and source lines.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ise import EXTENDED_ISA
from repro.rv64.assembler import assemble, expand_li
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
)
from repro.rv64.registers import ABI_NAMES

SPACES = (" ", "\t", "  ", " \t", "\t ", "   ")
BLANK = st.sampled_from(("",) + SPACES)
SPACE = st.sampled_from(SPACES)
COMMENT_TEXT = st.text("abc XYZ019,:()#;/-\t", max_size=12)

#: Mnemonics of every format, ISE formats included.
BY_FORMAT = {
    fmt: sorted(spec.mnemonic for spec in EXTENDED_ISA.specs()
                if spec.fmt == fmt)
    for fmt in (FMT_R, FMT_R4, FMT_I, FMT_I_SHIFT, FMT_LOAD, FMT_S,
                FMT_B, FMT_U, FMT_J, FMT_RIA, FMT_NONE)
}

PSEUDOS = ("nop", "mv", "not", "neg", "seqz", "snez", "li", "ret", "jr",
           "beqz", "bnez", "j")


@st.composite
def mixed_case(draw, text: str) -> str:
    flips = draw(st.lists(st.booleans(), min_size=len(text),
                          max_size=len(text)))
    return "".join(c.upper() if flip else c for c, flip in zip(text, flips))


@st.composite
def register(draw) -> tuple[int, str]:
    index = draw(st.integers(0, 31))
    names = [ABI_NAMES[index], f"x{index}"] + (["fp"] if index == 8 else [])
    return index, draw(mixed_case(draw(st.sampled_from(names))))


@st.composite
def immediate(draw, low: int = -(1 << 40), high: int = 1 << 40):
    value = draw(st.integers(low, high))
    base = draw(st.sampled_from(("d", "x", "b", "o")))
    digits = format(abs(value), base)
    prefix = {"d": "", "x": "0x", "b": "0b", "o": "0o"}[base]
    if draw(st.booleans()):
        prefix, digits = prefix.upper(), digits.upper()
    sign = "-" if value < 0 else draw(st.sampled_from(("", "+")))
    return value, sign + prefix + digits


@st.composite
def operands(draw, tokens: list[str]) -> str:
    """Join operand tokens with commas and random blanks."""
    out = ""
    for position, token in enumerate(tokens):
        if position:
            out += draw(BLANK) + "," + draw(BLANK)
        out += token
    return out


@st.composite
def mem_operand(draw) -> tuple[int, int, str]:
    reg, name = draw(register())
    imm, text = draw(immediate(-2048, 2047))
    if imm == 0 and draw(st.booleans()):
        text = ""
    return imm, reg, f"{text}{draw(BLANK)}({draw(BLANK)}{name}{draw(BLANK)})"


@st.composite
def comment(draw) -> str:
    if not draw(st.booleans()):
        return ""
    marker = draw(st.sampled_from(("#", "//", ";")))
    return draw(BLANK) + marker + draw(COMMENT_TEXT)


@st.composite
def instruction_line(draw, labels: list[str]):
    """Returns ``(text, build)`` where ``build(index, label_offsets)``
    gives the expected instructions of the line at instruction *index*
    (branches to labels need the final offsets)."""
    kinds = sorted(BY_FORMAT) + [
        p for p in PSEUDOS if labels or p not in ("beqz", "bnez", "j")]
    kind = draw(st.sampled_from(kinds))
    mnemonic = (draw(st.sampled_from(BY_FORMAT[kind]))
                if kind in BY_FORMAT else kind)
    regs = [draw(register()) for _ in range(4)]
    idx = [r[0] for r in regs]
    names = [r[1] for r in regs]
    imm, imm_text = draw(immediate())
    target = draw(st.sampled_from(labels)) if labels else None
    to_label = target is not None and draw(st.booleans())

    def fixed(*instructions):
        return lambda index, offsets: list(instructions)

    def branch(m, rd, rs1, rs2):
        if to_label:
            return lambda index, offsets: [Instruction(
                m, rd, rs1, rs2, 0, offsets[target] - 4 * index)]
        return fixed(Instruction(m, rd, rs1, rs2, 0, imm))

    tokens: list[str]
    if kind == FMT_R:
        tokens, build = names[:3], fixed(Instruction(mnemonic, *idx[:3]))
    elif kind == FMT_R4:
        tokens, build = names, fixed(Instruction(mnemonic, *idx))
    elif kind in (FMT_I, FMT_I_SHIFT):
        tokens = names[:2] + [imm_text]
        build = fixed(Instruction(mnemonic, idx[0], idx[1], 0, 0, imm))
    elif kind in (FMT_LOAD, FMT_S):
        offset, base, text = draw(mem_operand())
        tokens = [names[0], text]
        build = fixed(Instruction(mnemonic, idx[0], base, 0, 0, offset)
                      if kind == FMT_LOAD else
                      Instruction(mnemonic, 0, base, idx[0], 0, offset))
    elif kind == FMT_B:
        tokens = names[:2] + [target if to_label else imm_text]
        build = branch(mnemonic, 0, idx[0], idx[1])
    elif kind == FMT_U:
        tokens = [names[0], imm_text]
        build = fixed(Instruction(mnemonic, idx[0], 0, 0, 0, imm))
    elif kind == FMT_J:
        tokens = [names[0], target if to_label else imm_text]
        build = branch(mnemonic, idx[0], 0, 0)
    elif kind == FMT_RIA:
        tokens = names[:3] + [imm_text]
        build = fixed(Instruction(mnemonic, *idx[:3], 0, imm))
    elif kind == FMT_NONE:
        tokens, build = [], fixed(Instruction(mnemonic))
    elif kind in ("nop", "ret"):
        tokens = []
        build = fixed(Instruction("addi") if kind == "nop"
                      else Instruction("jalr", 0, 1))
    elif kind in ("mv", "not", "neg", "seqz", "snez"):
        rd, rs = idx[:2]
        tokens = names[:2]
        build = fixed({
            "mv": Instruction("addi", rd, rs),
            "not": Instruction("xori", rd, rs, 0, 0, -1),
            "neg": Instruction("sub", rd, 0, rs),
            "seqz": Instruction("sltiu", rd, rs, 0, 0, 1),
            "snez": Instruction("sltu", rd, 0, rs),
        }[kind])
    elif kind == "li":
        tokens = [names[0], imm_text]
        build = fixed(*expand_li(idx[0], imm))
    elif kind == "jr":
        tokens, build = names[:1], fixed(Instruction("jalr", 0, idx[0]))
    elif kind in ("beqz", "bnez"):
        tokens = [names[0], target]
        to_label = True
        build = branch("beq" if kind == "beqz" else "bne", 0, idx[0], 0)
    else:  # j
        tokens, to_label = [target], True
        build = branch("jal", 0, 0, 0)

    text = draw(mixed_case(mnemonic))
    if tokens:
        text += draw(SPACE) + draw(operands(tokens))
    return text, build


@st.composite
def program(draw):
    """``(source, expected instructions, labels, source lines)``."""
    count = draw(st.integers(1, 8))
    labels = [f"L{n}" for n in range(draw(st.integers(0, 3)))]
    # where each label goes: before line k, alone or on the line
    placement = {name: (draw(st.integers(0, count)), draw(st.booleans()))
                 for name in labels}
    lines, builds, offsets = [], [], {}
    index = 0
    for k in range(count + 1):
        prefix = ""
        for name, (at, alone) in placement.items():
            if at != k:
                continue
            offsets[name] = 4 * index
            label = name + draw(BLANK) + ":"
            if alone or k == count:
                lines.append(draw(BLANK) + label + draw(comment()))
            else:
                prefix += label + draw(BLANK)
        if k == count:
            break
        text, build = draw(instruction_line(labels))
        raw = draw(BLANK) + prefix + text + draw(BLANK) + draw(comment())
        lines.append(raw)
        builds.append((index, build, raw.strip()))
        # offsets may not all be known yet: any value gives the length
        index += len(build(index, dict.fromkeys(labels, 0)))
        if draw(st.booleans()):
            lines.append(draw(BLANK) + draw(comment()))

    instructions, source_lines = [], []
    for at, build, raw in builds:
        produced = build(at, offsets)
        instructions += produced
        source_lines += [raw] * len(produced)
    return "\n".join(lines), instructions, offsets, source_lines


@settings(max_examples=200, deadline=None)
@given(program())
def test_every_drawn_program_assembles_as_written(case):
    source, instructions, labels, source_lines = case
    assembled = assemble(source, EXTENDED_ISA)
    assert assembled.instructions == instructions
    assert assembled.labels == labels
    assert assembled.source_lines == source_lines
