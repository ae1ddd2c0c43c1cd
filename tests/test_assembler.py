"""Tests for the two-pass assembler: syntax, labels, pseudo expansion."""

from __future__ import annotations

import copy
import dataclasses
import pickle

import pytest

from repro.core.ise import EXTENDED_ISA
from repro.errors import AssemblerError
from repro.rv64.assembler import Assembler, assemble, expand_li
from repro.rv64.bits import u64
from repro.rv64.isa import BASE_ISA, Instruction
from tests.helpers import run_asm


class TestBasicSyntax:
    def test_simple_instruction(self):
        prog = assemble("add a0, a1, a2", BASE_ISA)
        assert prog.instructions == [
            Instruction("add", rd=10, rs1=11, rs2=12)
        ]

    def test_comments_stripped(self):
        source = """
        # full line comment
        add a0, a1, a2  # trailing
        sub a0, a0, a1  // c++ style
        and a0, a0, a1  ; asm style
        """
        assert len(assemble(source, BASE_ISA)) == 3

    def test_hex_and_binary_immediates(self):
        prog = assemble("addi a0, zero, 0x7f\naddi a1, zero, 0b101",
                        BASE_ISA)
        assert prog.instructions[0].imm == 0x7F
        assert prog.instructions[1].imm == 0b101

    def test_memory_operand_forms(self):
        prog = assemble("ld a0, 16(sp)\nsd a0, (sp)", BASE_ISA)
        assert prog.instructions[0].imm == 16
        assert prog.instructions[1].imm == 0

    def test_r4_operands(self):
        prog = assemble("maddlu t0, a0, a1, t0", EXTENDED_ISA)
        ins = prog.instructions[0]
        assert (ins.rd, ins.rs1, ins.rs2, ins.rs3) == (5, 10, 11, 5)

    def test_sraiadd_operands(self):
        prog = assemble("sraiadd t0, t1, t2, 57", EXTENDED_ISA)
        ins = prog.instructions[0]
        assert (ins.rd, ins.rs1, ins.rs2, ins.imm) == (5, 6, 7, 57)


class TestInstructionValue:
    """``Instruction`` is a frozen, slotted value: equal fields compare,
    hash and print alike, and copies and pickles round-trip."""

    INS = Instruction("sraiadd", rd=5, rs1=6, rs2=7, imm=-57)

    def test_value_semantics(self):
        twin = Instruction("sraiadd", 5, 6, 7, 0, -57)
        assert twin == self.INS and hash(twin) == hash(self.INS)
        assert repr(self.INS) == ("Instruction(mnemonic='sraiadd', rd=5, "
                                  "rs1=6, rs2=7, rs3=0, imm=-57)")
        assert not hasattr(self.INS, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            self.INS.rd = 1  # type: ignore[misc]

    @pytest.mark.parametrize("protocol",
                             range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_round_trip(self, protocol):
        restored = pickle.loads(pickle.dumps(self.INS, protocol))
        assert restored == self.INS and type(restored) is Instruction

    def test_copies(self):
        assert copy.copy(self.INS) == self.INS
        assert copy.deepcopy(self.INS) == self.INS
        assert dataclasses.replace(self.INS, rd=9).rd == 9


class TestLabels:
    def test_forward_branch(self):
        source = """
            beq a0, zero, done
            addi a1, a1, 1
        done:
            ret
        """
        prog = assemble(source, BASE_ISA)
        assert prog.instructions[0].imm == 8
        assert "done" in prog.labels

    def test_backward_branch(self):
        source = """
        loop:
            addi a0, a0, -1
            bne a0, zero, loop
        """
        prog = assemble(source, BASE_ISA)
        assert prog.instructions[1].imm == -4

    def test_jump_to_label(self):
        prog = assemble("j end\nnop\nend: ret", BASE_ISA)
        assert prog.instructions[0].mnemonic == "jal"
        assert prog.instructions[0].imm == 8

    def test_label_on_same_line(self):
        prog = assemble("start: add a0, a0, a1", BASE_ISA)
        assert prog.labels["start"] == 0

    def test_undefined_label(self):
        with pytest.raises(AssemblerError, match="undefined label"):
            assemble("beq a0, a1, nowhere", BASE_ISA)

    def test_duplicate_label(self):
        with pytest.raises(AssemblerError, match="duplicate"):
            assemble("x: nop\nx: nop", BASE_ISA)

    def test_undefined_label_names_its_line(self):
        with pytest.raises(AssemblerError) as info:
            assemble("nop\nnop\nbnez a0, nowhere\nret", BASE_ISA)
        assert str(info.value) == "line 3: undefined label 'nowhere'"

    @pytest.mark.parametrize("pseudo, expected", [
        ("beqz a0, 8", Instruction("beq", 0, 10, 0, 0, 8)),
        ("bnez a0, -4", Instruction("bne", 0, 10, 0, 0, -4)),
        ("bnez t1, 0x10", Instruction("bne", 0, 6, 0, 0, 16)),
        ("j 12", Instruction("jal", 0, 0, 0, 0, 12)),
        ("j -8", Instruction("jal", 0, 0, 0, 0, -8)),
    ])
    def test_numeric_pseudo_branch_target_is_an_offset(self, pseudo,
                                                       expected):
        """A numeric ``beqz``/``bnez``/``j`` target assembles as a byte
        offset, as ``beq``/``jal`` do, not as a label."""
        prog = assemble(f"nop\n{pseudo}\nret", BASE_ISA)
        assert prog.instructions[1] == expected

    def test_numeric_pseudo_branch_matches_its_base_form(self):
        pseudo = assemble("beqz a0, 8\nbnez a1, -4\nj 4", BASE_ISA)
        base = assemble("beq a0, zero, 8\nbne a1, zero, -4\njal zero, 4",
                        BASE_ISA)
        assert pseudo.instructions == base.instructions

    def test_numeric_beqz_runs(self):
        source = """
            beqz zero, 8
            li a0, 111
            ret
        """
        machine = run_asm(source, append_ret=False)
        assert machine.regs["a0"] == 0

    def test_label_offsets_account_for_li_expansion(self):
        source = """
            li a0, 0x123456789abcdef0
            beq a0, zero, done
            nop
        done:
            ret
        """
        machine = run_asm(source, append_ret=False)
        assert machine.regs["a0"] == 0x123456789ABCDEF0


class TestLiExpansion:
    @pytest.mark.parametrize("value", [
        0, 1, -1, 100, -100, 2047, -2048, 2048, -2049,
        0x7FFFFFFF, -0x80000000, 0x80000000, 1 << 40,
        (1 << 57) - 1, 0xFFFFFFFFFFFFFFFF, 0x8000000000000000,
        0xDEADBEEFCAFEBABE,
    ])
    def test_value_exact(self, value):
        machine = run_asm(f"li t3, {value}")
        assert machine.regs["t3"] == u64(value)

    def test_small_is_one_instruction(self):
        assert len(expand_li(10, 42)) == 1
        assert len(expand_li(10, -42)) == 1

    def test_32bit_is_two_instructions(self):
        assert len(expand_li(10, 0x12345678)) == 2

    def test_expansion_writes_only_target(self):
        for ins in expand_li(10, 0xDEADBEEFCAFEBABE):
            assert ins.rd == 10


class TestErrors:
    def test_unknown_mnemonic(self):
        with pytest.raises(AssemblerError):
            assemble("frobnicate a0, a1", BASE_ISA)

    def test_wrong_operand_count(self):
        with pytest.raises(AssemblerError, match="expected 3"):
            assemble("add a0, a1", BASE_ISA)

    def test_bad_register(self):
        with pytest.raises(AssemblerError):
            assemble("add a0, a1, q9", BASE_ISA)

    def test_bad_immediate(self):
        with pytest.raises(AssemblerError):
            assemble("addi a0, a1, twelve", BASE_ISA)

    def test_bad_memory_operand(self):
        with pytest.raises(AssemblerError, match="imm\\(reg\\)"):
            assemble("ld a0, a1", BASE_ISA)

    def test_line_number_in_error(self):
        with pytest.raises(AssemblerError, match="line 3"):
            assemble("nop\nnop\nbogus x, y", BASE_ISA)

    def test_ise_mnemonic_requires_extended_isa(self):
        with pytest.raises(AssemblerError):
            Assembler(BASE_ISA).assemble("maddlu t0, a0, a1, t0")


class TestControlFlowExecution:
    def test_loop_countdown(self):
        source = """
            li a0, 10
            li a1, 0
        loop:
            addi a1, a1, 2
            addi a0, a0, -1
            bnez a0, loop
            ret
        """
        machine = run_asm(source, append_ret=False)
        assert machine.regs["a1"] == 20

    def test_jal_links(self):
        source = """
            jal a5, target
        target:
            ret
        """
        machine = run_asm(source, append_ret=False)
        assert machine.regs["a5"] == 0x1000 + 4

    def test_beqz_taken(self):
        source = """
            beqz zero, skip
            li a0, 111
        skip:
            ret
        """
        machine = run_asm(source, append_ret=False)
        assert machine.regs["a0"] == 0


#: Every malformed-input error text, pinned from the assembler as it
#: stood before its one-pass rewrite (source -> exact message).
PINNED_ERRORS = [
    ('frobnicate a0, a1',
     "line 1: unknown mnemonic 'frobnicate' in ISA 'rv64im+ise-all'"),
    ('add a0, a1',
     'line 1: add: expected 3 operands, got 2'),
    ('add a0, a1, a2, a3',
     'line 1: add: expected 3 operands, got 4'),
    ('add a0, , a1',
     'line 1: add: expected 3 operands, got 2'),
    ('maddlu t0, a0, a1',
     'line 1: maddlu: expected 4 operands, got 3'),
    ('addi a0, a1',
     'line 1: addi: expected 3 operands, got 2'),
    ('slli a0, a1',
     'line 1: slli: expected 3 operands, got 2'),
    ('ld a0',
     'line 1: ld: expected 2 operands, got 1'),
    ('ld a0, 0(a1), 8',
     'line 1: ld: expected 2 operands, got 3'),
    ('sd a0',
     'line 1: sd: expected 2 operands, got 1'),
    ('beq a0, a1',
     'line 1: beq: expected 3 operands, got 2'),
    ('lui a0',
     'line 1: lui: expected 2 operands, got 1'),
    ('jal a0',
     'line 1: jal: expected 2 operands, got 1'),
    ('sraiadd t0, t1, t2',
     'line 1: sraiadd: expected 4 operands, got 3'),
    ('ebreak a0',
     'line 1: ebreak: expected 0 operands, got 1'),
    ('add a0, a1, q9',
     "line 1: unknown register name: 'q9'"),
    ('add q9, a1, a2',
     "line 1: unknown register name: 'q9'"),
    ('add a0, x32, a2',
     "line 1: unknown register name: 'x32'"),
    ('maddlu t0, a0, a1, x99',
     "line 1: unknown register name: 'x99'"),
    ('addi a0, a1, twelve',
     "line 1: bad integer literal 'twelve'"),
    ('addi a0, a1, 08',
     "line 1: bad integer literal '08'"),
    ('addi a0, a1, 0x',
     "line 1: bad integer literal '0x'"),
    ('addi q0, a1, x',
     "line 1: unknown register name: 'q0'"),
    ('slli a0, a1, 1.5',
     "line 1: bad integer literal '1.5'"),
    ('ld a0, a1',
     "line 1: expected imm(reg), got 'a1'"),
    ('ld a0, 8(a1',
     "line 1: expected imm(reg), got '8(a1'"),
    ('ld a0, x(a1)',
     "line 1: bad integer literal 'x'"),
    ('ld a0, 8(q1)',
     "line 1: unknown register name: 'q1'"),
    ('ld q0, 8(q1)',
     "line 1: unknown register name: 'q1'"),
    ('ld q0, 8(a1)',
     "line 1: unknown register name: 'q0'"),
    ('sd q0, 8(a1)',
     "line 1: unknown register name: 'q0'"),
    ('sd a0, x(q1)',
     "line 1: bad integer literal 'x'"),
    ('lui a0, foo',
     "line 1: bad integer literal 'foo'"),
    ('lui q0, 1',
     "line 1: unknown register name: 'q0'"),
    ('jal q0, L',
     "line 1: unknown register name: 'q0'"),
    ('beq q0, a1, L',
     "line 1: unknown register name: 'q0'"),
    ('beq a0, q1, L',
     "line 1: unknown register name: 'q1'"),
    ('sraiadd t0, t1, t2, x',
     "line 1: bad integer literal 'x'"),
    ('1x: nop',
     "line 1: bad label '1x'"),
    ('a b: nop',
     "line 1: bad label 'a b'"),
    (': nop',
     "line 1: bad label ''"),
    ('x: nop\nx: nop',
     "line 2: duplicate label 'x'"),
    ('beq a0, a1, nowhere',
     "line 1: undefined label 'nowhere'"),
    ('j nowhere',
     "line 1: undefined label 'nowhere'"),
    ('jal ra, nowhere',
     "line 1: undefined label 'nowhere'"),
    ('bnez a0, 1abc',
     "line 1: undefined label '1abc'"),
    ('li a0',
     'line 1: li needs two operands'),
    ('li a0, 1, 2',
     'line 1: li needs two operands'),
    ('li a0, bad',
     "line 1: bad integer literal 'bad'"),
    ('li q0, 1',
     "line 1: unknown register name: 'q0'"),
    ('nop\nnop\nbogus x, y',
     "line 3: unknown mnemonic 'bogus' in ISA 'rv64im+ise-all'"),
    ('mv a0, q1',
     "line 1: unknown register name: 'q1'"),
    ('not q0, a1',
     "line 1: unknown register name: 'q0'"),
    ('neg a0, q1',
     "line 1: unknown register name: 'q1'"),
    ('seqz a0, q1',
     "line 1: unknown register name: 'q1'"),
    ('snez q0, a1',
     "line 1: unknown register name: 'q0'"),
    ('jr q0',
     "line 1: unknown register name: 'q0'"),
    ('beqz q0, L',
     "line 1: unknown register name: 'q0'"),
    ('bnez q0, L',
     "line 1: unknown register name: 'q0'"),
]


@pytest.mark.parametrize("source, message", PINNED_ERRORS)
def test_error_text_is_pinned(source, message):
    with pytest.raises(AssemblerError) as info:
        assemble(source, EXTENDED_ISA)
    assert str(info.value) == message


#: pseudo-instruction -> (operand count, a well-formed operand list)
PSEUDO_OPERANDS = {
    "nop": (0, []),
    "ret": (0, []),
    "mv": (2, ["a0", "a1"]),
    "not": (2, ["a0", "a1"]),
    "neg": (2, ["a0", "a1"]),
    "seqz": (2, ["a0", "a1"]),
    "snez": (2, ["a0", "a1"]),
    "li": (2, ["a0", "5"]),
    "jr": (1, ["a0"]),
    "beqz": (2, ["a0", "L"]),
    "bnez": (2, ["a0", "L"]),
    "j": (1, ["L"]),
}


def _wrong_count_lines():
    for mnemonic, (count, operands) in PSEUDO_OPERANDS.items():
        if count:
            yield f"{mnemonic} {', '.join(operands[:-1])}".strip()
        yield f"{mnemonic} {', '.join(operands + ['x'])}"
    # the reported cases: an IndexError, or extra operands dropped
    yield from ("mv a0", "neg", "j", "jr", "mv a0, a1, a2", "ret a0",
                "seqz a0, a1, 5", "beqz a0, L, x")


class TestPseudoOperandCounts:
    @pytest.mark.parametrize("mnemonic", sorted(PSEUDO_OPERANDS))
    def test_well_formed(self, mnemonic):
        _count, operands = PSEUDO_OPERANDS[mnemonic]
        line = f"{mnemonic} {', '.join(operands)}".strip()
        assert len(assemble(f"nop\n{line}\nL: ret", BASE_ISA)) >= 3

    @pytest.mark.parametrize("line", sorted(set(_wrong_count_lines())))
    def test_wrong_count_names_line_and_count(self, line):
        mnemonic, _, rest = line.partition(" ")
        got = len([token for token in rest.split(",") if token.strip()])
        count = PSEUDO_OPERANDS[mnemonic][0]
        expected = ("li needs two operands" if mnemonic == "li" else
                    f"{mnemonic}: expected {count} operands, got {got}")
        with pytest.raises(AssemblerError) as info:
            assemble(f"nop\n{line}\nL: ret", BASE_ISA)
        assert str(info.value) == f"line 2: {expected}"
