"""Unit + property tests for the six custom instructions (Figures 1-3).

Each instruction is checked twice: the pure semantic function against an
arbitrary-precision oracle, and the simulator execution against the pure
function — so the paper's definitions, our semantics and the machine all
agree.
"""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.core import ise
from repro.core.ise import (
    MASK57,
    REDUCED_RADIX_BITS,
    cadd_value,
    madd57hu_value,
    madd57lu_value,
    maddhu_value,
    maddlu_value,
    msa2,
    sraiadd_value,
)
from repro.rv64.bits import MASK64, s64, u64
from repro.rv64.isa import Instruction
from repro.rv64.machine import MachineState
from tests.helpers import run_asm

U64 = st.integers(min_value=0, max_value=MASK64)
U57 = st.integers(min_value=0, max_value=MASK57)


class TestPureSemantics:
    @given(U64, U64, U64)
    def test_maddlu_oracle(self, x, y, z):
        assert maddlu_value(x, y, z) == (x * y + z) & MASK64

    @given(U64, U64, U64)
    def test_maddhu_oracle(self, x, y, z):
        assert maddhu_value(x, y, z) == ((x * y + z) >> 64) & MASK64

    @given(U64, U64, U64)
    def test_madd_pair_recomposes_product_plus_addend(self, x, y, z):
        lo = maddlu_value(x, y, z)
        hi = maddhu_value(x, y, z)
        assert (hi << 64) | lo == x * y + z

    @given(U64, U64, U64)
    def test_madd57lu_oracle(self, x, y, z):
        assert madd57lu_value(x, y, z) == u64(((x * y) & MASK57) + z)

    @given(U64, U64, U64)
    def test_madd57hu_oracle(self, x, y, z):
        assert madd57hu_value(x, y, z) == u64(((x * y) >> 57) + z)

    @given(U57, U57)
    def test_madd57_pair_recomposes_product(self, x, y):
        lo = madd57lu_value(x, y, 0)
        hi = madd57hu_value(x, y, 0)
        assert (hi << REDUCED_RADIX_BITS) + lo == x * y

    @given(U64, U64, U64)
    def test_cadd_oracle(self, x, y, z):
        carry = 1 if x + y > MASK64 else 0
        assert cadd_value(x, y, z) == u64(carry + z)

    @given(U64, U64, st.integers(0, 63))
    def test_sraiadd_oracle(self, x, y, imm):
        assert sraiadd_value(x, y, imm) == u64(x + (s64(y) >> imm))

    @given(U64, U64, st.integers(0, 63), U64, U64)
    def test_msa2_general_form(self, x, y, j, m, z):
        assert msa2(x, y, j, m, z) == u64((((x * y) >> j) & m) + z)

    @given(U64, U64, U64)
    def test_madd57_instances_of_msa2(self, x, y, z):
        assert madd57lu_value(x, y, z) == msa2(x, y, 0, MASK57, z)
        assert madd57hu_value(x, y, z) == msa2(
            x, y, REDUCED_RADIX_BITS, MASK64, z)


class TestSaturationProblem:
    """The paper's motivation for a full 64-bit multiplier (Sect. 3.2):
    oversized (delayed-carry) limbs must still multiply correctly."""

    @given(
        st.integers(min_value=0, max_value=(1 << 58) - 1),  # 58-bit limb
        st.integers(min_value=0, max_value=(1 << 58) - 1),
    )
    def test_oversized_limbs_do_not_saturate(self, x, y):
        lo = madd57lu_value(x, y, 0)
        hi = madd57hu_value(x, y, 0)
        assert (hi << 57) + lo == x * y  # no truncation of inputs

    def test_doubled_limb_squaring_trick(self):
        # 2*a_i fits the multiplier: the reduced-radix squaring uses it
        a = MASK57
        doubled = 2 * a
        assert madd57hu_value(doubled, a, 0) == (doubled * a) >> 57


class TestSimulatorAgreement:
    @given(U64, U64, U64)
    def test_maddlu_maddhu_on_machine(self, x, y, z):
        machine = run_asm(
            "maddlu a0, a1, a2, a3\nmaddhu a4, a1, a2, a3",
            {"a1": x, "a2": y, "a3": z})
        assert machine.regs["a0"] == maddlu_value(x, y, z)
        assert machine.regs["a4"] == maddhu_value(x, y, z)

    @given(U64, U64, U64)
    def test_madd57_on_machine(self, x, y, z):
        machine = run_asm(
            "madd57lu a0, a1, a2, a3\nmadd57hu a4, a1, a2, a3",
            {"a1": x, "a2": y, "a3": z})
        assert machine.regs["a0"] == madd57lu_value(x, y, z)
        assert machine.regs["a4"] == madd57hu_value(x, y, z)

    @given(U64, U64, U64)
    def test_cadd_on_machine(self, x, y, z):
        machine = run_asm("cadd a0, a1, a2, a3",
                          {"a1": x, "a2": y, "a3": z})
        assert machine.regs["a0"] == cadd_value(x, y, z)

    @given(U64, U64)
    def test_sraiadd_on_machine(self, x, y):
        machine = run_asm("sraiadd a0, a1, a2, 57",
                          {"a1": x, "a2": y})
        assert machine.regs["a0"] == sraiadd_value(x, y, 57)

    def test_rd_equals_source_register(self):
        # accumulator update in place, as used by every MAC listing
        machine = run_asm("maddlu a0, a1, a2, a0",
                          {"a0": 10, "a1": 3, "a2": 4})
        assert machine.regs["a0"] == 22

    def test_write_to_x0_discarded(self):
        machine = run_asm("maddlu zero, a1, a2, a3",
                          {"a1": 3, "a2": 4, "a3": 5})
        assert machine.regs["zero"] == 0


#: Register values the inlined semantics must get right: every edge of
#: the 64-bit range, the 57-bit limb edges and the sign bit.
BOUNDARY = (0, 1, 2, MASK57 - 1, MASK57, MASK57 + 1, (1 << 63) - 1,
            1 << 63, MASK64 - 1, MASK64)
OPERAND = st.one_of(st.sampled_from(BOUNDARY), U64)

#: Each ``_exec_*`` body and the reference function it inlines.
EXECUTES = [
    (ise._exec_maddlu, maddlu_value),
    (ise._exec_maddhu, maddhu_value),
    (ise._exec_madd57lu, madd57lu_value),
    (ise._exec_madd57hu, madd57hu_value),
    (ise._exec_cadd, cadd_value),
]


class TestInlinedExecuteMatchesReference:
    """Each machine-level body, written inline without the reference
    functions' operand masks, against the reference on random and
    boundary register values (registers always hold ``[0, 2^64)``)."""

    @pytest.mark.parametrize("execute, reference", EXECUTES,
                             ids=lambda fn: getattr(fn, "__name__", ""))
    @given(x=OPERAND, y=OPERAND, z=OPERAND)
    def test_r4_body(self, execute, reference, x, y, z):
        state = MachineState()
        state.x[11], state.x[12], state.x[13] = x, y, z
        execute(state, Instruction("op", rd=10, rs1=11, rs2=12, rs3=13))
        assert state.x[10] == reference(x, y, z)

    @given(x=OPERAND, y=OPERAND, imm=st.integers(0, 63))
    def test_sraiadd_body(self, x, y, imm):
        state = MachineState()
        state.x[11], state.x[12] = x, y
        ise._exec_sraiadd(state, Instruction("sraiadd", rd=10, rs1=11,
                                             rs2=12, imm=imm))
        assert state.x[10] == sraiadd_value(x, y, imm)

    @pytest.mark.parametrize("execute", [fn for fn, _ in EXECUTES]
                             + [ise._exec_sraiadd],
                             ids=lambda fn: fn.__name__)
    def test_write_to_x0_is_discarded(self, execute):
        state = MachineState()
        state.x[11] = state.x[12] = state.x[13] = MASK64
        execute(state, Instruction("op", rd=0, rs1=11, rs2=12, rs3=13,
                                   imm=1))
        assert state.x[0] == 0
