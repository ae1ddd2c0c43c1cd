"""Tests for the memory layout constants and the Kernel descriptor."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ParameterError
from repro.kernels.layout import (
    ARG_A_ADDR,
    ARG_B_ADDR,
    CODE_BASE,
    CONST_BASE,
    ConstPoolLayout,
    RESULT_ADDR,
    SCRATCH_ADDR,
)


class TestLayout:
    def test_regions_disjoint(self):
        """Code, constants, operands, result and scratch must never
        overlap for any supported limb count."""
        max_limbs = 20
        regions = [
            (CODE_BASE, CODE_BASE + 0x1000),
            (CONST_BASE,
             CONST_BASE + ConstPoolLayout(max_limbs).size_bytes),
            (ARG_A_ADDR, ARG_A_ADDR + 16 * 8 * max_limbs),
            (ARG_B_ADDR, ARG_B_ADDR + 8 * max_limbs),
            (RESULT_ADDR, RESULT_ADDR + 16 * 8 * max_limbs),
            (SCRATCH_ADDR, SCRATCH_ADDR + 32 * 8 * max_limbs),
        ]
        regions.sort()
        for (_, end), (start, _) in zip(regions, regions[1:]):
            assert end <= start

    def test_addresses_eight_byte_aligned(self):
        for address in (CONST_BASE, ARG_A_ADDR, ARG_B_ADDR,
                        RESULT_ADDR, SCRATCH_ADDR):
            assert address % 8 == 0

    def test_buffers_do_not_alias_dcache_sets(self):
        """The operand regions must land in different 16 kB/4-way
        D$ sets (same set + >4 regions would thrash; see layout.py)."""
        line, sets = 64, 64
        set_of = lambda a: (a // line) % sets
        indices = [set_of(a) for a in
                   (ARG_A_ADDR, ARG_B_ADDR, RESULT_ADDR, SCRATCH_ADDR)]
        assert len(set(indices)) == len(indices)

    def test_const_pool_offsets(self):
        layout = ConstPoolLayout(9)
        assert layout.modulus_offset == 0
        assert layout.n0_offset == 72
        assert layout.mask_offset == 80
        assert layout.size_bytes == 88


class TestKernelDescriptor:
    def test_properties(self, kernels512):
        kernel = kernels512["fp_mul.reduced.ise"]
        assert kernel.uses_ise
        assert kernel.radix_name == "reduced"
        assert "fp_mul.reduced.ise" in str(kernel)
        isa_kernel = kernels512["fp_mul.full.isa"]
        assert not isa_kernel.uses_ise
        assert isa_kernel.radix_name == "full"

    def test_shapes_consistent(self, kernels512):
        for kernel in kernels512.values():
            limbs = kernel.context.radix.limbs
            assert all(n in (limbs, 2 * limbs)
                       for n in kernel.input_limbs)
            assert kernel.output_limbs in (limbs, 2 * limbs)

    def test_samplers_in_domain(self, kernels512, rng):
        """Sampled operands must satisfy each kernel's preconditions
        (reduced < p, fast-reduce < 2p, redc < p*R)."""
        for kernel in kernels512.values():
            values = kernel.sampler(rng)
            assert len(values) == len(kernel.input_limbs)
            capacity = 1 << (kernel.context.radix.bits
                             * max(kernel.input_limbs))
            assert all(0 <= v < capacity for v in values)


#: The Montgomery-multiplication kernels, one per radix (the ISE
#: variants share their radix's reference).
_MONT_KERNELS = [f"{op}.{radix}.isa" for op in ("fp_mul", "fp_sqr")
                 for radix in ("full", "reduced")]


def _mont_model(kernel, a: int, b: int) -> tuple[int, int]:
    """(kernel reference, limb-level model) on ``(a, b)`` (``fp_sqr``
    squares ``a``)."""
    ctx = kernel.context
    if kernel.name.startswith("fp_sqr"):
        return kernel.reference(a), ctx.montgomery_multiply(a, a)
    return kernel.reference(a, b), ctx.montgomery_multiply(a, b)


class TestMontgomeryReference:
    """The ``fp_mul``/``fp_sqr`` reference is the closed form
    ``a·b·R^-1 mod p``; the limb-level
    ``MontgomeryContext.montgomery_multiply`` is the model it must
    equal, for both radices, at toy and CSIDH-512 size."""

    @pytest.fixture(params=["toy", "csidh-512"])
    def kernels(self, request, toy_kernels, kernels512):
        return toy_kernels if request.param == "toy" else kernels512

    @pytest.mark.parametrize("name", _MONT_KERNELS)
    def test_boundary_operands(self, kernels, name):
        kernel = kernels[name]
        p = kernel.context.modulus
        for a in (0, 1, p - 1):
            for b in (0, 1, p - 1):
                reference, model = _mont_model(kernel, a, b)
                assert reference == model

    @settings(max_examples=60)
    @given(name=st.sampled_from(_MONT_KERNELS),
           size=st.sampled_from(["toy", "csidh-512"]), data=st.data())
    def test_random_operands(self, toy_kernels, kernels512, name, size,
                             data):
        kernel = (toy_kernels if size == "toy" else kernels512)[name]
        p = kernel.context.modulus
        operand = st.one_of(st.sampled_from([0, 1, p - 1]),
                            st.integers(0, p - 1))
        a = data.draw(operand, label="a")
        b = data.draw(operand, label="b")
        reference, model = _mont_model(kernel, a, b)
        assert reference == model

    @pytest.mark.parametrize("name", _MONT_KERNELS)
    def test_unreduced_operands_raise(self, kernels, name):
        kernel = kernels[name]
        p = kernel.context.modulus
        arity = len(kernel.input_limbs)
        for bad in (p, p + 1, -1):
            for position in range(arity):
                values = [1] * arity
                values[position] = bad
                with pytest.raises(ParameterError):
                    kernel.reference(*values)
