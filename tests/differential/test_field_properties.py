"""Property tests: aot-backed field arithmetic vs pure Python.

:class:`SimulatedFieldContext` defaults to the aot engine;
these Hypothesis properties assert it is *extensionally equal* to the
pure-Python :class:`FieldContext` over randomly drawn (and boundary-
biased) field elements, for every implementation variant.  A second
property drives individual kernels through :func:`kernel_operands`
and compares the fused result against the kernel's golden
reference — the same oracle ``check=True`` uses, but sampled by
Hypothesis instead of a fixed seed.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.csidh.parameters import csidh_toy
from repro.field.fp import FieldContext
from repro.field.simulated import SimulatedFieldContext
from repro.kernels.registry import cached_runner
from repro.kernels.spec import (
    ALL_VARIANTS,
    OP_FP_ADD,
    OP_FP_MUL,
    OP_FP_SQR,
    OP_FP_SUB,
    OP_INT_MUL,
    OP_MONT_REDC,
)

from tests.helpers import kernel_operands

P = csidh_toy().p

#: Module-lifetime contexts: kernels assemble and trace-compile once.
_SIM: dict[str, SimulatedFieldContext] = {}


def simulated(variant: str) -> SimulatedFieldContext:
    if variant not in _SIM:
        _SIM[variant] = SimulatedFieldContext(P, variant=variant)
    return _SIM[variant]


elements = st.integers(min_value=0, max_value=P - 1)
variants = st.sampled_from(ALL_VARIANTS)


@settings(deadline=None, max_examples=30)
@given(variant=variants, a=elements, b=elements)
def test_mul_matches_python(variant, a, b):
    assert simulated(variant).mul(a, b) == FieldContext(P).mul(a, b)


@settings(deadline=None, max_examples=30)
@given(variant=variants, a=elements)
def test_sqr_matches_python(variant, a):
    assert simulated(variant).sqr(a) == FieldContext(P).sqr(a)


@settings(deadline=None, max_examples=30)
@given(variant=variants, a=elements, b=elements)
def test_add_matches_python(variant, a, b):
    assert simulated(variant).add(a, b) == FieldContext(P).add(a, b)


@settings(deadline=None, max_examples=30)
@given(variant=variants, a=elements, b=elements)
def test_sub_matches_python(variant, a, b):
    assert simulated(variant).sub(a, b) == FieldContext(P).sub(a, b)


@settings(deadline=None, max_examples=20)
@given(variant=variants, a=elements, b=elements, c=elements)
def test_algebraic_identities_on_fast_path(variant, a, b, c):
    """(a+b)*c == a*c + b*c and (a-b)+(b-a) == 0, computed entirely by
    fused kernels — exercises composition, not just single ops."""
    sim = simulated(variant)
    lhs = sim.mul(sim.add(a, b), c)
    rhs = sim.add(sim.mul(a, c), sim.mul(b, c))
    assert lhs == rhs
    assert sim.add(sim.sub(a, b), sim.sub(b, a)) == 0


#: Kernel-level: fused aot execution vs the kernel's golden reference.
_KERNEL_NAMES = [
    f"{operation}.{variant}"
    for operation in (OP_FP_MUL, OP_FP_SQR, OP_FP_ADD, OP_FP_SUB,
                      OP_INT_MUL, OP_MONT_REDC)
    for variant in ALL_VARIANTS
]


@settings(deadline=None, max_examples=60)
@given(data=st.data())
def test_replayed_kernel_matches_reference(data):
    name = data.draw(st.sampled_from(_KERNEL_NAMES))
    runner = cached_runner(P, name, engine="aot")
    values = data.draw(kernel_operands(runner.kernel))
    run = runner.run(*values, check=False)
    assert run.value == runner.kernel.reference(*values), (
        f"{name} diverges from its reference on {values}")
