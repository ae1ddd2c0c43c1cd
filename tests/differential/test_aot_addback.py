"""The add-back select rule (:mod:`repro.rv64.addback`) is exact.

The rule renders a W-bit select that adds ``p`` back on a borrow as
``(d − (d >> W)·p) & (2^W − 1)``.  It is checked here on the two
shapes the field kernels build, a swap-based conditional subtraction
(``X`` or ``X − p``, chosen by the borrow of ``X − p``) and an add-back
difference (``A − B``, plus ``p`` on its borrow):

* exhaustively over every operand pair of small widths and every odd
  modulus below ``2^W`` (the whole guard domain ``[0, 2^W)`` per
  operand, not only ``[0, p)``);
* as a Hypothesis property over random moduli at ``W ∈ {512, 513}``;
* beside cases where it must not fire, each of which a looser match
  would render wrongly;
* on the CSIDH-512 kernels and on ``fp_sub`` kernels of random moduli,
  whose value roots it renders.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.kernels.registry import build_kernel, make_contexts
from repro.kernels.spec import OP_FP_SUB
from repro.rv64 import addback, expr, lift
from tests.differential.test_aot_rewrites import _lifted_roots


def _select(shape: str, width: int, p: int, *, q: int | None = None,
            arm: int = 0, borrow_bit: int | None = None, mask: int = 0):
    """(graph, atoms, root) of one W-bit select over operands ``a``,
    ``b`` in ``[0, 2^W)``.

    ``swap``: ``X = (a + b) mod 2^W``; ``X`` on the borrow of ``X − q``,
    else ``X − p − arm``.  ``addback``: ``(a − b) mod 2^W`` plus ``p`` on
    the borrow of ``a − b``, or on bit *borrow_bit* of ``a − b``.  The
    root is masked to ``W − mask`` bits."""
    graph = expr.Graph()
    const = graph.const
    ones = (1 << width) - 1
    a, b = graph.atom("a", ones), graph.atom("b", ones)
    if shape == "swap":
        x = graph.and_(graph.add(a, b), const(ones))
        t = graph.and_(graph.sub(x, const(p + arm)), const(ones))
        beta = graph.lt(x, const(p if q is None else q))
        select = graph.and_(graph.sub(const(0), beta), const(ones))
        root = graph.xor(t, graph.and_(select, graph.xor(x, t)))
    else:
        difference = graph.sub(a, b)
        t = graph.and_(difference, const(ones))
        if borrow_bit is None:
            beta = graph.lt(a, b)
        else:
            beta = graph.and_(graph.shr(difference, const(borrow_bit)),
                              const(1))
        root = graph.add(t, graph.and_(graph.sub(const(0), beta), const(p)))
    return graph, [a, b], graph.and_(root, const((1 << (width - mask)) - 1))


def _rendered(graph, root):
    """(the rule's ``(d, p, W)`` or ``None``, the rendered root)."""
    lifter = lift.Lifter(graph)
    lifter.prepare([root])
    found = addback.short_select(lifter, lifter.form(root))
    return found, addback.render_roots(lifter, [root])[0]


def _is_short_select(node, p: int, width: int) -> bool:
    """*node* is ``(d − (d >> W)·p) & (2^W − 1)``."""
    if node.op != "and" or node.args[1].const != (1 << width) - 1:
        return False
    difference = node.args[0]
    if difference.op != "sub":
        return False
    d, product = difference.args
    return (product.op == "mul" and product.args[1].const == p
            and product.args[0].op == "shr"
            and product.args[0].args[0] is d
            and product.args[0].args[1].const == width)


def _must_fire(p: int, width: int) -> bool:
    """The moduli the rule is asked to recognise: odd, at least
    ``2^(W−2)`` like every kernel modulus, and not all ones (for ``p =
    2^k − 1`` the graph turns ``borrow & p`` into a narrower window)."""
    return p >= 1 << (width - 2) and p & (p + 1)


@pytest.mark.parametrize("shape", ["swap", "addback"])
@pytest.mark.parametrize("width", [3, 4, 5])
def test_exhaustive_small_widths(shape, width):
    """Every odd ``p < 2^W``, every operand pair in ``[0, 2^W)²``: the
    rendered root equals the unrewritten one, and the rule fires on
    every modulus of :func:`_must_fire`."""
    pairs = [[a, b] for a in range(1 << width) for b in range(1 << width)]
    for p in range(1, 1 << width, 2):
        graph, atoms, root = _select(shape, width, p)
        found, node = _rendered(graph, root)
        assert expr.evaluate([node], atoms, pairs) \
            == expr.evaluate([root], atoms, pairs), (shape, width, p)
        if _must_fire(p, width):
            assert found is not None and found[1:] == (p, width), p
            assert _is_short_select(node, p, width)


@settings(deadline=None, max_examples=40)
@given(shape=st.sampled_from(["swap", "addback"]),
       width=st.sampled_from([512, 513]), data=st.data())
def test_random_moduli_at_csidh_widths(shape, width, data):
    """A random odd modulus of ``W − 1`` or ``W − 2`` bits (not all
    ones), on boundary and random operands: the rule fires and renders
    exactly."""
    bits = data.draw(st.sampled_from([width - 2, width - 1]), label="bits")
    p = data.draw(st.integers(1 << (bits - 1), (1 << bits) - 3),
                  label="p") | 1
    graph, atoms, root = _select(shape, width, p)
    found, node = _rendered(graph, root)
    assert found is not None and found[1:] == (p, width)
    assert _is_short_select(node, p, width)
    ones = (1 << width) - 1
    edges = [0, 1, p - 1, p, p + 1, ones - p, ones]
    samples = [[a, b] for a in edges for b in edges]
    operand = st.integers(0, ones)
    samples += [[data.draw(operand, label="a"), data.draw(operand, label="b")]
                for _ in range(8)]
    assert expr.evaluate([node], atoms, samples) \
        == expr.evaluate([root], atoms, samples)


#: Selects the rule must leave alone: (shape, options).  Each differs
#: from a select the rule renders in one premise, and rendering it as
#: ``(d − (d >> W)·p) & (2^W − 1)`` would be wrong.
MUST_NOT_FIRE = {
    # the borrow tests X < q, but the other arm subtracts p
    "added-back-constant-not-the-borrows": ("swap", {"q": 9}),
    # p is added back on bit W − 1 of A − B, not on its borrow at W
    "borrow-from-another-window": ("addback", {"borrow_bit": 4}),
    # the result keeps W − 1 bits of the W-bit select
    "mask-narrower-than-w": ("addback", {"mask": 1}),
    # the arms are X and X − p − 1
    "arms-not-x-and-x-minus-p": ("swap", {"arm": 1}),
}


@pytest.mark.parametrize("case", sorted(MUST_NOT_FIRE))
def test_must_not_fire(case):
    shape, options = MUST_NOT_FIRE[case]
    width, p = 5, 21
    graph, atoms, root = _select(shape, width, p, **options)
    found, node = _rendered(graph, root)
    assert found is None, case
    pairs = [[a, b] for a in range(1 << width) for b in range(1 << width)]
    assert expr.evaluate([node], atoms, pairs) \
        == expr.evaluate([root], atoms, pairs)


@pytest.mark.parametrize("n", range(3, 10))
def test_full_radix_sub_of_random_moduli_renders_the_select(n):
    """The full-radix ``fp_sub`` of a random modulus: its value root is
    the add-back select on ``A − B`` (through the floor comparison of
    :func:`repro.rv64.addback._floor`), and the guard accepts it.  (At
    two limbs the lift keeps the borrow as an ``or`` of two compares,
    which is no window, so the rule does not see a borrow there.)"""
    rng = random.Random(f"addback{n}")
    p = rng.getrandbits(64 * n - 2) | (1 << (64 * n - 3)) | 1
    full, _reduced = make_contexts(p)
    roots, lifted = _lifted_roots(build_kernel(OP_FP_SUB, "full.isa", full))
    value = lifted[-1]
    assert _is_short_select(value, p, 64 * n)
    atoms = sorted((node for node in expr.reachable(roots)
                    if node.op == "atom"), key=lambda node: node.serial)
    edges = sorted({0, 1, p - 1, p, atoms[0].hi})
    samples = [[a, b] for a in edges for b in edges]
    assert expr.evaluate(lifted, atoms, samples) \
        == expr.evaluate(roots, atoms, samples)
