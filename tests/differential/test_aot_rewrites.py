"""The aot expression IR's rewrites are exact integer identities.

Every rewrite rule of :class:`repro.rv64.expr.Graph` is checked as a
Hypothesis property: the template is lowered through the IR (which
applies the rule), rendered to Python, and evaluated against the
*unrewritten* template text on random values drawn inside the operands'
declared intervals, endpoints included.  Each case also asserts that
its rule actually fired, so a rule that silently stops applying fails
here instead of passing as a no-op.  A second property lowers random
template trees, so every interval bound the rules read is checked for
soundness too.  Each identity of the wide-word lift
(:mod:`repro.rv64.lift`) is checked the same way, beside cases where it
must not fire, and over random limb grids and carry/borrow chains.

Structural guards pin what the rules buy on the real kernels: every
``fp_mul``/``fp_sqr`` entry thunk computes each distinct product once,
splits each column sum instead of each product (a ceiling on its
constant masks and shifts), and no carry compare of a sum against one
of its own addends survives.

The last class checks the recursion-limit guard that fusion runs under:
it is reference-counted, so concurrent compiles never see the limit
dropped under them and the original limit comes back afterwards.
"""

from __future__ import annotations

import ast
import random
import sys
import threading
from collections import Counter
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro import telemetry
from repro.csidh.parameters import csidh_512, csidh_toy
from repro.kernels.registry import build_kernel, cached_kernels, make_contexts
from repro.kernels.runner import KernelRunner
from repro.kernels.spec import (
    ALL_VARIANTS,
    OP_FP_ADD,
    OP_FP_MUL,
    OP_FP_SQR,
    OP_FP_SUB,
)
from repro.rv64 import aot, expr, lift, redc
from repro.rv64.bits import MASK64

M = MASK64


def lower(template: str, his: tuple[int, ...]):
    """(operand atoms, rewritten node) for an r-type template."""
    graph = expr.Graph()
    atoms = [graph.atom(name, hi) for name, hi in zip("ab", his)]
    while len(atoms) < 2:
        atoms.append(graph.const(0))
    node = expr.compile_lowering("r", template)(graph, *atoms)
    return atoms, node


def render(node) -> str:
    """The node as Python statements assigning ``_r``."""
    emitter = expr.Emitter(expr.count_uses([node]))
    expression = emitter.ref(node)
    return "\n".join(emitter.lines + [f"_r = {expression}"])


def evaluate(source: str, a: int, b: int) -> int:
    scope = {"M": M, "a": a, "b": b, "v0": a, "v1": b}
    exec(source, {"__builtins__": {}}, scope)
    return scope["_r"]


def naive(template: str, a: int, b: int) -> int:
    text = template.replace("{sa}", expr.SIGNED_A).replace(
        "{sb}", expr.SIGNED_B).replace("{a}", "a").replace("{b}", "b")
    return eval(text, {"__builtins__": {}, "M": M, "a": a, "b": b})


def in_interval(hi: int):
    """Values of [0, hi], biased to the endpoints and their neighbours."""
    return st.one_of(st.sampled_from(sorted({0, 1, hi - 1, hi} - {-1})),
                     st.integers(min_value=0, max_value=hi))


def ops(node) -> Counter:
    """Operation counts over the DAG below *node* (shared nodes once)."""
    seen, stack, counts = set(), [node], Counter()
    while stack:
        current = stack.pop()
        if current.serial in seen:
            continue
        seen.add(current.serial)
        counts[current.op] += 1
        stack.extend(current.args)
    return counts


def is_a(node, atoms):
    return node is atoms[0]


def is_const(value):
    return lambda node, atoms: node.const == value


def has_ops(**expected):
    def check(node, atoms):
        counts = ops(node)
        return all(counts[op] == n for op, n in expected.items())
    return check


_A64 = (M, M)
_W128 = (1 << 128) - 1

#: (rule, unrewritten template, operand upper bounds, fired predicate)
RULES = [
    ("x+0", "{a} + 0", (M,), is_a),
    ("x-0", "{a} - 0", (M,), is_a),
    ("x|0", "{a} | 0", (M,), is_a),
    ("x^0", "{a} ^ 0", (M,), is_a),
    ("x<<0", "{a} << 0", (M,), is_a),
    ("x>>0", "{a} >> 0", (M,), is_a),
    ("x*1", "{a} * 1", (M,), is_a),
    ("x*0", "{a} * 0", (M,), is_const(0)),
    ("x&0", "{a} & 0", (M,), is_const(0)),
    ("mask-drop", "{a} & 0xffffffff", ((1 << 32) - 1,), is_a),
    ("mask-drop-64", "({a} + {b}) & M", ((1 << 63) - 1, (1 << 63)),
     has_ops(add=1, **{"and": 0})),
    ("mask-keep", "({a} + {b}) & M", _A64, has_ops(**{"and": 1})),
    ("mask-keep-negative", "({a} - 1) & 0xffffffff", ((1 << 32) - 1,),
     has_ops(**{"and": 1})),
    ("mask-merge", "({a} & M) & 0x1ffffffffffffff", (1 << 70,),
     has_ops(**{"and": 1})),
    ("mask-merge-general", "({a} & 0xff0) & 0x3c", (M,),
     has_ops(**{"and": 1})),
    ("shift-out", "{a} >> 57", ((1 << 57) - 1,), is_const(0)),
    ("shift-keep", "{a} >> 57", (1 << 57,), has_ops(shr=1)),
    ("shift-keep-negative", "({a} - 5) >> 8", (255,), has_ops(shr=1)),
    ("signed-view", "{sa}", ((1 << 63) - 1,), is_a),
    ("signed-view-keep", "{sa} >> 3", (M,), has_ops(sub=1)),
    ("x<x", "1 if {a} < {a} else 0", (M,), is_const(0)),
    ("lt-decided-1", "1 if {a} < ({b} + 10) else 0", (9, M), is_const(1)),
    ("lt-decided-0", "1 if ({a} + 10) < {b} else 0", (M, 10),
     is_const(0)),
    ("carry-second", "1 if (({a} + {b}) & M) < {b} else 0", _A64,
     has_ops(shr=1, lt=0, **{"and": 0})),
    ("carry-first", "1 if (({a} + {b}) & M) < {a} else 0", _A64,
     has_ops(shr=1, lt=0, **{"and": 0})),
    ("carry-unmasked", "1 if ({a} + {b}) < {a} else 0", (M, 1 << 40),
     is_const(0)),
    ("carry-wide-operand", "1 if (({a} + {b}) & M) < {b} else 0",
     (1 << 65, M), has_ops(shr=1, lt=0)),
    ("carry-wide-compare", "1 if (({a} + {b}) & M) < {b} else 0",
     (M, 1 << 65), has_ops(lt=1)),
    ("carry-masked-addend",
     "1 if (({b} + {a}) & M) < ({a} & M) else 0", (_W128, M),
     has_ops(shr=1, lt=0)),
    ("carry-unmasked-sum",
     "1 if (({b} + ({a} & M)) & M) < ({a} & M) else 0", (_W128, _W128),
     has_ops(shr=1, lt=0)),
    ("carry-other-mask",
     "1 if (({b} + {a}) & M) < ({a} & 0xffffffff) else 0", (_W128, M),
     has_ops(lt=1)),
    ("carry-unmasked-negative", "1 if ({a} + ({b} - 3)) < {a} else 0",
     (M, 7), has_ops(lt=1)),
    ("carry-not-an-addend", "1 if (({a} + 1) & M) < {b} else 0", _A64,
     has_ops(lt=1)),
    ("recombine-64", "({a} >> 64) + (({b} + ({a} & M)) >> 64)",
     (_W128, M), has_ops(shr=1, add=1, **{"and": 0})),
    ("recombine-57",
     "(({a} >> 57) + ((({a} & 0x1ffffffffffffff)"
     " + ({b} & 0x1ffffffffffffff)) >> 57)) + ({b} >> 57)",
     (_W128, _W128), has_ops(shr=1, add=1, **{"and": 0})),
    ("recombine-mask-width", "({a} >> 57) + (({b} + ({a} & M)) >> 57)",
     (_W128, M), has_ops(shr=2, **{"and": 1})),
    ("recombine-missing-high", "({b} >> 64) + (({b} + ({a} & M)) >> 64)",
     (_W128, _W128), has_ops(shr=2, **{"and": 1})),
    ("rejoin", "({a} & M) + (({a} >> 64) << 64)", (_W128,), is_a),
    ("rejoin-shift-mismatch", "({a} & M) + (({a} >> 57) << 57)",
     (_W128,), has_ops(**{"and": 1})),
    ("unmask-sum", "(({a} & M) + ({b} & M)) & 0x1ffffffffffffff",
     (_W128, _W128), has_ops(add=1, **{"and": 1})),
    ("unmask-narrow", "(({a} & 0xffffffff) + {b}) & M", (_W128, M),
     has_ops(**{"and": 2})),
    ("unmask-product", "((({a} & M) + {b}) * 3) & 0x1ffffffffffffff",
     (_W128, M), has_ops(**{"and": 1})),
    ("funnel", "(({a} & M) >> 57) | ({b} << 7)", (_W128, 1 << 57),
     has_ops(add=1, **{"or": 0})),
    ("funnel-gap", "(({a} & M) >> 57) | ({b} << 8)", (_W128, 1 << 57),
     has_ops(**{"or": 1})),
    ("funnel-wide-low", "({a} >> 57) | ({b} << 7)", (1 << 65, 1 << 57),
     has_ops(**{"or": 1})),
    ("signed-difference",
     "(({a} - 5) & M) - (((({a} - 5) & M) >> 63) << 64)", ((1 << 62),),
     has_ops(sub=1, **{"and": 0})),
    ("signed-difference-keep",
     "(({a} - 5) & M) - (((({a} - 5) & M) >> 63) << 64)", (M,),
     has_ops(**{"and": 1})),
    ("shared-product", "(({a} * {b}) & M) + (({b} * {a}) >> 64)", _A64,
     has_ops(mul=1)),
    ("madd57-pair",
     "(({a} * {b} & 0x1ffffffffffffff) + 0)"
     " + (((({a} * {b}) >> 57) & M) + 0)",
     ((1 << 57) - 1, (1 << 57) - 1), has_ops(mul=1, **{"and": 1})),
]


@pytest.mark.parametrize("rule,template,his,fired", RULES,
                         ids=[rule[0] for rule in RULES])
@settings(deadline=None, max_examples=60)
@given(data=st.data())
def test_rewrite_matches_template(rule, template, his, fired, data):
    atoms, node = lower(template, his)
    assert fired(node, atoms), f"rule {rule} did not fire"
    a = data.draw(in_interval(his[0]), label="a")
    b = data.draw(in_interval(his[1]), label="b") if len(his) > 1 else 0
    assert evaluate(render(node), a, b) == naive(template, a, b)


def test_unknown_interval_blocks_every_rule():
    """An opaque node (an extracted lambda or an unparsed template) has
    no interval, so nothing reading it is rewritten."""
    graph = expr.Graph()
    opaque = graph.opaque("({0})", (graph.atom("a", 5),))
    assert opaque.lo is None
    assert graph.add(opaque, graph.const(0)) is not opaque
    assert graph.mul(opaque, graph.const(1)) is not opaque
    masked = graph.and_(opaque, graph.const(M))
    assert masked.op == "and" and masked.lo is None
    assert graph.lt(opaque, opaque).op == "lt"
    assert graph.shr(opaque, graph.const(64)).op == "shr"
    # split-add recombination: the opaque addend keeps its mask
    b, k = graph.atom("b", M), graph.const(64)
    carry = graph.shr(graph.add(b, masked), k)
    total = graph.add(graph.shr(opaque, k), carry)
    assert total.lo is None and ops(total)["and"] == 1
    # unmasking: the sum keeps the opaque addend's mask
    low = graph.and_(graph.add(b, masked), graph.const(M))
    assert ops(low)["and"] == 2
    # funnel shift: the or stays
    funnel = graph.or_(graph.shr(masked, graph.const(57)),
                       graph.shl(opaque, graph.const(7)))
    assert funnel.op == "or"


def test_unparsed_template_lowers_to_one_opaque_node():
    graph = expr.Graph()
    node = expr.compile_lowering("i", "min({a}, {imm})")(
        graph, graph.atom("a", M), 7)
    assert node.op == "opaque" and node.template == "min({0}, 7)"


# -- random templates: every interval the rules read must be sound ---------

_LEAVES = st.sampled_from(
    ["{a}", "{b}", "0", "1", "3", "63", "64", "M", "0x1ffffffffffffff",
     "0xffffffff", "{sa}", "{sb}"])
_BINARY = ["+", "-", "*", "&", "|", "^"]


def _templates():
    def extend(children):
        binary = st.tuples(children, st.sampled_from(_BINARY), children) \
            .map(lambda t: f"({t[0]} {t[1]} {t[2]})")
        shift = st.tuples(children, st.sampled_from([">>", "<<"]),
                          st.sampled_from([0, 1, 7, 57, 63, 64, 65])) \
            .map(lambda t: f"({t[0]} {t[1]} {t[2]})")
        compare = st.tuples(children, children) \
            .map(lambda t: f"(1 if {t[0]} < {t[1]} else 0)")
        return st.one_of(binary, shift, compare)
    return st.recursive(_LEAVES, extend, max_leaves=8)


@settings(deadline=None, max_examples=300)
@given(template=_templates(),
       width_a=st.sampled_from([1, 7, 57, 63, 64]),
       width_b=st.sampled_from([1, 7, 57, 63, 64]),
       data=st.data())
def test_random_templates_match(template, width_a, width_b, data):
    his = ((1 << width_a) - 1, (1 << width_b) - 1)
    _atoms, node = lower(template, his)
    a = data.draw(in_interval(his[0]), label="a")
    b = data.draw(in_interval(his[1]), label="b")
    expected = naive(template, a, b)
    assert evaluate(render(node), a, b) == expected
    if node.lo is not None:
        assert node.lo <= expected <= node.hi


# -- random nested split-adds: recombination must be exact ----------------

_SPLIT_LEAVES = st.sampled_from(
    ["{a}", "{b}", "({a} * {b})", "({a} & M)", "({b} >> 64)", "1", "M"])
_SPLITS = [(57, "0x1ffffffffffffff"), (64, "M")]


def _split_adds():
    """Sums whose carries take a value's high part beside a sum holding
    its low part -- the shape recombination folds -- nested, with some
    mismatched widths and plain shifts, masks and carry compares."""
    def extend(children):
        split = st.tuples(children, children, st.sampled_from(_SPLITS),
                          st.sampled_from(_SPLITS)).map(
            lambda t: f"(({t[0]} >> {t[2][0]})"
                      f" + (({t[1]} + ({t[0]} & {t[3][1]})) >> {t[2][0]}))")
        total = st.tuples(children, children).map(
            lambda t: f"({t[0]} + {t[1]})")
        part = st.tuples(children, st.sampled_from(_SPLITS),
                         st.booleans()).map(
            lambda t: f"({t[0]} >> {t[1][0]})" if t[2]
            else f"({t[0]} & {t[1][1]})")
        carry = st.tuples(children, children).map(
            lambda t: f"(1 if (({t[0]} + {t[1]}) & M) < {t[1]} else 0)")
        return st.one_of(split, split, total, part, carry)
    return st.recursive(_SPLIT_LEAVES, extend, max_leaves=10)


@settings(deadline=None, max_examples=300)
@given(template=_split_adds(),
       width_a=st.sampled_from([57, 64, 65, 128]),
       width_b=st.sampled_from([57, 64, 128]),
       data=st.data())
def test_random_split_adds_match(template, width_a, width_b, data):
    his = ((1 << width_a) - 1, (1 << width_b) - 1)
    _atoms, node = lower(template, his)
    a = data.draw(in_interval(his[0]), label="a")
    b = data.draw(in_interval(his[1]), label="b")
    expected = naive(template, a, b)
    assert evaluate(render(node), a, b) == expected
    assert node.lo <= expected <= node.hi


# -- wide-word lifting ------------------------------------------------------

def lift_template(template: str, his: tuple[int, ...]):
    """(operand atoms, lifted node) for an r-type template: the IR's
    rules at construction, then :mod:`repro.rv64.lift` on the result
    (forced: without the product-count gate of :func:`lift.lift`)."""
    graph = expr.Graph()
    atoms = [graph.atom(name, hi) for name, hi in zip("ab", his)]
    while len(atoms) < 2:
        atoms.append(graph.const(0))
    node = expr.compile_lowering("r", template)(graph, *atoms)
    lifter = lift.Lifter(graph)
    lifter.prepare([node])
    return atoms, lifter.render_root(node)


def refs_only(*names):
    """The lifted node reads only the named operands."""
    def check(node, atoms):
        seen, stack, found = set(), [node], set()
        while stack:
            current = stack.pop()
            if current.serial in seen:
                continue
            seen.add(current.serial)
            if current.op == "atom":
                found.add(current.text)
            stack.extend(current.args)
        return found <= set(names)
    return check


def is_product_of_atoms(node, atoms):
    return (node.op == "mul"
            and {arg.serial for arg in node.args}
            <= {atom.serial for atom in atoms})


def top_is(op):
    return lambda node, atoms: node.op == op


def shared_selector(expected: bool):
    """The lifted node's products have a common factor (one select bit
    drives every limb) exactly when *expected*."""
    def check(node, atoms):
        seen, stack, products = set(), [node], []
        while stack:
            current = stack.pop()
            if current.serial in seen:
                continue
            seen.add(current.serial)
            if current.op == "mul":
                products.append({arg.serial for arg in current.args})
            stack.extend(current.args)
        return len(products) > 1 and bool(set.intersection(*products)) \
            == expected
    return check


_M57 = "0x1ffffffffffffff"
_W171 = (1 << 171) - 1
_W256 = (1 << 256) - 1
#: Limb 0 as a window at 64 of ``a + (b << 64)``, limb 1 as the window
#: at 64 of ``((a >> 64) mod 2^128) + b`` (plus *carry*).
_LOWERED = ("((({{a}} + ({{b}} << 64)) >> 64) & M) + (((((({{a}} >> 64)"
            " & 0xffffffffffffffffffffffffffffffff) + {{b}}{carry}) >> 64)"
            " & M) << 64)")


def _select_chain(low_mask: str, high_mask: str) -> str:
    """Two limbs of ``b`` or ``b + 5``, each chosen by its own mask."""
    limbs = []
    for mask, shift in ((low_mask, 0), (high_mask, 64)):
        t = f"(({{b}} >> {shift}) & M)"
        u = f"((({{b}} + 5) >> {shift}) & M)"
        limbs.append(f"({t} ^ ({mask} & ({u} ^ {t})))")
    return f"{limbs[0]} + ({limbs[1]} << 64)"


def _limb(name: str, index: int, width: int = 64,
          top: int | None = None) -> str:
    """Limb *index* of an operand; the *top* one unmasked."""
    mask = "M" if width == 64 else _M57
    if index == top:
        return f"({{{name}}} >> {width * index})"
    return f"(({{{name}}} >> {width * index}) & {mask})"


def _grid_template(width: int, limbs: int, *, square: bool = False,
                   skip=(), shift: dict | None = None) -> str:
    """``Σ (A_i·B_j) << w(i+j)`` over a limb grid, as a template."""
    other = "a" if square else "b"
    terms = []
    for i in range(limbs):
        for j in range(limbs):
            if (square and i > j) or (i, j) in skip:
                continue
            weight = width * (i + j) + (1 if square and i != j else 0)
            weight = max(0, weight + (shift or {}).get((i, j), 0))
            terms.append(f"(({_limb('a', i, width, limbs - 1)}"
                         f" * {_limb(other, j, width, limbs - 1)})"
                         f" << {weight})")
    return " + ".join(terms)


def _carry_chain(limbs: int, subtract: bool) -> str:
    """A full-radix add-with-carry (or sub-with-borrow) chain of
    ``sltu`` carries, reassembled from its limbs plus the carry out."""
    carry = "0"
    words = []
    for index in range(limbs):
        x, y = _limb("a", index), _limb("b", index)
        if subtract:
            t = f"(({x} - {carry}) & M)"
            out = f"(({t} - {y}) & M)"
            carry = (f"((1 if {x} < {carry} else 0)"
                     f" | (1 if {t} < {y} else 0))")
        else:
            t = f"(({x} + {carry}) & M)"
            out = f"(({t} + {y}) & M)"
            carry = (f"((1 if {t} < {carry} else 0)"
                     f" | (1 if {out} < {y} else 0))")
        words.append(f"({out} << {64 * index})")
    return " + ".join(words + [f"({carry} << {64 * limbs})"])


#: (identity, unrewritten template, operand upper bounds, fired predicate)
LIFT_RULES = [
    ("telescope", "{b} + (({a} + 5) >> 64)", _A64, top_is("shr")),
    ("telescope-negated", "{b} - (({a} + 5) >> 64)", _A64, top_is("shr")),
    ("rejoin-57",
     f"({{a}} & {_M57}) + ((({{a}} >> 57) & {_M57}) << 57)"
     " + (({a} >> 114) << 114)", (_W171,), is_a),
    ("masked-window", "(({a} + ({b} << 64)) >> 32) & 0xffffffff", _A64,
     refs_only("a")),
    ("lt-as-borrow", "1 if {a} < {b} else 0", _A64, has_ops(lt=0)),
    ("exclusive-bits", "(({a} + {b}) >> 64) | (((({a} + {b}) & M) + 1)"
     " >> 64)", _A64, has_ops(**{"or": 0})),
    ("select", "(({b} + 1) & M) ^ (((0 - {a}) & M) & ({b} ^ (({b} + 1)"
     " & M)))", (1, M), has_ops(xor=0)),
    ("wide-select", "(({b} >> 64) & M) ^ (((0 - {a}) & M) & ((({b} >> 64)"
     " & M) ^ ((({b} + 0x10000000000000000) >> 64) & M)))",
     (1, (1 << 192) - 1), has_ops(xor=0, mul=0)),
    ("select-chain", _select_chain("((0 - {a}) & M)", "((0 - {a}) & M)"),
     (1, _W128), shared_selector(True)),
    ("limb-grid", _grid_template(64, 2), (_W128, _W128),
     is_product_of_atoms),
    ("limb-grid-57", _grid_template(57, 3), (_W171, _W171),
     is_product_of_atoms),
    ("limb-grid-square", _grid_template(64, 2, square=True), (_W128,),
     is_product_of_atoms),
    ("constant-gathering", "({a} * 3) + (({a} * 5) << 64)", (M,),
     has_ops(mul=1, add=0)),
    # a borrow chain's limbs W[s,64](A - B_low) - W[s,64](B) are
    # windows of A - B, so its low limbs rejoin into one
    ("floor-difference", _carry_chain(4, True), (_W256, _W256),
     has_ops(shr=3)),
    ("floor-tie", "({a} >> 64) - ((({b} & M) - ({a} & M) + M) >> 64)",
     (_W128, _W128), has_ops(shr=1, sub=1)),
    # a window at 64 of a + (b << 64) continues at 0 as the window of
    # (a >> 64) + b that the limb above it reads
    ("lowered-window-rejoin", _LOWERED.format(carry=""), (_W256, M),
     has_ops(shr=1)),
    # must not fire
    ("grid-missing-pair", _grid_template(64, 2, skip={(1, 1)}),
     (_W128, _W128), lambda node, atoms: not is_product_of_atoms(node, atoms)),
    ("grid-wrong-weight", _grid_template(64, 2, shift={(0, 1): -1}),
     (_W128, _W128), lambda node, atoms: not is_product_of_atoms(node, atoms)),
    ("grid-operand-too-wide", _grid_template(64, 2),
     ((1 << 129) - 1, _W128),
     lambda node, atoms: not is_product_of_atoms(node, atoms)),
    ("select-mask-not-all-ones", "(({b} + 1) & M) ^ ({a} & ({b} ^ (({b}"
     " + 1) & M)))", _A64, has_ops(xor=2)),
    ("bits-may-overlap", "({a} >> 63) | ({b} >> 63)", _A64,
     has_ops(**{"or": 1})),
    ("select-chain-mask-not-shared",
     _select_chain("((0 - ({a} & 1)) & M)", "((0 - (({a} >> 1) & 1)) & M)"),
     (3, _W128), shared_selector(False)),
    ("floor-tie-no-rejoin",
     "({a} >> 64) - ((({b} & M) - ({a} & 0xffff) + M) >> 64)",
     (_W128, _W128), has_ops(shr=2)),
    ("lowered-window-mismatch", _LOWERED.format(carry=" + 1"), (_W256, M),
     has_ops(shr=3)),
]


@pytest.mark.parametrize("rule,template,his,fired", LIFT_RULES,
                         ids=[rule[0] for rule in LIFT_RULES])
@settings(deadline=None, max_examples=60)
@given(data=st.data())
def test_lift_matches_template(rule, template, his, fired, data):
    atoms, node = lift_template(template, his)
    assert fired(node, atoms), f"lift identity {rule} misfired"
    a = data.draw(in_interval(his[0]), label="a")
    b = data.draw(in_interval(his[1]), label="b") if len(his) > 1 else 0
    expected = naive(template, a, b)
    assert evaluate(render(node), a, b) == expected
    if node.lo is not None:
        assert node.lo <= expected <= node.hi


def test_unknown_interval_blocks_every_lift_rule():
    """Identities that read an interval refuse an opaque input: its
    comparisons, bit sums, selects and grids keep their limb form."""
    graph = expr.Graph()
    opaque = graph.opaque("({0})", (graph.atom("a", M),))
    b = graph.atom("b", M)
    mask = graph.const(M)
    low = graph.and_(opaque, mask)
    high = graph.shr(opaque, graph.const(64))
    roots = [
        graph.lt(opaque, b),
        graph.or_(graph.shr(opaque, graph.const(63)),
                  graph.shr(b, graph.const(63))),
        graph.xor(b, graph.and_(opaque, graph.xor(low, b))),
        graph.add(graph.mul(low, low),
                  graph.shl(graph.mul(high, low), graph.const(65))),
    ]
    lifter = lift.Lifter(graph)
    lifter.prepare(roots)
    compare, bits, select, grid = [lifter.render_root(node)
                                   for node in roots]
    assert ops(compare)["lt"] == 1
    assert ops(bits)["or"] == 1
    assert ops(select)["xor"] == 2
    assert ops(grid)["mul"] == 2


def _signed_chain(limbs: int, subtract: bool) -> str:
    """A reduced-radix chain: signed 57-bit digit sums whose carries
    are arithmetic shifts, reassembled from the masked digits."""
    sign = "-" if subtract else "+"
    digit = None
    words = []
    for index in range(limbs):
        x, y = _limb("a", index, 57), _limb("b", index, 57)
        digit = f"({x} {sign} {y})" if digit is None \
            else f"(({x} {sign} {y}) + ({digit} >> 57))"
        words.append(f"(({digit} & {_M57}) << {57 * index})")
    return " + ".join(words + [f"(({digit} >> 57) << {57 * limbs})"])


@settings(deadline=None, max_examples=150)
@given(width=st.sampled_from([57, 64]), limbs=st.integers(1, 3),
       square=st.booleans(),
       skip=st.sets(st.tuples(st.integers(0, 2), st.integers(0, 2)),
                    max_size=1),
       shift=st.dictionaries(st.tuples(st.integers(0, 2),
                                       st.integers(0, 2)),
                             st.sampled_from([-1, 1, 7]), max_size=1),
       spill=st.sampled_from([0, 0, 1, 5]),
       data=st.data())
def test_random_limb_grids_lift_exactly(width, limbs, square, skip, shift,
                                        spill, data):
    """Random limb grids -- complete, missing a pair, with a wrong
    weight, over operands wider than their limbs -- lift to a value
    equal to the template's, inside the lifted node's interval."""
    template = _grid_template(width, limbs, square=square, skip=skip,
                              shift=shift) or "{a}"
    his = ((1 << (width * limbs + spill)) - 1,) * 2
    _atoms, node = lift_template(template, his)
    a = data.draw(in_interval(his[0]), label="a")
    b = data.draw(in_interval(his[1]), label="b")
    expected = naive(template, a, b)
    assert evaluate(render(node), a, b) == expected
    if node.lo is not None:
        assert node.lo <= expected <= node.hi


@settings(deadline=None, max_examples=150)
@given(full=st.booleans(), limbs=st.integers(1, 3),
       subtract=st.booleans(), data=st.data())
def test_random_carry_chains_lift_exactly(full, limbs, subtract, data):
    """Add-with-carry and sub-with-borrow chains in both radix forms
    lift exactly, values and intervals."""
    width = 64 if full else 57
    template = (_carry_chain if full else _signed_chain)(limbs, subtract)
    his = ((1 << (width * limbs)) - 1,) * 2
    _atoms, node = lift_template(template, his)
    a = data.draw(in_interval(his[0]), label="a")
    b = data.draw(in_interval(his[1]), label="b")
    expected = naive(template, a, b)
    assert evaluate(render(node), a, b) == expected
    if node.lo is not None:
        assert node.lo <= expected <= node.hi


# -- one-shot Montgomery reduction -------------------------------------------

#: The CSIDH-512 prime, a modulus whose chains the kernels really build.
_P512 = csidh_512().p


def _redc_chain(p: int, w: int, n: int, *, n0: int | None = None,
                shifts=None, mask_width: int | None = None,
                limb_step: int | None = None):
    """(graph, T atom, top sum) of the word-level reduction chain
    ``S_{i+1} = S_i + (((S_i >> s_i)·n0) & M)·(p << s_i)`` over ``T``,
    one step per entry of *shifts* (default ``w·i`` for ``i < n``);
    *limb_step* makes that step's digit read the limb ``(T >> s_i) &
    M_w`` instead of the running sum."""
    graph = expr.Graph()
    total = atom = graph.atom("t", (1 << (2 * n * w)) - 1)
    if n0 is None:
        n0 = -pow(p, -1, 1 << w) % (1 << w)
    mask = graph.const((1 << (mask_width or w)) - 1)
    word = graph.const((1 << w) - 1)
    for index, shift in enumerate(shifts or [w * i for i in range(n)]):
        window = total if not shift else graph.shr(total, graph.const(shift))
        if index == limb_step:
            window = graph.and_(graph.shr(atom, graph.const(shift)), word)
        digit = graph.and_(graph.mul(window, graph.const(n0)), mask)
        total = graph.add(total, graph.mul(digit, graph.const(p << shift)))
    return graph, atom, total


def test_one_shot_redc_replaces_the_chain():
    graph, atom, top = _redc_chain(_P512, 64, 8)
    (node,) = redc.one_shot_redc(graph, [top])
    assert node is not top
    assert ops(node)["mul"] == 2 and ops(node)["shr"] == 0
    values = [0, 1, atom.hi, atom.hi // 3, _P512 * (_P512 - 1)]
    assert expr.evaluate([node, top], [atom], [[v] for v in values]) \
        == expr.evaluate([top, top], [atom], [[v] for v in values])


def _assert_redc_refused(graph, top):
    assert redc.one_shot_redc(graph, [top]) == [top]


def test_redc_refuses_a_wrong_n0():
    n0 = -pow(_P512, -1, 1 << 64) % (1 << 64)
    _assert_redc_refused(*_redc_chain(_P512, 64, 8, n0=n0 + 2)[::2])


def test_redc_refuses_a_digit_read_from_a_limb():
    """A digit that reads a limb of ``T`` rather than the running sum's
    window (a carry deferred into the next digit) is no REDC step."""
    _assert_redc_refused(*_redc_chain(_P512, 57, 9, limb_step=3)[::2])


def test_redc_refuses_a_skipped_shift():
    shifts = [0, 64, 192, 256, 320, 384, 448, 512]
    _assert_redc_refused(*_redc_chain(_P512, 64, 8, shifts=shifts)[::2])


def test_redc_refuses_reordered_shifts():
    shifts = [0, 128, 64, 192, 256, 320, 384, 448]
    _assert_redc_refused(*_redc_chain(_P512, 64, 8, shifts=shifts)[::2])


def test_redc_refuses_a_mask_narrower_than_the_word():
    _assert_redc_refused(*_redc_chain(_P512, 64, 8, mask_width=63)[::2])


def test_redc_refuses_a_chain_shorter_than_the_modulus():
    _assert_redc_refused(*_redc_chain(_P512, 57, 8)[::2])


def _is_unit_n0_single_step(p: int, w: int, n: int) -> bool:
    """One step over ``p = 2^w - 1``: ``n0 = 1``, so the chain's step
    ``T + ((T·1) & M)·p`` already is the one-shot form and the rewrite
    hash-conses to the chain's own node."""
    return n == 1 and p == (1 << w) - 1


@pytest.mark.parametrize("w", [57, 64])
def test_unit_n0_single_step_rewrites_to_the_chain_itself(w):
    p = (1 << w) - 1
    graph, atom, top = _redc_chain(p, w, 1)
    (node,) = redc.one_shot_redc(graph, [top])
    assert node is top
    values = [0, 1, atom.hi, atom.hi // 3, p * (p - 1), (1 << 64) - 2]
    assert expr.evaluate([node], [atom], [[v] for v in values]) \
        == [tuple(v + (v & p) * p for v in values)]  # M = p here


@settings(deadline=None, max_examples=120)
@given(w=st.sampled_from([57, 64]), n=st.integers(1, 9), data=st.data())
def test_random_redc_chains_lift_exactly(w, n, data):
    """Chains over random odd moduli of ``n`` limbs fire and equal the
    word-level chain on random, boundary and arbitrary operands."""
    top_bit = w * (n - 1) + 1
    p = data.draw(st.integers(max(3, 1 << (top_bit - 1)),
                              (1 << (w * n)) - 1), label="p") | 1
    graph, atom, top = _redc_chain(p, w, n)
    (node,) = redc.one_shot_redc(graph, [top])
    if not _is_unit_n0_single_step(p, w, n):
        assert node is not top
    values = [0, 1, atom.hi, data.draw(in_interval(atom.hi), label="t"),
              data.draw(st.integers(0, p * p), label="t_reduced")]
    samples = [[value] for value in values]
    assert expr.evaluate([node], [atom], samples) \
        == expr.evaluate([top], [atom], samples)


def _sub_kernel(w: int, n: int, data):
    """The ``fp_sub`` kernel of a random odd modulus whose Montgomery
    context has *n* limbs of *w* bits (64: full radix, 57: reduced)."""
    if w == 64:
        low, high = max(2, 64 * (n - 1)), 64 * n - 1
    else:
        low, high = max(2, 57 * (n - 1) - 1), 57 * n - 2
    bits = data.draw(st.integers(low, high), label="bits")
    p = data.draw(st.integers(1 << (bits - 1), (1 << bits) - 1),
                  label="p") | 1
    full, reduced = make_contexts(p)
    ctx = full if w == 64 else reduced
    assert ctx.radix.limbs == n
    variant = data.draw(st.sampled_from(["isa", "ise"]), label="variant")
    radix = "full" if w == 64 else "reduced"
    return build_kernel(OP_FP_SUB, f"{radix}.{variant}", ctx), p


def _lifted_roots(kernel) -> tuple[list, list]:
    """(limb-form roots, lifted roots) of *kernel*'s entry thunk; the
    guard must not have refused the lift."""
    seen = []

    def recording_lift(graph, roots):
        lifted = lift.lift(graph, roots)
        seen.append((list(roots), lifted))
        return lifted

    with telemetry.capture() as cap, \
            mock.patch.object(aot, "lift", recording_lift):
        KernelRunner(kernel, engine="interpreter").fuse_entry()
    assert cap.registry.counter("aot_lift_refusals_total").total() == 0
    (roots, lifted), = seen
    return roots, lifted


@settings(deadline=None, max_examples=60)
@given(w=st.sampled_from([57, 64]), n=st.integers(1, 9), data=st.data())
def test_random_sub_chains_lift_exactly(w, n, data):
    """The ``fp_sub`` borrow chain of random odd moduli, lifted, equals
    its limb form on boundary and random operands."""
    kernel, p = _sub_kernel(w, n, data)
    roots, lifted = _lifted_roots(kernel)
    atoms = sorted((node for node in expr.reachable(roots)
                    if node.op == "atom"), key=lambda node: node.serial)
    edges = sorted({0, 1, p - 1, p, atoms[0].hi})
    samples = [[a, b] for a in edges for b in edges]
    samples += [[data.draw(in_interval(atom.hi), label="operand")
                 for atom in atoms] for _ in range(4)]
    assert expr.evaluate(lifted, atoms, samples) \
        == expr.evaluate(roots, atoms, samples)


@pytest.mark.parametrize("n", range(4, 10))
@pytest.mark.parametrize("radix", ["full", "reduced"])
def test_sub_chains_of_random_moduli_lift(radix, n):
    """From four limbs on, the ``fp_sub`` borrow chain of a random
    modulus lifts in both radixes (full radix through the
    floor-difference rule)."""
    width = 64 if radix == "full" else 57
    rng = random.Random(f"{radix}{n}")
    p = rng.getrandbits(width * n - 2) | (1 << (width * n - 3)) | 1
    full, reduced = make_contexts(p)
    ctx = full if radix == "full" else reduced
    assert ctx.radix.limbs == n
    roots, lifted = _lifted_roots(build_kernel(OP_FP_SUB, f"{radix}.isa",
                                               ctx))
    assert lifted != roots


def test_guard_keeps_the_limb_form_of_a_wrong_lift(monkeypatch):
    """A lift that computes a wrong value is refused before rendering:
    the thunk keeps its limb form, stays exact, and the refusal is
    counted."""
    from repro import telemetry

    name = f"{OP_FP_MUL}.reduced.ise"
    kernel = cached_kernels(_P512)[name]
    with monkeypatch.context() as patch:
        patch.setattr(aot, "lift", lambda graph, roots: list(roots))
        limb_form = KernelRunner(kernel, engine="interpreter") \
            .fuse_entry().source

    def off_by_one(graph, roots):
        return [graph.add(roots[0], graph.const(1)), *roots[1:]]

    monkeypatch.setattr(lift, "one_shot_redc", off_by_one)
    with telemetry.capture() as cap:
        runner = KernelRunner(kernel, engine="aot")
    assert cap.registry.counter("aot_lift_refusals_total") \
        .labels(reason="value_mismatch").value == 1
    assert runner.machine._aot_entry_cache[runner.entry].source \
        == limb_form
    rng = random.Random(5)
    for values in (kernel.sampler(rng) for _ in range(20)):
        assert runner.run(*values).value == kernel.reference(*values)


# -- structural guards on the real kernels ---------------------------------

MUL_KERNELS = [f"{operation}.{variant}"
               for operation in (OP_FP_MUL, OP_FP_SQR)
               for variant in ALL_VARIANTS]

_ENTRIES: dict[str, object] = {}


def fused_entry(name: str):
    if name not in _ENTRIES:
        kernel = cached_kernels(csidh_512().p)[name]
        runner = KernelRunner(kernel, engine="interpreter")
        _ENTRIES[name] = runner.fuse_entry()
    return _ENTRIES[name]


def entry_source(name: str) -> str:
    return fused_entry(name).source


def _key(node: ast.AST) -> str:
    return ast.dump(node)


@pytest.mark.parametrize("name", MUL_KERNELS)
def test_one_product_per_operand_pair(name):
    tree = ast.parse(entry_source(name))
    pairs = Counter(
        tuple(sorted((_key(node.left), _key(node.right))))
        for node in ast.walk(tree)
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult))
    assert pairs, f"{name}: no products in the fused source"
    repeated = {pair: n for pair, n in pairs.items() if n > 1}
    assert not repeated, f"{name}: products computed twice: {repeated}"


def masks_and_shifts(source: str) -> int:
    """Binary ops of *source* that mask or shift by a constant."""
    count = 0
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.BinOp):
            continue
        if isinstance(node.op, ast.BitAnd):
            count += isinstance(node.left, ast.Constant) or isinstance(
                node.right, ast.Constant)
        elif isinstance(node.op, (ast.RShift, ast.LShift)):
            count += isinstance(node.right, ast.Constant)
    return count


#: Ceilings on :func:`masks_and_shifts` per fused 512-bit thunk.  Each
#: kernel column accumulates as one wide sum split once, and wide-word
#: lifting reads every limb as a window of one running value and every
#: reduction digit as a window of the one-shot ``m`` (before the
#: split-add rules, fp_mul: 809, 556, 853 and 487 in this order; before
#: lifting: 92, 95, 154 and 97; before the one-shot reduction: 71, 75,
#: 78 and 76; before the one-value final subtraction: 58, 64, 77 and
#: 61).  ``fp_sqr.full.isa`` keeps its limb form: its three-word
#: accumulator does not lift yet.
MASK_SHIFT_CEILINGS = {
    f"{OP_FP_MUL}.full.isa": 56,
    f"{OP_FP_MUL}.full.ise": 62,
    f"{OP_FP_MUL}.reduced.isa": 77,
    f"{OP_FP_MUL}.reduced.ise": 61,
    f"{OP_FP_SQR}.full.isa": 586,
    f"{OP_FP_SQR}.full.ise": 61,
    f"{OP_FP_SQR}.reduced.isa": 76,
    f"{OP_FP_SQR}.reduced.ise": 60,
}

FIELD_KERNELS = MUL_KERNELS + [f"{operation}.{variant}"
                               for operation in (OP_FP_ADD, OP_FP_SUB)
                               for variant in ALL_VARIANTS]

#: Ceilings on (products, binary operations) per fused 512-bit thunk.
#: A lifted ``fp_mul``/``fp_sqr`` is one wide product, the one-shot
#: Montgomery reduction (two more) and a wide select: 4-14 products and
#: 69-102 operations where the word-level reduction took 19-21 and
#: 108-129, and the limb form 108-171 and 370-715.  The read-out of
#: ``full.ise`` and ``reduced.isa`` still reads some reduction digits
#: and partial sums.  A lifted ``fp_add``/``fp_sub`` computes 47-81
#: operations where the limb form took 155-168; its products (0 in limb
#: form) are selects by a borrow bit and the ``x & p_k`` gather.
#: ``fp_sqr.full.isa`` keeps its limb form.
THUNK_CEILINGS = {
    f"{OP_FP_MUL}.full.isa": (5, 84),
    f"{OP_FP_MUL}.full.ise": (8, 96),
    f"{OP_FP_MUL}.reduced.isa": (12, 102),
    f"{OP_FP_MUL}.reduced.ise": (4, 70),
    f"{OP_FP_SQR}.full.isa": (108, 1291),
    f"{OP_FP_SQR}.full.ise": (8, 95),
    f"{OP_FP_SQR}.reduced.isa": (12, 101),
    f"{OP_FP_SQR}.reduced.ise": (4, 69),
    f"{OP_FP_ADD}.full.isa": (2, 81),
    f"{OP_FP_ADD}.full.ise": (2, 81),
    f"{OP_FP_ADD}.reduced.isa": (5, 60),
    f"{OP_FP_ADD}.reduced.ise": (5, 60),
    f"{OP_FP_SUB}.full.isa": (4, 81),
    f"{OP_FP_SUB}.full.ise": (4, 81),
    f"{OP_FP_SUB}.reduced.isa": (3, 47),
    f"{OP_FP_SUB}.reduced.ise": (3, 47),
}


@pytest.mark.parametrize("params", [csidh_toy, csidh_512],
                         ids=["toy", "csidh-512"])
def test_every_fp_kernel_lifts_without_refusal(params):
    """The guard accepts every lift of the Fp kernels it is offered:
    no ``aot_lift_refusals_total`` at toy or CSIDH-512 size."""
    kernels = cached_kernels(params().p)
    with telemetry.capture() as cap:
        for name in FIELD_KERNELS:
            KernelRunner(kernels[name], engine="interpreter").fuse_entry()
    assert cap.registry.counter("aot_lift_refusals_total").total() == 0


@pytest.mark.parametrize("name", FIELD_KERNELS)
def test_thunk_op_ceilings(name):
    tree = ast.parse(entry_source(name))
    products = sum(isinstance(node, ast.BinOp)
                   and isinstance(node.op, ast.Mult)
                   for node in ast.walk(tree))
    operations = sum(isinstance(node, ast.BinOp) for node in ast.walk(tree))
    max_products, max_operations = THUNK_CEILINGS[name]
    assert products <= max_products, f"{name}: {products} products"
    assert operations <= max_operations, (
        f"{name}: {operations} binary operations")


def hot_path(source: str) -> list:
    """Statements of an entry thunk before its read-out branch: all a
    field op, which reads only the value and the static cost, runs."""
    body = ast.parse(source).body[0].body
    for index, statement in enumerate(body):
        if (isinstance(statement, ast.If)
                and ast.unparse(statement.test) == "not _readout"):
            return body[:index + 1]
    raise AssertionError("the thunk has no read-out branch")


#: Ceilings on (products, binary operations) per thunk before its
#: read-out branch.  The limbs, the 32-register writeback and
#: ``pc``/``halted`` follow that branch, so a lifted ``fp_mul`` runs 15
#: operations and a lifted ``fp_sqr`` 14: the one-shift operand guard,
#: ``a·b``, the one-shot reduction's two products, ``U = T' >> W`` and
#: the add-back select ``d = (U & M) − P``, ``(d − (d >> W)·P) & M``
#: (before, the select ran on ``U − P + β·P`` with a separately
#: computed borrow ``β``, or in reduced radix on the double-width sum:
#: 16-17 operations).  A full-radix ``fp_sub`` is the same select on
#: ``d = A − B``: 7 operations where the borrow chain's form took 19.
#: The other lifted ``fp_add``/``fp_sub`` run 23-37 (limb form:
#: 119-168).
HOT_PATH_CEILINGS = {
    f"{OP_FP_MUL}.full.isa": (4, 15),
    f"{OP_FP_MUL}.full.ise": (4, 15),
    f"{OP_FP_MUL}.reduced.isa": (4, 15),
    f"{OP_FP_MUL}.reduced.ise": (4, 15),
    f"{OP_FP_SQR}.full.isa": (108, 1291),
    f"{OP_FP_SQR}.full.ise": (4, 14),
    f"{OP_FP_SQR}.reduced.isa": (4, 14),
    f"{OP_FP_SQR}.reduced.ise": (4, 14),
    f"{OP_FP_ADD}.full.isa": (2, 23),
    f"{OP_FP_ADD}.full.ise": (2, 23),
    f"{OP_FP_ADD}.reduced.isa": (5, 37),
    f"{OP_FP_ADD}.reduced.ise": (5, 37),
    f"{OP_FP_SUB}.full.isa": (1, 7),
    f"{OP_FP_SUB}.full.ise": (1, 7),
    f"{OP_FP_SUB}.reduced.isa": (3, 25),
    f"{OP_FP_SUB}.reduced.ise": (3, 25),
}


@pytest.mark.parametrize("name", FIELD_KERNELS)
def test_hot_path_ceilings(name):
    statements = hot_path(entry_source(name))
    nodes = [node for statement in statements
             for node in ast.walk(statement)]
    products = sum(isinstance(node, ast.BinOp)
                   and isinstance(node.op, ast.Mult) for node in nodes)
    operations = sum(isinstance(node, ast.BinOp) for node in nodes)
    max_products, max_operations = HOT_PATH_CEILINGS[name]
    assert products <= max_products, f"{name}: {products} products"
    assert operations <= max_operations, (
        f"{name}: {operations} binary operations before the read-out")


@pytest.mark.parametrize("name", FIELD_KERNELS)
def test_hot_path_returns_value_and_cost_only(name):
    """Before the read-out branch the thunk touches no limb, register
    or ``pc``/``halted``, and the branch returns ``_v`` alone: the cost
    is the fused entry's static cost, which the thunk no longer
    returns."""
    statements = hot_path(entry_source(name))
    names = {node.id for statement in statements
             for node in ast.walk(statement) if isinstance(node, ast.Name)}
    assert not names & {"_regs", "_st"}, name
    assert not any(n.startswith("_w") for n in names), name
    returned = statements[-1].body[0].value
    assert isinstance(returned, ast.Name) and returned.id == "_v"
    entry = fused_entry(name)
    assert entry.cycles is not None and entry.instructions_retired > 0


@pytest.mark.parametrize("name", MUL_KERNELS)
def test_lifted_sums_are_n_ary(name, monkeypatch):
    """The lift renders through the graph's public constructors: every
    sum it leaves with a known interval lists its terms, so a later
    ``Graph.add`` on the same operands finds a proper n-ary sum."""
    lifted = []

    def recording_lift(graph, roots):
        lifted.extend(lift.lift(graph, roots))
        return lifted

    monkeypatch.setattr(aot, "lift", recording_lift)
    kernel = cached_kernels(csidh_512().p)[name]
    KernelRunner(kernel, engine="interpreter").fuse_entry()
    seen, stack = set(), list(lifted)
    while stack:
        node = stack.pop()
        if node.serial in seen:
            continue
        seen.add(node.serial)
        if node.op == "add" and node.lo is not None:
            assert node.terms is not None, f"{name}: sum without terms"
        stack.extend(node.args)


@pytest.mark.parametrize("name", MUL_KERNELS)
def test_columns_split_once(name):
    count = masks_and_shifts(entry_source(name))
    assert count <= MASK_SHIFT_CEILINGS[name], (
        f"{name}: {count} constant masks and shifts")


@pytest.mark.parametrize("name", MUL_KERNELS)
def test_no_carry_compare_against_an_addend(name):
    tree = ast.parse(entry_source(name))
    definitions = {
        node.targets[0].id: node.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign)
        and isinstance(node.targets[0], ast.Name)}

    def resolve(node: ast.AST) -> ast.AST:
        if isinstance(node, ast.Name) and node.id in definitions:
            return definitions[node.id]
        return node

    for node in ast.walk(tree):
        if not (isinstance(node, ast.Compare)
                and isinstance(node.ops[0], ast.Lt)):
            continue
        left, right = resolve(node.left), node.comparators[0]
        if (isinstance(left, ast.BinOp) and isinstance(left.op, ast.BitAnd)
                and isinstance(left.right, ast.Constant)
                and left.right.value == M):
            left = resolve(left.left)
        if isinstance(left, ast.BinOp) and isinstance(left.op, ast.Add):
            addends = {_key(left.left), _key(left.right)}
            assert _key(right) not in addends, (
                f"{name}: carry compare survived: {ast.unparse(node)}")


# -- the recursion-limit guard under concurrent fusion ---------------------

@pytest.fixture
def low_recursion_limit():
    original = sys.getrecursionlimit()
    base = aot._RECURSION_LIMIT // 4
    sys.setrecursionlimit(base)
    yield base
    sys.setrecursionlimit(original)


class TestRecursionGuard:

    def test_interleaved_exit_keeps_the_other_users_limit(
            self, low_recursion_limit):
        """First in, first out: the second user must keep the raised
        limit until it leaves, and the original returns after both."""
        first_in = threading.Event()
        second_in = threading.Event()
        first_out = threading.Event()
        seen: list[int] = []

        def first():
            with aot._deep_recursion():
                first_in.set()
                second_in.wait(10)
            first_out.set()

        def second():
            first_in.wait(10)
            with aot._deep_recursion():
                second_in.set()
                first_out.wait(10)
                seen.append(sys.getrecursionlimit())

        threads = [threading.Thread(target=first),
                   threading.Thread(target=second)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30)
        assert seen and seen[0] >= aot._RECURSION_LIMIT
        assert sys.getrecursionlimit() == low_recursion_limit

    def test_two_concurrent_compiles(self, low_recursion_limit,
                                     monkeypatch):
        """Every symbolic step of two simultaneous fusions runs with the
        raised limit; the original limit is back afterwards."""
        kernels = cached_kernels(csidh_toy().p)
        runners = [KernelRunner(kernels[name], engine="interpreter")
                   for name in (f"{OP_FP_MUL}.full.isa",
                                f"{OP_FP_MUL}.reduced.ise")]
        for runner in runners:  # trace outside the measured window
            runner.machine._trace_for(runner.entry)
        limits: list[int] = []
        step = aot._SymbolicRun.step

        def watched_step(self, *args):
            limits.append(sys.getrecursionlimit())
            return step(self, *args)

        monkeypatch.setattr(aot._SymbolicRun, "step", watched_step)
        barrier = threading.Barrier(len(runners))
        errors: list[BaseException] = []

        def fuse(runner):
            barrier.wait(10)
            try:
                for _ in range(3):
                    runner.fuse_entry()
            except BaseException as exc:  # surfaced by the assert below
                errors.append(exc)

        threads = [threading.Thread(target=fuse, args=(runner,))
                   for runner in runners]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
        assert not errors
        assert limits and min(limits) >= aot._RECURSION_LIMIT
        assert sys.getrecursionlimit() == low_recursion_limit
