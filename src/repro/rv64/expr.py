"""The expression IR behind aot fusion.

:mod:`repro.rv64.aot` symbolically executes a kernel's static trace
over this IR and renders what survives as Python source:

* a :class:`Node` is a constant, an atom (an input), an operation from
  ``add sub mul shr shl and or xor lt``, or an *opaque* node (an
  extracted interpreter lambda or a template the lowering cannot
  parse);
* every node carries an integer interval ``[lo, hi]`` that holds on
  every run; opaque nodes have an unknown interval, which blocks every
  rule reading it;
* a :class:`Graph` hash-conses the nodes of one compile and applies the
  exact rewrite rules as it builds them (``docs/SIMULATOR.md``, "The
  aot expression IR", lists them);
* :func:`compile_lowering` parses an expression template once into a
  function building its nodes, and :class:`Emitter` renders nodes to
  statements, materialising shared subtrees as temporaries.
"""

from __future__ import annotations

import ast
import operator
import re
from typing import Callable

from repro.errors import SimulationError
from repro.rv64.bits import MASK64


class ExpressionError(SimulationError):
    """An expression cannot be built: a constant fold fails, or a
    template names a field its kind does not define.  The aot compilers
    refuse the kernel with ``codegen_error``."""

    code = "aot_expression"


# ---------------------------------------------------------------------------
# Nodes, intervals and the graph
# ---------------------------------------------------------------------------

#: Emitted chains of single-use nodes are cut into temporaries at this
#: nesting depth: CPython's parser and its recursive expression
#: evaluator both dislike thousand-deep parenthesis towers.
DEPTH_CAP = 24

_FOLD_GLOBALS = {"__builtins__": {}, "M": MASK64}

#: The IR's operations: Python rendering over the two arguments, and
#: the integer function constant folding applies.
_FORMATS = {
    "add": "{0} + {1}",
    "sub": "{0} - {1}",
    "mul": "{0} * {1}",
    "shr": "{0} >> {1}",
    "shl": "{0} << {1}",
    "and": "{0} & {1}",
    "or": "{0} | {1}",
    "xor": "{0} ^ {1}",
    "lt": "1 if {0} < {1} else 0",
}
_APPLY = {
    "add": operator.add,
    "sub": operator.sub,
    "mul": operator.mul,
    "shr": operator.rshift,
    "shl": operator.lshift,
    "and": operator.and_,
    "or": operator.or_,
    "xor": operator.xor,
    "lt": lambda x, y: 1 if x < y else 0,
}

#: The :class:`Graph` constructor of each operation.
_METHODS = {op: op for op in _FORMATS} | {"and": "and_", "or": "or_"}

#: Left-shift amounts above this leave the result's interval unknown
#: (its bound would be astronomically wide; templates mask to 63).
_MAX_SHIFT = 1 << 12


class Node:
    """One hash-consed SSA value of the expression IR.

    ``op`` is ``"const"`` (the value is ``const``), ``"atom"`` (an
    input), ``"opaque"`` (``template`` is a positional format string
    over ``args``: an extracted interpreter lambda or a template the
    lowering cannot parse) or one of the operations of :data:`_FORMATS`
    over two ``args``.  Leaves carry their rendering in ``text`` (the
    literal or the input's name).  Every run's value lies in
    ``[lo, hi]``; ``lo is None`` means unknown, which blocks every
    rewrite reading it.  ``serial`` numbers nodes in creation order.

    An ``add`` with a known interval is an n-ary sum: ``terms`` lists
    its addends (no sums among them; by ``serial``, with the one folded
    constant last) and ``args`` is the chain's last link, ``(sum of all
    but the last term, last term)``, so sums sharing a prefix of terms
    share its nodes.
    """

    __slots__ = ("op", "args", "const", "text", "template", "lo", "hi",
                 "serial", "terms")

    def __init__(self, op, args, const, text, lo, hi, serial,
                 template=None, terms=None) -> None:
        self.op = op
        self.args = args
        self.const = const
        self.text = text
        self.template = template
        self.lo = lo
        self.hi = hi
        self.serial = serial
        self.terms = terms


def _lit(value: int) -> str:
    """Literal rendering (hex from 1024 keeps masks/addresses legible)."""
    if value < 0:
        return f"({value})"
    return hex(value) if value >= 1024 else repr(value)


def _width(*bounds: int) -> int:
    """The least ``w`` with every bound in ``[-2^w, 2^w)``."""
    return max(max(bound, ~bound).bit_length() for bound in bounds)


def _range_add(alo, ahi, blo, bhi):
    return alo + blo, ahi + bhi


def _range_sub(alo, ahi, blo, bhi):
    return alo - bhi, ahi - blo


def _range_mul(alo, ahi, blo, bhi):
    if alo >= 0 and blo >= 0:
        return alo * blo, ahi * bhi
    corners = (alo * blo, alo * bhi, ahi * blo, ahi * bhi)
    return min(corners), max(corners)


def _range_shr(alo, ahi, blo, bhi):
    # floor shifts are monotone in each argument: extremes at corners
    if blo < 0:
        return None, None
    corners = (alo >> blo, alo >> bhi, ahi >> blo, ahi >> bhi)
    return min(corners), max(corners)


def _range_shl(alo, ahi, blo, bhi):
    if blo < 0 or bhi > _MAX_SHIFT:
        return None, None
    corners = (alo << blo, alo << bhi, ahi << blo, ahi << bhi)
    return min(corners), max(corners)


def _range_and(alo, ahi, blo, bhi):
    if alo >= 0:
        return 0, (min(ahi, bhi) if blo >= 0 else ahi)
    if blo >= 0:
        return 0, bhi
    top = 1 << _width(alo, ahi, blo, bhi)
    return -top, top - 1


def _range_or(alo, ahi, blo, bhi):
    top = 1 << _width(alo, ahi, blo, bhi)
    if alo >= 0 and blo >= 0:
        return max(alo, blo), top - 1
    return -top, top - 1


def _range_xor(alo, ahi, blo, bhi):
    top = 1 << _width(alo, ahi, blo, bhi)
    if alo >= 0 and blo >= 0:
        return 0, top - 1
    return -top, top - 1


def _range_lt(alo, ahi, blo, bhi):
    return 0, 1


_RANGES = {
    "add": _range_add,
    "sub": _range_sub,
    "mul": _range_mul,
    "shr": _range_shr,
    "shl": _range_shl,
    "and": _range_and,
    "or": _range_or,
    "xor": _range_xor,
    "lt": _range_lt,
}


def _ordered(x: Node, y: Node) -> tuple[Node, Node]:
    """Canonical operands of a commutative operation: a constant goes
    second, otherwise the older node goes first."""
    if x.const is not None or (y.const is None and x.serial > y.serial):
        return y, x
    return x, y


def _serial(node: Node) -> int:
    return node.serial


def _terms(node: Node) -> tuple:
    """The addends of *node*: its terms if it is a sum, else itself."""
    return node.terms if node.terms is not None else (node,)


def _is_ones(mask: int | None) -> bool:
    """*mask* is ``2^j - 1`` for some ``j >= 1``."""
    return mask is not None and mask > 0 and not mask & (mask + 1)


class Graph:
    """The hash-consing table and rewriting node constructors of one
    compile (service lanes fuse kernels concurrently, so nothing here
    may be module-global).

    Every constructor folds all-constant operands, then applies the
    exact interval rules, then returns the one shared node for its
    (operation, operands): ``mul``/``mulhu`` — and the ISE ``madd*``
    pairs — over the same operands share one wide product.  Each rule
    is an integer identity on the operands' intervals, so a rewritten
    node has the same value as the template it replaces on every run.
    """

    def __init__(self) -> None:
        self._table: dict[tuple, Node] = {}
        self._consts: dict[int, Node] = {}
        # what rewrites hid from the carry rule: serial of a sum -> the
        # addends it was built from before split-adds recombined, and
        # serial of x -> the sums s with x == s & M that unmasking
        # replaced
        self._addends: dict[int, list[tuple]] = {}
        self._masked_from: dict[int, list[Node]] = {}
        self._serial = 0

    def _next(self) -> int:
        self._serial += 1
        return self._serial

    def const(self, value: int) -> Node:
        node = self._consts.get(value)
        if node is None:
            node = Node("const", (), value, _lit(value), value, value,
                        self._next())
            self._consts[value] = node
        return node

    def atom(self, name: str, hi: int) -> Node:
        """An input whose value lies in ``[0, hi]`` on every run."""
        return Node("atom", (), None, name, 0, hi, self._next())

    def opaque(self, template: str, args: tuple) -> Node:
        """A node whose semantics the IR does not model (unknown
        interval: nothing downstream of it is rewritten)."""
        for arg in args:
            if arg.const is None:
                break
        else:
            rendered = template.format(*[_lit(arg.const) for arg in args])
            try:
                value = eval(rendered, dict(_FOLD_GLOBALS))
            except Exception as exc:
                raise ExpressionError(
                    f"constant fold of {rendered!r} failed: {exc}"
                ) from exc
            return self.const(value)
        key = ("opaque", template) + tuple(arg.serial for arg in args)
        node = self._table.get(key)
        if node is None:
            node = Node("opaque", args, None, None, None, None,
                        self._next(), template)
            self._table[key] = node
        return node

    def _fold(self, op: str, x: Node, y: Node) -> Node:
        try:
            return self.const(_APPLY[op](x.const, y.const))
        except (ValueError, OverflowError, MemoryError) as exc:
            raise ExpressionError(
                f"constant fold of {op}({x.const}, {y.const}) failed: "
                f"{exc}"
            ) from exc

    def _cons(self, op: str, x: Node, y: Node) -> Node:
        key = (op, x.serial, y.serial)
        node = self._table.get(key)
        if node is None:
            if x.lo is None or y.lo is None:
                lo = hi = None
            else:
                lo, hi = _RANGES[op](x.lo, x.hi, y.lo, y.hi)
            node = Node(op, (x, y), None, None, lo, hi, self._next())
            self._table[key] = node
        return node

    def add(self, x: Node, y: Node) -> Node:
        if x.const is not None and y.const is not None:
            return self._fold("add", x, y)
        if x.lo is None or y.lo is None:
            return self._cons("add", *_ordered(x, y))
        return self._sum((x, y))

    def _sum(self, addends) -> Node:
        """The canonical sum of *addends* (known intervals): flattened
        into terms, constants folded, split-adds recombined, then built
        as a chain that reuses every existing prefix."""
        offset = 0
        terms = []
        for addend in addends:
            for term in _terms(addend):
                if term.const is None:
                    terms.append(term)
                else:
                    offset += term.const
        terms.sort(key=_serial)
        original = None
        while True:
            merged = self._recombine(terms)
            if merged is None:
                break
            if original is None:
                original = tuple(terms) + (
                    (self.const(offset),) if offset else ())
            terms, folded = merged
            for term in _terms(folded):
                if term.const is None:
                    terms.append(term)
                else:
                    offset += term.const
            terms.sort(key=_serial)
        if offset:
            terms.append(self.const(offset))
        if not terms:
            return self.const(0)
        node, start = terms[0], 1
        for addend in addends:  # the common case: appending to a sum
            known = addend.terms
            if (known is not None and start < len(known) <= len(terms)
                    and tuple(terms[:len(known)]) == known):
                node, start = addend, len(known)
        for term in terms[start:]:
            node = self._link(node, term)
        if original is not None:
            self._addends.setdefault(node.serial, []).append(original)
        return node

    def _link(self, prefix: Node, term: Node) -> Node:
        key = ("add", prefix.serial, term.serial)
        node = self._table.get(key)
        if node is None:
            node = Node("add", (prefix, term), None, None,
                        prefix.lo + term.lo, prefix.hi + term.hi,
                        self._next(), terms=_terms(prefix) + (term,))
            self._table[key] = node
        return node

    def _recombine(self, terms: list) -> tuple[list, Node] | None:
        """One split-add recombination (or :meth:`_rejoin`) among
        *terms*, or ``None``.

        ``Σ(u_i >> k) + ((c + Σ(u_i & (2^k - 1))) >> k)`` is
        ``(c + Σu_i) >> k`` for all integers (``u == ((u >> k) << k) +
        (u & (2^k - 1))``, and a multiple of ``2^k`` leaves a floor
        shift by ``k`` exactly): a high part ``u >> k`` beside the carry
        of a sum holding the matching low part ``u & (2^k - 1)`` folds
        into it.  Returns the remaining terms and the folded term.
        """
        for index, term in enumerate(terms):
            op = term.op
            if op == "shl":
                rejoined = self._rejoin(terms, index)
                if rejoined is not None:
                    return rejoined
                continue
            if op != "shr":
                continue
            inner, amount = term.args
            k = amount.const
            if inner.terms is None or k is None or not 0 < k <= _MAX_SHIFT:
                continue
            mask = (1 << k) - 1
            others = None
            addends = None
            for position, addend in enumerate(inner.terms):
                if addend.op != "and" or addend.args[1].const != mask:
                    continue
                value = addend.args[0]
                high = self._table.get(("shr", value.serial, amount.serial))
                if high is None:
                    continue
                if others is None:
                    others = terms[:index] + terms[index + 1:]
                rest = _without(others, high)
                if rest is not None:
                    others = rest
                    if addends is None:
                        addends = list(inner.terms)
                    addends[position] = value
            if addends is not None:
                return others, self.shr(self._sum(addends), amount)
        return None

    def _rejoin(self, terms: list, index: int) -> tuple[list, Node] | None:
        """``((u >> k) << k) + (u & (2^k - 1))`` is ``u``: the split
        of *terms*[*index*] ``(u >> k) << k`` and its low part, when
        both are terms, rejoin as ``u``."""
        high, amount = terms[index].args
        k = amount.const
        if (high.op != "shr" or high.args[1] is not amount or k is None
                or not 0 < k <= _MAX_SHIFT):
            return None
        value = high.args[0]
        mask = self._consts.get((1 << k) - 1)
        if mask is None:
            return None
        low = self._table.get(("and", value.serial, mask.serial))
        if low is None:
            return None
        others = terms[:index] + terms[index + 1:]
        rest = _without(others, low)
        if rest is None:
            return None
        return rest, value

    def apply(self, op: str, x: Node, y: Node) -> Node:
        """``op(x, y)`` for an operation of :data:`_FORMATS` named by
        *op*, through its constructor and rules."""
        return getattr(self, _METHODS[op])(x, y)

    def sub(self, x: Node, y: Node) -> Node:
        if x.const is not None and y.const is not None:
            return self._fold("sub", x, y)
        if y.const == 0 and x.lo is not None:
            return x
        if (x.op == "and" and x.args[1].const == MASK64
                and y.op == "shl" and y.args[1].const == 64):
            # the signed view x - ((x >> 63) << 64) of x = d & M is d
            # itself for d in [-2^63, 2^63)
            top, value = y.args[0], x.args[0]
            if (top.op == "shr" and top.args[0] is x
                    and top.args[1].const == 63 and value.lo is not None
                    and -(1 << 63) <= value.lo and value.hi < 1 << 63):
                return value
        return self._cons("sub", x, y)

    def mul(self, x: Node, y: Node) -> Node:
        if x.const is not None and y.const is not None:
            return self._fold("mul", x, y)
        x, y = _ordered(x, y)
        if x.lo is not None:
            if y.const == 1:
                return x
            if y.const == 0:
                return y
        return self._cons("mul", x, y)

    def shr(self, x: Node, y: Node) -> Node:
        if x.const is not None and y.const is not None:
            return self._fold("shr", x, y)
        if x.lo is not None and y.lo is not None:
            if y.const == 0:
                return x
            if x.lo >= 0 and y.lo >= 0 and not x.hi >> y.lo:
                return self.const(0)  # x < 2^k: every bit shifts out
        return self._cons("shr", x, y)

    def shl(self, x: Node, y: Node) -> Node:
        if x.const is not None and y.const is not None:
            return self._fold("shl", x, y)
        if y.const == 0 and x.lo is not None:
            return x
        return self._cons("shl", x, y)

    def and_(self, x: Node, y: Node) -> Node:
        if x.const is not None and y.const is not None:
            return self._fold("and", x, y)
        x, y = _ordered(x, y)
        mask = y.const
        if mask is not None and x.lo is not None:
            if mask == 0:
                return y
            if _is_ones(mask) and x.lo >= 0 and x.hi <= mask:
                return x  # an all-ones mask wider than x
            if x.op == "and" and x.args[1].const is not None:
                # (z & c1) & c2 == z & (c1 & c2): one mask, not two
                return self.and_(x.args[0],
                                 self.const(x.args[1].const & mask))
            if x.terms is not None and _is_ones(mask):
                unmasked = self._unmask(x, mask)
                if unmasked is not None:
                    node = self.and_(unmasked, y)
                    if mask == MASK64:
                        self._masked_from.setdefault(
                            node.serial, []).append(x)
                    return node
            if x.op == "mul" and _is_ones(mask):
                # the low bits of a product see only its factors' low
                # bits: unmask the sums among them
                factors = [self._unmask(factor, mask)
                           if factor.terms is not None else None
                           for factor in x.args]
                if factors != [None, None]:
                    return self.and_(
                        self.mul(*[new or old for new, old
                                   in zip(factors, x.args)]), y)
        return self._cons("and", x, y)

    def _unmask(self, total: Node, mask: int) -> Node | None:
        """``(c + Σ(u_i & (2^j - 1))) & (2^k - 1)`` is ``(c + Σu_i) &
        (2^k - 1)`` for ``j >= k`` (``u & (2^j - 1)`` is ``u`` mod
        ``2^k``): *total* without the masks its low *mask* bits cannot
        see, or ``None`` when it has none."""
        terms = list(total.terms)
        found = False
        for index, term in enumerate(terms):
            if term.op == "and":
                width = term.args[1].const
                if _is_ones(width) and width >= mask:
                    terms[index] = term.args[0]
                    found = True
        return self._sum(terms) if found else None

    def or_(self, x: Node, y: Node) -> Node:
        if x.const is not None and y.const is not None:
            return self._fold("or", x, y)
        x, y = _ordered(x, y)
        if x.lo is not None and y.lo is not None:
            if y.const == 0:
                return x
            funnel = self._funnel(x, y) or self._funnel(y, x)
            if funnel is not None:
                return funnel
        return self._cons("or", x, y)

    def _funnel(self, low: Node, high: Node) -> Node | None:
        """The funnel shift ``(L >> k) | (h << (64 - k))`` with ``L`` in
        ``[0, 2^64)`` is ``((h << 64) + L) >> k``: the two bit ranges
        are disjoint, so the ``or`` is an ``add``, and ``2^k`` divides
        ``h << 64``.  ``None`` when *low*, *high* are not such a pair."""
        if low.op != "shr" or high.op != "shl":
            return None
        value, amount = low.args
        k, rise = amount.const, high.args[1].const
        if (k is None or rise is None or not 0 < k < 64 or k + rise != 64
                or value.lo < 0 or value.hi > MASK64):
            return None
        wide = self.shl(high.args[0], self.const(64))
        return self.shr(self.add(wide, value), amount)

    def xor(self, x: Node, y: Node) -> Node:
        if x.const is not None and y.const is not None:
            return self._fold("xor", x, y)
        x, y = _ordered(x, y)
        if y.const == 0 and x.lo is not None:
            return x
        return self._cons("xor", x, y)

    def lt(self, x: Node, y: Node) -> Node:
        if x.const is not None and y.const is not None:
            return self._fold("lt", x, y)
        if x.lo is not None and y.lo is not None:
            if x is y:
                return self.const(0)
            if x.hi < y.lo:
                return self.const(1)
            if x.lo >= y.hi:
                return self.const(0)
            carry = self._carry(x, y)
            if carry is not None:
                return carry
        return self._cons("lt", x, y)

    def _carry(self, x: Node, y: Node) -> Node | None:
        """The carry-out idiom ``((R + u) & M) < y``, with ``y`` in
        ``[0, 2^64)`` and ``y`` either ``u`` or ``u & M``, is ``((R & M)
        + y) >> 64``: both sides are the carry out of the 64-bit add of
        ``R & M`` and ``y``, whose wrapped sum is below ``y`` exactly
        when it overflows.  Unmasked, ``R + y < y`` is 0 for ``R >= 0``.
        ``None`` when *x*, *y* are not such a pair."""
        for terms in self._decompositions(x):
            rest = _without(terms, y)
            if rest is not None and sum(term.lo for term in rest) >= 0:
                return self.const(0)
        if y.lo < 0 or y.hi > MASK64:
            return None
        low = None
        if y.op == "and" and y.args[1].const == MASK64:
            low = y.args[0]
        totals = list(self._masked_from.get(x.serial, ()))
        if x.op == "and" and x.args[1].const == MASK64:
            totals.append(x.args[0])
        for total in totals:
            for terms in self._decompositions(total):
                rest = _without(terms, y)
                if rest is None and low is not None:
                    rest = _without(terms, low)
                if rest is not None:
                    mod = self.and_(self._sum(rest), self.const(MASK64))
                    return self.shr(self.add(mod, y), self.const(64))
        return None

    def _decompositions(self, node: Node) -> list[tuple]:
        """Addend lists summing to *node*: its terms, and the addends
        recombination folded into it."""
        lists = self._addends.get(node.serial, [])
        if node.terms is None:
            return lists
        return [node.terms] + lists


def _without(terms: tuple, term: Node) -> list | None:
    """*terms* less one occurrence of *term*, or ``None`` if absent."""
    for index, candidate in enumerate(terms):
        if candidate is term:
            return list(terms[:index] + terms[index + 1:])
    return None


# ---------------------------------------------------------------------------
# Templates
# ---------------------------------------------------------------------------

#: Per expression kind: the lowering's parameters after the graph, and
#: the template fields it defines (``uimm``/``sh`` derive from ``imm``).
#: ``{sa}``/``{sb}`` expand to the signed view of ``{a}``/``{b}``.
KIND_PARAMS = {"r": ("a", "b"), "i": ("a", "imm"),
               "r4": ("a", "b", "c"), "ria": ("a", "b", "imm")}
_KIND_FIELDS = {"r": ("a", "b"), "i": ("a", "imm", "uimm", "sh"),
                "r4": ("a", "b", "c"), "ria": ("a", "b", "sh")}
_SCALARS = {"imm": "imm", "uimm": f"imm & {MASK64:#x}", "sh": "imm & 63"}

SIGNED_A = "({a} - (({a} >> 63) << 64))"
SIGNED_B = "({b} - (({b} >> 63) << 64))"

_FIELD_RE = re.compile(r"\{(\w+)\}")

_AST_OPS = {
    ast.Add: "add", ast.Sub: "sub", ast.Mult: "mul",
    ast.RShift: "shr", ast.LShift: "shl", ast.BitAnd: "and_",
    ast.BitOr: "or_", ast.BitXor: "xor",
}


def _is_int(node: ast.AST, value: int | None = None) -> bool:
    return (isinstance(node, ast.Constant) and type(node.value) is int
            and (value is None or node.value == value))


def _lower_ast(node: ast.AST, fields: tuple[str, ...]) -> str:
    """Source of the graph calls building *node* (a parsed template);
    :class:`ValueError` for a construct outside the IR."""
    if isinstance(node, ast.BinOp) and type(node.op) in _AST_OPS:
        return (f"g.{_AST_OPS[type(node.op)]}("
                f"{_lower_ast(node.left, fields)}, "
                f"{_lower_ast(node.right, fields)})")
    if _is_int(node):
        return f"g.const({node.value})"
    if (isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub)
            and _is_int(node.operand)):
        return f"g.const({-node.operand.value})"
    if isinstance(node, ast.Name):
        if node.id == "M":
            return f"g.const({MASK64:#x})"
        if node.id in fields:
            return f"g.const({node.id})" if node.id in _SCALARS else node.id
    if (isinstance(node, ast.IfExp) and isinstance(node.test, ast.Compare)
            and len(node.test.ops) == 1
            and isinstance(node.test.ops[0], (ast.Lt, ast.Gt))
            and _is_int(node.body, 1) and _is_int(node.orelse, 0)):
        left, right = node.test.left, node.test.comparators[0]
        if isinstance(node.test.ops[0], ast.Gt):
            left, right = right, left
        return (f"g.lt({_lower_ast(left, fields)}, "
                f"{_lower_ast(right, fields)})")
    raise ValueError(f"template construct outside the IR: {ast.dump(node)}")


def compile_lowering(kind: str, expr: str) -> Callable:
    """Parse *expr* once into ``lower(graph, *operands[, imm])``.

    Scalars (``imm`` and its ``uimm``/``sh`` views) are parameters, not
    text, so one lowering serves every instruction of the mnemonic.  A
    template outside the IR lowers to one opaque node instead.
    """
    fields = _KIND_FIELDS[kind]
    text = expr.replace("{sa}", SIGNED_A).replace("{sb}", SIGNED_B)
    try:
        tree = ast.parse(_FIELD_RE.sub(r"\1", text), mode="eval")
        body = _lower_ast(tree.body, fields)
    except (SyntaxError, ValueError):
        return _opaque_lowering(kind, text)
    lines = [f"def lower(g, {', '.join(KIND_PARAMS[kind])}):"]
    lines += [f"    {scalar} = {_SCALARS[scalar]}"
              for scalar in ("uimm", "sh") if scalar in fields]
    lines.append(f"    return {body}")
    scope: dict = {"__builtins__": {}}
    exec("\n".join(lines), scope)
    return scope["lower"]


def _opaque_lowering(kind: str, text: str) -> Callable:
    """Lowering of an unparsed template: positionalise it per
    instruction, as text, into one opaque node."""
    params = KIND_PARAMS[kind]
    fields = _KIND_FIELDS[kind]

    def lower(graph: Graph, *values) -> Node:
        bound = dict(zip(params, values))
        imm = bound.get("imm", 0)
        scalars = {"imm": imm, "uimm": imm & MASK64, "sh": imm & 63}
        children: list[Node] = []

        def substitute(match: re.Match) -> str:
            field = match.group(1)
            if field not in fields:
                raise ExpressionError(
                    f"template field {{{field}}} is undefined for "
                    f"expression kind {kind!r}"
                )
            if field in scalars:
                value = scalars[field]
                return str(value) if value >= 0 else f"({value})"
            children.append(bound[field])
            return "{%d}" % (len(children) - 1)

        template = _FIELD_RE.sub(substitute, text)
        return graph.opaque(template, tuple(children))

    return lower


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

def count_uses(roots: list) -> dict[int, int]:
    """DAG edge counts from *roots* (each root occurrence is a use)."""
    uses: dict[int, int] = {}
    stack = list(roots)
    while stack:
        node = stack.pop()
        key = node.serial
        if key in uses:
            uses[key] += 1
            continue
        uses[key] = 1
        if node.args:
            stack.extend(node.args)
    return uses


def reachable(roots) -> list:
    """The distinct nodes below *roots*, *roots* included."""
    seen: set = set()
    found = []
    stack = list(roots)
    while stack:
        node = stack.pop()
        if node.serial in seen:
            continue
        seen.add(node.serial)
        found.append(node)
        stack.extend(node.args)
    return found


def evaluate(roots: list, atoms: list, samples: list) -> list:
    """Each root's values over *samples*, one value per sample; a sample
    lists the value of each of *atoms*.  A value is dropped once its
    last user is evaluated, so a long limb chain holds only its live
    values.  An opaque node that calls an extracted interpreter lambda
    raises :class:`NameError` here."""
    order = []  # every node after the nodes it uses
    seen: set = set()
    stack = [(root, False) for root in roots]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
        elif node.serial not in seen:
            seen.add(node.serial)
            stack.append((node, True))
            stack.extend((arg, False) for arg in node.args)
    uses = count_uses(roots)
    values: dict[int, tuple] = {
        atom.serial: tuple(sample[index] for sample in samples)
        for index, atom in enumerate(atoms)}
    count = len(samples)
    scope = dict(_FOLD_GLOBALS)
    for node in order:
        serial = node.serial
        if serial in values:
            continue
        if node.op == "const":
            values[serial] = (node.const,) * count
            continue
        args = [values[arg.serial] for arg in node.args]
        if node.op == "opaque":
            values[serial] = tuple(
                eval(node.template.format(*map(_lit, column)), scope)
                for column in zip(*args))
        else:
            values[serial] = tuple(map(_APPLY[node.op], *args))
        for arg in node.args:
            uses[arg.serial] -= 1
            if not uses[arg.serial]:
                del values[arg.serial]
    return [values[root.serial] for root in roots]


class Emitter:
    """Render nodes to statements: temps for shared/deep subtrees.

    Every inlined non-atom subexpression is parenthesised — operations
    embed children at arbitrary precedence (ternaries inside sums), so
    the parens are load-bearing, not cosmetic.
    """

    def __init__(self, uses: dict[int, int]) -> None:
        self.uses = uses
        self.names: dict[int, str] = {}
        self.lines: list[str] = []
        self._temps = 0

    def ref(self, node: Node, depth: int = 0) -> str:
        text = node.text
        if text is not None:  # a constant or an input
            return text
        key = node.serial
        name = self.names.get(key)
        if name is not None:
            return name
        if self.uses.get(key, 1) > 1 or depth >= DEPTH_CAP:
            expression = self._render(node, 0)
            name = f"_t{self._temps}"
            self._temps += 1
            self.names[key] = name
            self.lines.append(f"{name} = {expression}")
            return name
        return "(" + self._render(node, depth) + ")"

    def alias(self, node: Node, name: str) -> None:
        """Make later references reuse an already-assigned local."""
        if node.text is None:
            self.names.setdefault(node.serial, name)

    def _render(self, node: Node, depth: int) -> str:
        depth += 1
        if node.template is not None:
            return node.template.format(
                *[self.ref(child, depth) for child in node.args])
        x, y = node.args
        return _FORMATS[node.op].format(
            self.ref(x, depth), self.ref(y, depth))
