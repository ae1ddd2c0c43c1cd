"""Wide-word lifting: limb chains of an aot graph become wide integers.

A generated field kernel computes one wide integer limb by limb: each
column of a product-scanning Montgomery multiplication, each word of an
add-with-carry or sub-with-borrow chain is a *window* of one wide value.
:func:`lift` re-expresses the roots of a :class:`~repro.rv64.expr.Graph`
over such wide values, so the fused thunk does a few big-integer
operations where the kernel does hundreds of word operations.

The lifter gives every node a *linear form*: an integer combination
``c + Σ coef·key`` of keys, where a key is

* a graph :class:`~repro.rv64.expr.Node` it does not decompose (an
  operand atom, an opaque node, or an operation no identity covers);
* a :class:`Win` ``(L >> s) & (2^w − 1)`` of a form ``L`` (``w`` is
  ``None`` for the unmasked floor ``L >> s``);
* a :class:`Prod` of two forms.

Every construction is an exact integer identity (``docs/SIMULATOR.md``,
"Wide-word lifting", states each with its proof); the ones that read an
interval refuse when it is unknown:

* **carry telescoping** — ``y + (X >> k) == (X + (y << k)) >> k``: a sum
  holding a floor with unit coefficient becomes one floor;
* **floor difference** — ``(X >> s) − (Y >> s) == (X − (Y >> s)·2^s) >>
  s``, taken only where ``Y >> s`` then rejoins, so a borrow chain's limb
  ``W[s,w](A − B_low) − W[s,w](B)`` is the window ``W[s,w](A − B)``
  (:mod:`repro.rv64.rejoin`);
* **window rejoin** — ``((X >> s) & (2^a − 1)) + (((Y >> (s+a)) & …) <<
  a)`` is one window of ``Y`` when ``X ≡ Y (mod 2^(s+a))``, so limbs
  reassemble into the value they were cut from; a window ``W[s,w](R +
  Q·2^s)`` meets the limb above it as ``W[0,w]((R >> s) + Q)``
  (:mod:`repro.rv64.rejoin`), so a Montgomery product's final
  subtraction is one value;
* **masked window** — ``((L + Z·2^(s+w)) >> s) & (2^w − 1)`` ignores
  ``Z``: a window keeps its form reduced modulo ``2^(s+w)``, and the
  renderer completes it to the widest congruent form it can share;
* **comparisons** — ``x < y`` is ``−((x − y) >> K)`` when ``x − y`` lies
  in ``[−2^K, 2^K)``; an ``or`` of two bits whose sum never exceeds 1 is
  their sum; ``t ^ (m & (u ^ t))`` with ``m`` all-ones or zero is
  ``t + β·(u − t)`` for the bit ``β``, a wide select when ``t``, ``u``
  are windows at one position;
* **limb grid** — ``Σ (A_i·B_j) << w(i+j)`` over all pairs of limbs is
  ``A·B`` (squares: each cross pair once, doubled); a grid that is only
  complete modulo a window's precision completes there;
* **bit masks** — ``x & c`` is ``−x·c`` for ``x ∈ [−1, 0]`` and
  ``−(x >> 1)·c + ((x + 1) >> 1)·(c & 1)`` for ``x ∈ [−1, 1]``, so the
  masked limbs ``x & p_k`` of a conditional subtraction gather into
  multiples of ``p``.

:func:`lift` renders the lifted roots back into the same graph through
its public constructors, so the emitter is unchanged; a root that is a
W-bit select adding ``p`` back on a borrow renders as ``(d − (d >>
W)·p) & (2^W − 1)`` (:mod:`repro.rv64.addback`).  A multiplication
is lifted when gathering its limb grids saves products; a kernel that
multiplies nothing (the add/sub carry chains) when its lifted form costs
less.  :func:`repro.rv64.redc.one_shot_redc` then replaces each
word-level Montgomery reduction chain of the rendered roots by the
one-shot reduction, and a guard evaluates the lifted and the limb-form
roots on boundary operands and keeps the limb form on any disagreement.
"""

from __future__ import annotations

import functools

from repro import telemetry
from repro.rv64.expr import Graph, Node, _is_ones, _range_mul, evaluate, reachable
from repro.rv64.redc import one_shot_redc

_INF = None  # render exactly, not modulo a power of two
_EXACT = float("inf")  # the precision of an exact form
#: Windows of forms with more terms skip the interval test that drops
#: a mask (see :meth:`Lifter._window`).
_BOUNDED_TERMS = 8
_WORD = 1 << 64


def _low_zeros(value: int) -> int:
    """Trailing zero bits of a nonzero integer."""
    return (value & -value).bit_length() - 1


class _Bounded:
    """An interval ``[lo, hi]`` computed on first use (``lo is None``:
    unknown); most forms are never asked."""

    __slots__ = ()

    @property
    def lo(self):
        if self._bounds is None:
            self._bounds = self._interval()
        return self._bounds[0]

    @property
    def hi(self):
        if self._bounds is None:
            self._bounds = self._interval()
        return self._bounds[1]


class Win(_Bounded):
    """The window ``(lin >> s) & (2^w − 1)``; ``w is None`` is the
    unmasked floor ``lin >> s``.  Interned: one object per window."""

    __slots__ = ("lin", "s", "w", "serial", "_bounds")

    def __init__(self, lin, s, w, serial) -> None:
        self.lin, self.s, self.w, self.serial = lin, s, w, serial
        self._bounds = None

    def _interval(self):
        lo, hi = self.lin.lo, self.lin.hi
        s, w = self.s, self.w
        if lo is None:
            return (None, None) if w is None else (0, (1 << w) - 1)
        if w is None:
            return lo >> s, hi >> s
        low, high = lo >> s, hi >> s
        if low >> w == high >> w:
            mask = (1 << w) - 1
            return low & mask, high & mask
        return 0, (1 << w) - 1


class Prod(_Bounded):
    """The product of two forms.  Interned.  ``limbs`` holds the two
    factors as limbs ``(base, start, width)``, the older base first, or
    ``None`` when a factor is not a limb (see :func:`_limb`)."""

    __slots__ = ("a", "b", "serial", "limbs", "_bounds")

    def __init__(self, a, b, serial) -> None:
        self.a, self.b, self.serial = a, b, serial
        self._bounds = None
        left, right = _limb(a), _limb(b)
        if left is None or right is None:
            self.limbs = None
        elif right[0].serial < left[0].serial:
            self.limbs = right, left
        else:
            self.limbs = left, right

    def _interval(self):
        a, b = self.a, self.b
        if a.lo is None or b.lo is None:
            return None, None
        return _range_mul(a.lo, a.hi, b.lo, b.hi)


class Lin(_Bounded):
    """``const + Σ coef·key`` over interned keys, in key order.
    Interned: equal forms are one object."""

    __slots__ = ("terms", "const", "serial", "_bounds")

    def __init__(self, terms, const, serial) -> None:
        self.terms, self.const, self.serial = terms, const, serial
        self._bounds = None

    def _interval(self):
        lo = hi = self.const
        for key, coef in self.terms:
            if key.lo is None:
                return None, None
            if coef > 0:
                lo += coef * key.lo
                hi += coef * key.hi
            else:
                lo += coef * key.hi
                hi += coef * key.lo
        return lo, hi


def _item_order(item) -> int:
    return item[0].serial


# imported once the forms it reads exist (it imports them from here)
from repro.rv64 import addback, rejoin  # noqa: E402


class Lifter:
    """The forms of one graph's nodes and the renderer back to nodes."""

    def __init__(self, graph: Graph) -> None:
        self.graph = graph
        self._lins: dict = {}
        self._keys: dict = {}
        self._win_memo: dict = {}
        self._grid_memo: dict = {}
        self._wins: dict = {}
        self._prods: dict = {}
        self._trunc: dict = {}
        self._forms: dict[int, Lin] = {}
        self._rendered: dict = {}
        self._rebuilt: dict[int, Node] = {}
        self._refs: dict = {}
        self._consts: dict = {}
        # the wide products of gathered limb grids, and the limb
        # products they replaced
        self._wide: set = set()
        self._gathered: set = set()
        self._origin: dict = {}
        self._order = 1 << 40

    def _next(self) -> int:
        self._order += 1
        return self._order

    # -- forms ---------------------------------------------------------

    def const(self, value: int) -> Lin:
        return self._intern({}, value)

    def key(self, key) -> Lin:
        lin = self._keys.get(id(key))
        if lin is None:
            lin = self._keys[id(key)] = self._intern({key: 1}, 0)
        return lin

    def _intern(self, terms: dict, const: int) -> Lin:
        """The one :class:`Lin` of *terms* (no zero coefficients)."""
        items = tuple(sorted(terms.items(), key=_item_order))
        lin = self._lins.get((items, const))
        if lin is None:
            lin = self._lins[items, const] = Lin(items, const, self._next())
        return lin

    def combine(self, parts) -> Lin:
        """The normal form of ``Σ scale·lin`` over *parts*."""
        if len(parts) == 1:  # a multiple of a normal form is normal
            scale, lin = parts[0]
            if scale == 1:
                return lin
            if not scale:
                return self.const(0)
            return self._intern({key: scale * coef
                                 for key, coef in lin.terms},
                                scale * lin.const)
        terms: dict = {}
        const = 0
        for scale, lin in parts:
            const += scale * lin.const
            for key, coef in lin.terms:
                terms[key] = terms.get(key, 0) + scale * coef
        return self._normal(terms, const)

    def _normal(self, terms: dict, const: int) -> Lin:
        clean = {}
        windows = False
        for key, coef in terms.items():
            if coef:
                clean[key] = coef
                windows = windows or type(key) is Win
        terms = clean
        if not windows:
            return self._intern(terms, const)
        while True:
            floor = self._telescope(terms, const)
            if floor is not None:
                return floor
            shift = self._rejoin(terms)
            if shift is None:
                return self._intern(terms, const)
            const += shift

    def _telescope(self, terms: dict, const: int,
                   key: Win | None = None) -> Lin | None:
        """``Z ± (X >> k)`` is one floor: ``(X + Z·2^k) >> k``, and
        ``−(X >> k) == (2^k − 1 − X) >> k``.  The floor absorbed is
        *key*, by default the unit floor shifted beyond every other one
        (folding peers into each other hides the carries they are; of
        two tied peers only a floor difference folds)."""
        if key is None:
            tied = False
            for candidate, coef in terms.items():
                if (type(candidate) is not Win or candidate.w is not None
                        or coef not in (1, -1)):
                    continue
                if key is None or candidate.s > key.s:
                    key, tied = candidate, False
                elif candidate.s == key.s:
                    tied = True
            if key is None:
                return None
            if tied:
                return rejoin.floor_difference(self, terms, const,
                                               key.s)
        sign = terms[key]
        if sign not in (1, -1) or (len(terms) == 1 and not const):
            return None  # a lone floor has nothing to absorb
        k = key.s
        scale = 1 << k
        merged = {other: coef * scale for other, coef in terms.items()
                  if other is not key}
        const *= scale
        if sign < 0:
            const += scale - 1
        inner = key.lin
        const += sign * inner.const
        for other, coef in inner.terms:
            merged[other] = merged.get(other, 0) + sign * coef
        return self.win(self._normal(merged, const), k, None)

    def _rejoin(self, terms: dict) -> int | None:
        """Merge adjacent windows of congruent forms into one window (in
        place; returns the constant the merges add), or return ``None``
        when no pair merges."""
        windows = [(key, coef) for key, coef in terms.items()
                   if type(key) is Win]
        if len(windows) < 2:
            return None
        by_start: dict = {}
        for key, coef in windows:
            by_start.setdefault(key.s, []).append((key, coef))
        used: set = set()
        const = None
        for key, coef in windows:
            if key.w is None or key in used:
                continue
            low = key
            upper = self._upper(low, coef, by_start, used)
            if upper is None and key.s and key.w in by_start:
                low = rejoin.lower_window(self, key)
                upper = low and self._upper(low, coef, by_start, used)
            if upper is not None:
                used.add(key)
                used.add(upper)
                width = None if upper.w is None else low.w + upper.w
                merged = self.win(upper.lin, low.s, width)
                del terms[key]
                del terms[upper]
                for inner, inner_coef in merged.terms:
                    total = terms.get(inner, 0) + coef * inner_coef
                    if total:
                        terms[inner] = total
                    else:
                        terms.pop(inner, None)
                const = (const or 0) + coef * merged.const
        return const

    def _upper(self, key: Win, coef: int, by_start: dict, used: set):
        """The window of *by_start* that continues *key* (see
        :meth:`_rejoin`), or ``None``."""
        top = key.s + key.w
        for upper, upper_coef in by_start.get(top, ()):
            if (upper not in used and upper_coef == coef << key.w
                    and self.trunc(upper.lin, top) is key.lin):
                return upper
        return None

    def win(self, lin: Lin, s: int, w: int | None) -> Lin:
        """The form of ``(lin >> s) & (2^w − 1)`` (``w`` None: floor)."""
        memo = (id(lin), s, w)
        found = self._win_memo.get(memo)
        if found is None:
            found = self._win_memo[memo] = self._window(lin, s, w)
        return found

    def _window(self, lin: Lin, s: int, w: int | None) -> Lin:
        while True:
            if w is not None and w <= 0:
                return self.const(0)
            if not lin.terms:
                value = lin.const >> s
                return self.const(value if w is None
                                  else value & ((1 << w) - 1))
            if s == 0 and w is None:
                return lin
            if len(lin.terms) == 1 and not lin.const:
                inner, coef = lin.terms[0]
                if type(inner) is Win and coef == 1:
                    if inner.w is None:
                        lin, s = inner.lin, inner.s + s
                        continue
                    if s >= inner.w:
                        return self.const(0)
                    width = inner.w - s
                    lin, s = inner.lin, inner.s + s
                    w = width if w is None else min(w, width)
                    continue
            # bounding a long form costs more than the rare mask it
            # drops; the limbs the grid rule needs are short forms
            if (len(lin.terms) <= _BOUNDED_TERMS and lin.lo is not None
                    and lin.lo >= 0):
                if not lin.hi >> s:
                    return self.const(0)
                if w is not None and not lin.hi >> (s + w):
                    w = None  # the mask cannot change the value
                    continue
            if w is not None:
                reduced = self.trunc(lin, s + w)
                if reduced is not lin:
                    lin = reduced
                    continue
            break
        signature = (id(lin), s, w)
        window = self._wins.get(signature)
        if window is None:
            window = Win(lin, s, w, self._next())
            self._wins[signature] = window
        return self.key(window)

    def _widen(self, lin: Lin, e: int) -> Lin | None:
        """*lin* as one window, when unmasking one of its windows (equal
        modulo ``2^e`` to its floor) lets the rest telescope into it."""
        if len(lin.terms) < 2 and not lin.const:
            return None
        for key, coef in lin.terms:
            if (type(key) is not Win or key.w is None or coef not in (1, -1)
                    or key.w < e):
                continue
            floor = self.win(key.lin, key.s, None)
            merged = self.combine([(1, lin), (-coef, self.key(key)),
                                   (coef, floor)])
            if (len(merged.terms) == 1 and not merged.const
                    and merged.terms[0][1] == 1):
                return merged
        return None

    def trunc(self, lin: Lin, e: int) -> Lin:
        """The canonical form of *lin* modulo ``2^e``: coefficients and
        constant reduced into ``[−2^(e−1), 2^(e−1))``, windows narrowed
        to the bits that can reach the low *e* unless their values fit
        those bits already."""
        memo = (id(lin), e)
        reduced = self._trunc.get(memo)
        if reduced is not None:
            return reduced
        modulus = 1 << e
        half = modulus >> 1
        current = lin
        for _ in range(8):
            terms: dict = {}
            const = (current.const + half) % modulus - half
            for key, coef in current.terms:
                coef = (coef + half) % modulus - half
                if not coef:
                    continue
                inner = None
                if type(key) is Win:
                    width = e - _low_zeros(coef)
                    if key.s == 0 and key.w is not None and key.w >= width:
                        inner = key.lin  # a low window
                    elif (key.w is None or key.w > width) and not (
                            key.lo is not None and key.lo >= 0
                            and not key.hi >> width):
                        # a window whose values fit the width is its own
                        # residue: narrowing it would only recurse
                        inner = self.win(key.lin, key.s, width)
                        self._note_origin(inner, key)
                if inner is None:
                    terms[key] = terms.get(key, 0) + coef
                    continue
                const += coef * inner.const
                for sub, sub_coef in inner.terms:
                    terms[sub] = terms.get(sub, 0) + coef * sub_coef
            const += rejoin.window_differences(self, terms, e)
            self._complete_grids(terms, current, modulus)
            nxt = self._normal(terms, const)
            if nxt is current:
                break
            current = nxt
        self._trunc[memo] = current
        self._trunc[(id(current), e)] = current
        return current

    def _note_origin(self, narrowed: Lin, key: Win) -> None:
        """Remember that *narrowed* is *key* seen through fewer bits:
        both draw their representatives from one table."""
        if len(narrowed.terms) == 1 and narrowed.terms[0][1] == 1:
            origin = self._origin.get(key, key)
            self._origin.setdefault(narrowed.terms[0][0], origin)

    def prod(self, a: Lin, b: Lin) -> Lin:
        if not a.terms:
            return self.combine([(a.const, b)])
        if not b.terms:
            return self.combine([(b.const, a)])
        scale = 1
        if len(a.terms) == 1 and not a.const and a.terms[0][1] != 1:
            scale *= a.terms[0][1]  # (c·K)·B == c·(K·B)
            a = self.key(a.terms[0][0])
        if len(b.terms) == 1 and not b.const and b.terms[0][1] != 1:
            scale *= b.terms[0][1]
            b = self.key(b.terms[0][0])
        if scale != 1:
            return self.combine([(scale, self.prod(a, b))])
        if b.serial < a.serial:
            a, b = b, a
        signature = (id(a), id(b))
        product = self._prods.get(signature)
        if product is None:
            product = Prod(a, b, self._next())
            self._prods[signature] = product
        return self.key(product)

    def form(self, node: Node) -> Lin:
        """The linear form of *node* (its children's forms first)."""
        forms = self._forms
        found = forms.get(node.serial)
        if found is not None:
            return found
        pending = [node]
        while pending:
            current = pending[-1]
            missing = [arg for arg in _operands(current)
                       if arg.serial not in forms]
            if missing:
                pending.extend(missing)
                continue
            pending.pop()
            if current.serial not in forms:
                forms[current.serial] = self._analyse(current)
        return forms[node.serial]

    def _analyse(self, node: Node) -> Lin:
        op = node.op
        if op == "const":
            return self.const(node.const)
        if op in ("atom", "opaque"):
            return self.key(node)
        forms = self._forms
        if op == "add" and node.terms is not None:
            return self.combine([(1, forms[term.serial])
                                 for term in node.terms])
        x, y = node.args
        fx, fy = forms[x.serial], forms[y.serial]
        amount = y.const
        if op == "add":
            return self.combine([(1, fx), (1, fy)])
        if op == "sub":
            return self.combine([(1, fx), (-1, fy)])
        if op == "mul":
            return self.prod(fx, fy)
        if op == "shl" and amount is not None and 0 <= amount <= 4096:
            return self.combine([(1 << amount, fx)])
        if op == "shr" and amount is not None and amount >= 0:
            return self.win(fx, amount, None)
        if op == "and" and amount is not None:
            if _is_ones(amount):
                return self.win(fx, 0, amount.bit_length())
            if fx.lo is not None and -1 <= fx.lo and fx.hi <= 0:
                return self.combine([(-amount, fx)])  # x & c == −x·c
            if fx.lo is not None and -1 <= fx.lo and fx.hi <= 1:
                # x & c == −(x >> 1)·c + ((x + 1) >> 1)·(c & 1), over
                # the two bits as keys (floors would telescope)
                graph = self.graph
                one = graph.const(1)
                return self.combine([
                    (-amount, self.key(graph.shr(x, one))),
                    (amount & 1, self.key(graph.shr(graph.add(x, one),
                                                    one)))])
        if op == "lt" and fx.lo is not None and fy.lo is not None:
            diff = self.combine([(1, fx), (-1, fy)])
            if diff.lo is not None:
                k = max(diff.hi.bit_length(), (-diff.lo - 1).bit_length())
                return self.combine([(-1, self.win(diff, k, None))])
        if (op == "or" and x.lo is not None and y.lo is not None
                and 0 <= x.lo and x.hi <= 1 and 0 <= y.lo and y.hi <= 1):
            total = self._bit_sum(fx, fy)
            if total is not None:
                return total  # never both set: x | y == x + y
        if op == "or":
            for low, high in ((y, fx), (x, fy)):
                if (low.lo is not None and 0 <= low.lo and high.lo is not None
                        and not low.hi >> self._zeros(high)):
                    # high's set bits lie above low's: x | y == x + y
                    return self.combine([(1, fx), (1, fy)])
        if op == "xor":
            select = self._select(x, y) or self._select(y, x)
            if select is not None:
                return select
        return self.key(node)

    def _zeros(self, lin: Lin) -> int:
        """Low bits of *lin* that are zero on every run (a lower bound;
        keys count as having none)."""
        zeros = _low_zeros(lin.const) if lin.const else 1 << 30
        for key, coef in lin.terms:
            own = max(0, self._zeros(key.lin) - key.s) \
                if type(key) is Win else 0
            zeros = min(zeros, _low_zeros(coef) + own)
        return zeros

    def _bit_sum(self, fx: Lin, fy: Lin) -> Lin | None:
        """``x + y`` in a form whose interval lies in ``[0, 1]``, trying
        each floor of the sum as the one that absorbs the rest."""
        total = self.combine([(1, fx), (1, fy)])
        if total.lo is not None and 0 <= total.lo and total.hi <= 1:
            return total
        terms: dict = {}
        for lin in (fx, fy):
            for key, coef in lin.terms:
                terms[key] = terms.get(key, 0) + coef
        const = fx.const + fy.const
        for key, coef in list(terms.items()):
            if type(key) is Win and key.w is None and coef in (1, -1):
                total = self._telescope(terms, const, key)
                if (total is not None and total.lo is not None
                        and 0 <= total.lo and total.hi <= 1):
                    return total
        return None

    def _select(self, t: Node, masked: Node) -> Lin | None:
        """``t ^ (m & (u ^ t))`` is ``u`` when ``m`` is all ones and
        ``t`` when it is 0: ``t + β·(u − t)`` for the bit ``β``."""
        if masked.op != "and":
            return None
        for mask, other in (masked.args, masked.args[::-1]):
            if other.op != "xor" or t not in other.args:
                continue
            u = other.args[1] if other.args[0] is t else other.args[0]
            beta = self._mask_bit(mask, t, u)
            if beta is not None:
                break
        else:
            return None
        forms = self._forms
        ft, fu = forms[t.serial], forms[u.serial]
        window = self._common_window(ft, fu)
        if window is not None:
            lt, lu, s, w = window
            delta = self.combine([(1, lu), (-1, lt)])
            inner = self.combine([(1, lt), (1, self.prod(beta, delta))])
            return self.win(inner, s, w)
        delta = self.combine([(1, fu), (-1, ft)])
        return self.combine([(1, ft), (1, self.prod(beta, delta))])

    def _mask_bit(self, mask: Node, t: Node, u: Node) -> Lin | None:
        """The bit ``β`` with ``mask`` all ones (over *t*, *u*) exactly
        when ``β`` is 1, or ``None``."""
        if mask.lo is not None and -1 <= mask.lo and mask.hi <= 0:
            return self.combine([(-1, self._forms[mask.serial])])
        if mask.op != "and" or not _is_ones(mask.args[1].const):
            return None
        value = mask.args[0]
        width = mask.args[1].const.bit_length()
        if (value.lo is not None and -1 <= value.lo and value.hi <= 0
                and t.lo is not None and u.lo is not None
                and 0 <= t.lo and t.hi >> width == 0
                and 0 <= u.lo and u.hi >> width == 0):
            return self.combine([(-1, self._forms[value.serial])])
        return None

    def _common_window(self, ft: Lin, fu: Lin):
        """Both forms as windows at one position: ``(lin_t, lin_u, s,
        w)``, rebasing the higher window onto the lower one's start."""
        if (len(ft.terms) != 1 or len(fu.terms) != 1 or ft.const
                or fu.const or ft.terms[0][1] != 1 or fu.terms[0][1] != 1):
            return None
        wt, wu = ft.terms[0][0], fu.terms[0][0]
        if type(wt) is not Win or type(wu) is not Win or wt.w != wu.w \
                or wt.w is None:
            return None
        wt, wu = self._collapse(wt), self._collapse(wu)
        s = min(wt.s, wu.s)
        lt = self._rebase(wt, s)
        lu = self._rebase(wu, s)
        return lt, lu, s, wt.w

    def _collapse(self, window: Win) -> Win:
        """*window* with its form collapsed into one inner window (see
        :meth:`_widen`), so a chain's limbs share a position."""
        widened = self._widen(window.lin, window.s + window.w)
        if widened is None:
            return window
        lin = self.win(widened, window.s, window.w)
        if len(lin.terms) == 1 and not lin.const and lin.terms[0][1] == 1:
            return lin.terms[0][0]
        return window

    def _rebase(self, window: Win, s: int) -> Lin:
        """A form whose window at *s* is *window* (``window.s >= s``)."""
        if window.s == s:
            return window.lin
        return self.win(window.lin, window.s - s, window.w + s)

    # -- rendering -----------------------------------------------------

    def _hint(self, lin: Lin, precision: float) -> None:
        """Record *lin*'s coefficients and constant as representatives
        valid to *precision* bits."""
        origin = self._origin
        for key, coef in lin.terms:
            known = self._refs.setdefault(origin.get(key, key), {})
            if known.get(coef, -1) < precision:
                known[coef] = precision
        if self._consts.get(lin.const, -1) < precision:
            self._consts[lin.const] = precision

    def prepare(self, roots) -> int:
        """Record the representatives of every form reachable from
        *roots*.  A window may render any coefficient or constant
        congruent to its own; the one known to the most bits -- the
        complete row a truncated window sees only the low part of --
        makes the rendered sums shared.

        Returns how many fewer products the rendered forms compute than
        the limb form: the limb products that only complete grids hold
        disappear, and each grid adds one wide product."""
        kept: set = set()
        seen: set = set()
        stack = []
        for root in roots:
            bounded = root.lo is not None and root.lo >= 0
            stack.append((self.form(root),
                          root.hi.bit_length() if bounded else _EXACT))
        while stack:
            lin, precision = stack.pop()
            if id(lin) in seen:
                continue
            seen.add(id(lin))
            self._hint(lin, precision)
            self._keep_products(lin, precision, kept)
            for key, _coef in lin.terms:
                if type(key) is Win:
                    stack.append((key.lin, _EXACT if key.w is None
                                  else key.s + key.w))
                elif type(key) is Prod:
                    stack.extend(((key.a, precision), (key.b, precision)))
                else:
                    stack.extend((self.form(arg), _EXACT)
                                 for arg in key.args)
        return len(self._gathered - kept) - len(self._wide)

    def _representative(self, value: int, known: dict,
                        modulus: int) -> int:
        """The member of *known* congruent to *value* that is valid to
        the most bits (the smallest on a tie), or *value* itself."""
        best, best_key = value, None
        for candidate, precision in known.items():
            if (candidate - value) % modulus:
                continue
            rank = (precision, -abs(candidate))
            if best_key is None or rank > best_key:
                best, best_key = candidate, rank
        return best

    def render_root(self, node: Node) -> Node:
        """*node* rebuilt from its lifted form."""
        return self.render(self.form(node), _INF)

    def render(self, lin: Lin, p: int | None) -> Node:
        """A node equal to *lin* modulo ``2^p`` (exactly if ``p`` is
        None)."""
        memo = (id(lin), p)
        node = self._rendered.get(memo)
        if node is not None:
            return node
        modulus = None if p is None else 1 << p
        terms = dict(lin.terms)
        const = lin.const
        if modulus is not None:
            terms = {k: c for k, c in terms.items() if c % modulus}
            const = self._representative(const, self._consts, modulus)
        self._complete_grids(terms, lin, modulus)
        if modulus is not None:
            for key, coef in terms.items():
                known = self._refs.get(self._origin.get(key, key), {})
                terms[key] = self._representative(coef, known, modulus)
        graph = self.graph
        if not terms:
            node = graph.const(const)
            self._rendered[memo] = node
            return node
        positive, negative = [], []
        for key, coef in terms.items():
            sub = None if p is None else p - _low_zeros(coef)
            base = self._render_key(key, sub)
            magnitude = abs(coef)
            if magnitude != 1:
                if not magnitude & (magnitude - 1):
                    base = graph.shl(base, graph.const(
                        magnitude.bit_length() - 1))
                else:
                    base = graph.mul(base, graph.const(magnitude))
            (positive if coef > 0 else negative).append(base)
        positive.sort(key=_serial)
        negative.sort(key=_serial)
        node = positive[0] if positive else graph.const(0)
        for term in positive[1:]:
            node = graph.add(node, term)
        for term in negative:
            node = graph.sub(node, term)
        if const:
            node = graph.add(node, graph.const(const))
        self._rendered[memo] = node
        return node

    def _render_key(self, key, p: int | None) -> Node:
        graph = self.graph
        if type(key) is Node:
            return self._rebuild(key)
        if type(key) is Prod:
            return graph.mul(self.render(key.a, p), self.render(key.b, p))
        s, w = key.s, key.w
        if w is None or (p is not None and p <= w):
            inner = self.render(key.lin, None if p is None else s + p)
            return graph.shr(inner, graph.const(s))
        inner = self.render(key.lin, s + w)
        return graph.and_(graph.shr(inner, graph.const(s)),
                          graph.const((1 << w) - 1))

    def _rebuild(self, node: Node) -> Node:
        """A node the lift does not decompose, over rendered children."""
        done = self._rebuilt.get(node.serial)
        if done is not None:
            return done
        if not node.args:
            rebuilt = node
        else:
            args = tuple(self.render(self.form(arg), _INF)
                         for arg in node.args)
            if all(new is old for new, old in zip(args, node.args)):
                rebuilt = node
            elif node.op == "opaque":
                rebuilt = self.graph.opaque(node.template, args)
            else:
                rebuilt = self.graph.apply(node.op, *args)
        self._rebuilt[node.serial] = rebuilt
        return rebuilt

    def _grids(self, lin: Lin) -> list:
        """The limb grids among *lin*'s products: ``(a, b, pairs,
        weights)`` per pair of operands (see :func:`_grid`)."""
        found = self._grid_memo.get(id(lin))
        if found is not None:
            return found
        groups: dict = {}
        for key, _coef in lin.terms:
            if type(key) is not Prod or key.limbs is None:
                continue
            left, right = key.limbs
            groups.setdefault((left[0], right[0]), []).append(
                (key, left, right))
        found = []
        for (a, b), members in groups.items():
            widths = {side[2] for _key, *sides in members for side in sides
                      if side[2] is not None}
            if len(widths) != 1:
                continue
            grid = _grid(a, b, widths.pop(), members)
            if grid is not None and (0, 0) in grid[0]:
                found.append((a, b) + grid)
        self._grid_memo[id(lin)] = found
        return found

    def _completion(self, terms: dict, grid, modulus: int | None):
        """The scale ``c`` when *terms* hold the limb *grid* as ``c·(A·B)``
        (modulo *modulus*), else ``None``."""
        _a, _b, pairs, weights = grid
        scale = terms.get(pairs[(0, 0)])
        if scale is None:
            return None
        for pair, weight in weights.items():  # by increasing weight
            if modulus is not None and weight >= modulus:
                # the rest vanish modulo 2^p; so must their keys,
                # which terms then no longer hold
                if any(key in terms for other, key in pairs.items()
                       if weights[other] >= modulus):
                    return None
                return scale
            key = pairs.get(pair)
            gap = (terms.get(key, 0) if key is not None else 0) \
                - scale * weight
            if (gap if modulus is None else gap % modulus) != 0:
                return None
        return scale

    def _complete_grids(self, terms: dict, lin: Lin,
                        modulus: int | None) -> None:
        """Replace each limb grid ``Σ c·2^(w(i+j))·(A_i·B_j)`` of *lin*
        (equal modulo *modulus*) in *terms* by ``c·(A·B)``."""
        for grid in self._grids(lin):
            scale = self._completion(terms, grid, modulus)
            if scale is None:
                continue
            a, b, pairs, _weights = grid
            for key in pairs.values():
                terms.pop(key, None)
            product = self.prod(a, b).terms[0][0]
            terms[product] = terms.get(product, 0) + scale
            if len(pairs) > 1:
                self._wide.add(product)
                self._gathered.update(pairs.values())

    def _keep_products(self, lin: Lin, precision: float,
                       kept: set) -> None:
        """Add to *kept* the products *lin* still computes at *precision*
        bits once its complete limb grids are gathered (recorded in
        ``_wide`` and ``_gathered``), wide products excluded."""
        modulus = None if precision == _EXACT else 1 << precision
        terms = {key: coef for key, coef in lin.terms
                 if modulus is None or coef % modulus}
        if self._grids(lin):
            self._complete_grids(terms, lin, modulus)
        kept.update(key for key in terms
                    if type(key) is Prod and key not in self._wide)


def _operands(node: Node) -> tuple:
    """What *node*'s form is built from: an n-ary sum's terms (never
    its prefix links), else its arguments."""
    if node.op == "add" and node.terms is not None:
        return node.terms
    return node.args


def _serial(node: Node) -> int:
    return node.serial


def _limb(lin: Lin):
    """``(base form, start, width)`` when *lin* is one window of a
    form with unit coefficient, else ``None``."""
    if lin.const or len(lin.terms) != 1:
        return None
    key, coef = lin.terms[0]
    if coef != 1:
        return None
    if type(key) is Win:
        return key.lin, key.s, key.w
    return None


def _grid(a: Lin, b: Lin, w: int, members):
    """The pairs ``(i, j) -> key`` and weights ``(i, j) -> 2^(w(i+j))``
    (doubled off the diagonal of a square) of the full limb grid of
    ``a·b`` at limb width *w*, or ``None`` when a member is not a limb
    of it or an operand may not fit its limbs."""
    limbs = []
    for base in (a, b):
        if base.lo is None or base.lo < 0:
            return None
        limbs.append(max(1, -(-base.hi.bit_length() // w)))
    pairs = {}
    for key, left, right in members:
        indices = []
        for (base, start, width), count in zip((left, right), limbs):
            index, rest = divmod(start, w)
            if rest or index >= count:
                return None
            if width is None:
                if index != count - 1:
                    return None
            elif width != w:
                return None
            indices.append(index)
        i, j = indices
        if a is b and i > j:
            i, j = j, i
        if (i, j) in pairs:
            return None
        pairs[(i, j)] = key
    return pairs, _weights(w, limbs[0], limbs[1], a is b)


@functools.lru_cache(maxsize=64)
def _weights(w: int, rows: int, columns: int, square: bool) -> dict:
    """``(i, j) -> 2^(w(i+j))`` over a limb grid, doubled off the
    diagonal of a square (whose pairs have ``i <= j``), by increasing
    weight."""
    weights = {}
    for i in range(rows):
        for j in range(columns):
            if square and i > j:
                continue
            weight = 1 << (w * (i + j))
            weights[(i, j)] = weight * 2 if square and i != j else weight
    return dict(sorted(weights.items(), key=lambda item: item[1]))


# -- the guard -------------------------------------------------------------------

def _guard_operands(atoms: list) -> list:
    """Operand assignments the guard evaluates: every atom at 0, at 1
    and at its bound, and two alternating bit patterns that give
    neighbouring atoms different values."""
    his = [atom.hi for atom in atoms]
    return [[0] * len(his), [1] * len(his), list(his),
            [hi // 3 if index % 2 else hi // 5
             for index, hi in enumerate(his)],
            [hi // 5 if index % 2 else hi // 3
             for index, hi in enumerate(his)]]


def _refusal(roots: list, lifted: list, atoms: list) -> str | None:
    """Why *lifted* may not replace *roots* (the reason
    ``aot_lift_refusals_total`` counts), or ``None``: both are evaluated
    on :func:`_guard_operands` of *atoms* and must agree root by root
    (else ``value_mismatch``); any failure to evaluate, such as an
    opaque node calling an extracted interpreter lambda, leaves the lift
    unverified (``eval_error``)."""
    samples = _guard_operands(atoms)
    try:
        expected = evaluate(roots, atoms, samples)
        found = evaluate(lifted, atoms, samples)
    except Exception:
        return "eval_error"
    return None if expected == found else "value_mismatch"


def _multiplies(nodes: list) -> bool:
    """Some node of *nodes* multiplies two variable values: without one
    the kernel has no partial products, so no limb grid."""
    for node in nodes:
        if (node.op == "mul" and node.args[0].const is None
                and node.args[1].const is None):
            return True
    return False


def _is_product(node: Node) -> bool:
    """*node* multiplies two factors neither of which lies in ``[−1,
    1]`` (a product with a bit is a select, not a multiplication)."""
    if node.op != "mul":
        return False
    for arg in node.args:
        if arg.lo is not None and -1 <= arg.lo and arg.hi <= 1:
            return False
    return True


def _counts(nodes: list) -> tuple[int, int]:
    """(products, cost) of *nodes*: the products of :func:`_is_product`,
    and the operations with each one whose value may leave ``[−2^64,
    2^64)`` counted twice.  On CSIDH-512 every add/sub thunk's lifted
    form costs less (``fp_sub.full``: 124 against 241)."""
    products = cost = 0
    for node in nodes:
        if node.args:
            products += _is_product(node)
            cost += 1 if (node.lo is not None and node.lo >= -_WORD
                          and node.hi < _WORD) else 2
    return products, cost


def lift(graph: Graph, roots: list) -> list:
    """*roots* re-expressed over wide integers (nodes of *graph*), or
    *roots* themselves unless the lifted form computes fewer products,
    or no more products at a lower cost (:func:`_counts`).

    A kernel that multiplies two variable values is lifted when
    :meth:`Lifter.prepare` finds, before anything is rendered, that
    gathering its limb grids saves products: on CSIDH-512 each
    ``fp_mul``, each ``fp_sqr`` but ``full.isa`` and the reduced-radix
    ``int_mul``/``int_sqr``; a multiplication whose grids save nothing
    runs slower lifted (``fp_sqr.full.isa``: 5x).  A kernel that
    multiplies nothing (``fp_add``, ``fp_sub``, ``fast_reduce``) is
    rendered and lifted when that costs less; one that multiplies only
    by constants (``mont_redc``) keeps its limb form unanalysed.  The
    roots rendered by :func:`repro.rv64.addback.render_roots` then pass
    :func:`one_shot_redc` and the guard
    (:func:`_refusal`), which keeps the limb form and counts
    ``aot_lift_refusals_total{reason}`` on any disagreement."""
    nodes = reachable(roots)
    chains = not _multiplies(nodes)
    if chains:
        limb_products, limb_cost = _counts(nodes)
        if limb_products:
            return list(roots)
    lifter = Lifter(graph)
    if lifter.prepare(roots) <= 0 and not chains:
        return list(roots)
    lifted = one_shot_redc(graph, addback.render_roots(lifter, roots))
    if chains:
        products, cost = _counts(reachable(lifted))
        if products or cost >= limb_cost:
            return list(roots)
    atoms = sorted((node for node in nodes if node.op == "atom"),
                   key=_serial)
    reason = _refusal(roots, lifted, atoms)
    if reason is not None:
        telemetry.record("aot_lift_refusals_total", reason)
        return list(roots)
    return lifted
