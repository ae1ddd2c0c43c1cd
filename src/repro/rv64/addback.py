"""The add-back select: a W-bit window that adds ``p`` back on a borrow.

A conditional subtraction keeps ``X`` when ``X < p`` and ``X − p``
otherwise; a modular difference adds ``p`` back when ``A − B``
borrows.  Both are the W-bit value ``(d + β·p) mod 2^W`` with ``d = X −
p`` (or ``A − B``) and the borrow ``β = −(d >> W)``.  The lifted form of
such a root is one window whose form holds the borrow as a floor (or a
masked floor) of ``d`` or of its complement ``2^W − 1 − d``, beside
terms congruent to ``d``; :func:`short_select` recognises it and
:func:`render` writes it as

    (d − (d >> W)·p) & (2^W − 1),

one shift, one product and one difference on ``d`` itself
(``docs/SIMULATOR.md``, "Wide-word lifting", states the identity with
its proof).  A lifted Montgomery product thereby makes its final
subtraction on ``U = T' >> W`` instead of on the double-width sum, and
a full-radix ``fp_sub`` on ``A − B``.

It lives apart from :mod:`repro.rv64.lift` to keep that module's
import-time compile small; each function takes the
:class:`~repro.rv64.lift.Lifter` whose forms it reads.
"""

from __future__ import annotations

from repro.rv64.expr import Node
from repro.rv64.lift import Lin, Win, _low_zeros


def _lowered(lifter, key: Win) -> Lin:
    """The form of ``key`` ``W[s,w](R + Q·2^s)`` at position 0 before
    its mask: ``(R >> s) + Q``, with ``Q·2^s`` the terms ``2^s``
    divides (``(R + Q·2^s) >> s == (R >> s) + Q``).  Interned, not
    normalised: a normal form would telescope ``Q`` back into the floor
    of ``R``."""
    s = key.s
    if not s:
        return key.lin
    low, high = {}, {}
    for inner, coef in key.lin.terms:
        if coef & ((1 << s) - 1):
            low[inner] = coef
        else:
            high[inner] = coef >> s
    const = key.lin.const
    floor = lifter.win(
        lifter._normal(low, const & ((1 << s) - 1)), s, None)
    for inner, coef in floor.terms:
        high[inner] = high.get(inner, 0) + coef
    return _form(lifter, high, (const >> s) + floor.const)


def _form(lifter, terms: dict, const: int) -> Lin:
    """The interned form of *terms* without its zero coefficients."""
    return lifter._intern({key: coef for key, coef in terms.items() if coef},
                          const)


def _complement(lifter, lin: Lin, width: int) -> Lin:
    """``2^W − 1 − lin``, whose floor at ``W`` is ``−(lin >> W)``."""
    return _form(lifter, {key: -coef for key, coef in lin.terms},
                 (1 << width) - 1 - lin.const)


def _floor(lifter, lin: Lin, s: int, width: int | None) -> Lin:
    """A form of ``lin >> s``, exact modulo ``2^width`` (exactly if
    *width* is None), in which floors tied at one shift can fold.

    With ``2^k`` the largest power of two at most ``2^s`` dividing a
    coefficient, ``lin = R + Q·2^k`` and ``lin >> s == ((R >> k) + Q) >>
    (s − k)``; ``R >> k`` is taken as ``−((2^k − 1 − R) >> k)`` when
    every coefficient of ``R`` is negative, and a masked window of ``Q``
    whose mask lies above the bits the result keeps is read as its
    floor (``c·W[a,b](Z) ≡ c·(Z >> a) (mod 2^(b + zeros(c)))``)."""
    zeros = [zero for zero in (_low_zeros(coef) for _key, coef in lin.terms)
             if 0 < zero <= s]
    if not zeros:
        return lifter.win(lin, s, None)
    k = max(zeros)
    low, high = {}, {}
    for key, coef in lin.terms:
        if coef & ((1 << k) - 1):
            low[key] = coef
            continue
        coef >>= k
        if (width is not None and type(key) is Win and key.w is not None
                and key.w + _low_zeros(coef) >= width + s - k):
            floor = lifter.win(key.lin, key.s, None)
            if (len(floor.terms) == 1 and not floor.const
                    and floor.terms[0][1] == 1):
                key = floor.terms[0][0]
        high[key] = high.get(key, 0) + coef
    const = lin.const & ((1 << k) - 1)
    if low and all(coef < 0 for coef in low.values()):
        floor = lifter.combine([(-1, lifter.win(
            _complement(lifter, _form(lifter, low, const), k), k, None))])
    else:
        floor = lifter.win(_form(lifter, low, const), k, None)
    inner = lifter.combine([(1, floor),
                            (1, _form(lifter, high, lin.const >> k))])
    return lifter.win(inner, s - k, None)


def _canonical(lifter, lin: Lin) -> Lin:
    """*lin* with each masked window ``W[s,w](X)``, ``s > 0``, read as
    the low ``w`` bits of :func:`_floor` ``(X, s)``, normalised (so limbs
    whose floors now agree rejoin)."""
    terms: dict = {}
    const = lin.const
    for key, coef in lin.terms:
        if type(key) is Win and key.s and key.w is not None:
            window = lifter.win(_floor(lifter, key.lin, key.s, key.w), 0,
                                key.w)
            const += coef * window.const
            for inner, inner_coef in window.terms:
                terms[inner] = terms.get(inner, 0) + coef * inner_coef
        else:
            terms[key] = terms.get(key, 0) + coef
    return lifter._normal({key: coef for key, coef in terms.items() if coef},
                          const)


def short_select(lifter, lin: Lin):
    """``(d, p, W)`` when *lin* is the W-bit window ``(d + β·p) mod
    2^W`` with ``β = −(d >> W)``, else ``None``.

    *lin* must be one window ``W[s,W](L)``; lowered to position 0, ``L``
    is ``Y + c·K`` for a key ``K = W[W,w](B)`` (``w`` None or at least
    ``W``, so ``K ≡ B >> W (mod 2^W)``).  It fires when ``K`` is the
    floor of ``d`` (then ``p = −c``) or of its complement ``2^W − 1 −
    d``, whose floor is ``−(d >> W)`` (then ``p = c``), for a ``d ≡ Y
    (mod 2^W)``: first ``d = B`` or its complement, with the congruence
    read off :meth:`Lifter.trunc` (the canonical form modulo ``2^W``);
    else ``d`` the canonical form of ``Y``, and the floors compared
    after :func:`_floor`.  ``p`` is reduced into ``[1, 2^W)``; a zero
    add-back is no select."""
    if len(lin.terms) != 1 or lin.const or lin.terms[0][1] != 1:
        return None
    window = lin.terms[0][0]
    if type(window) is not Win or window.w is None:
        return None
    width = window.w
    modulus = 1 << width
    lowered = _lowered(lifter, window)
    for key, coef in lowered.terms:
        if (type(key) is not Win or key.s != width
                or (key.w is not None and key.w < width)):
            continue
        rest = dict(lowered.terms)
        del rest[key]
        rest = _form(lifter, rest, lowered.const)
        target = lifter.trunc(rest, width)
        for d, p in ((key.lin, -coef),
                     (_complement(lifter, key.lin, width), coef)):
            p %= modulus
            if p and lifter.trunc(d, width) is target:
                return d, p, width
        d = lifter.trunc(_canonical(lifter, rest), width)
        floor = _floor(lifter, key.lin, width, None)
        for form, p in ((d, -coef), (_complement(lifter, d, width), coef)):
            p %= modulus
            if p and lifter.win(form, width, None) is floor:
                return d, p, width
    return None


def render_roots(lifter, roots: list) -> list:
    """*roots* rendered, each add-back select (:func:`short_select`) as
    ``(d − (d >> W)·p) & (2^W − 1)``, and each other root that is a
    window of a select's value as that window of the rendered value;
    the rest by :meth:`Lifter.render_root`."""
    graph = lifter.graph
    selects = []
    rendered: list = [None] * len(roots)
    for index, root in enumerate(roots):
        lin = lifter.form(root)
        found = short_select(lifter, lin)
        if found is None:
            continue
        d, p, width = found
        value = lifter.render(d, None)
        borrow = graph.shr(value, graph.const(width))
        node = graph.and_(
            graph.sub(value, graph.mul(borrow, graph.const(p))),
            graph.const((1 << width) - 1))
        rendered[index] = node
        selects.append((lin.terms[0][0], node))
    for index, root in enumerate(roots):
        if rendered[index] is None:
            rendered[index] = (_window_of(lifter, lifter.form(root), selects)
                               or lifter.render_root(root))
    return rendered


def _window_of(lifter, lin: Lin, selects: list) -> Node | None:
    """*lin* as a window ``(V >> t) & (2^w − 1)`` of a rendered select
    value ``V = W[s0,W](L)``, when *lin* is one window ``W[s,w](L')``
    inside it (``s0 <= s``, ``s + w <= s0 + W``) with ``L' ≡ L (mod
    2^(s+w))``: both then have the same bits ``[s, s+w)``."""
    if not selects or len(lin.terms) != 1 or lin.const \
            or lin.terms[0][1] != 1:
        return None
    key = lin.terms[0][0]
    if type(key) is not Win or key.w is None:
        return None
    top = key.s + key.w
    for window, node in selects:
        if (window.s <= key.s and top <= window.s + window.w
                and lifter.trunc(key.lin, top)
                is lifter.trunc(window.lin, top)):
            graph = lifter.graph
            return graph.and_(graph.shr(node, graph.const(key.s - window.s)),
                              graph.const((1 << key.w) - 1))
    return None
