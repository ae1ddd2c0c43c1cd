"""Two identities that let the wide-word lift rejoin split limbs.

:class:`repro.rv64.lift.Lifter` reassembles limbs into the value they
were cut from by *window rejoin*, which needs adjacent windows of
congruent forms.  Two kernels cut their limbs so that no pair is
congruent until one of these exact identities rewrites it
(``docs/SIMULATOR.md``, "Wide-word lifting", states both with their
proofs):

* **floor difference** — ``(X >> s) − (Y >> s) == (X − (Y >> s)·2^s) >>
  s``.  A full-radix borrow chain's limb is ``W[0,w](W[s,w](A − B_low) −
  W[s,w](B))``; folded, ``Y >> s`` rejoins with ``B_low`` and the limb is
  the window ``W[s,w](A − B)``.  Taken only where that rejoin happens.
* **lowered window** — ``W[s,w](R + Q·2^s) == W[0,w]((R >> s) + Q)``.  A
  full-radix Montgomery product's final subtraction has its low limb as
  a window of the sum ``S`` and the limbs above it as windows of ``U = S
  >> nw``; lowered, the low limb continues them.

They live apart from :mod:`repro.rv64.lift` to keep that module's
import-time compile small; each takes the :class:`Lifter` whose forms it
rewrites.
"""

from __future__ import annotations

from repro.rv64.lift import Lin, Win, _low_zeros


def floor_difference(lifter, terms: dict, const: int,
                     s: int) -> Lin | None:
    """Two unit floors tied at shift *s* with opposite signs, ``(X >>
    s) − (Y >> s)``, as one floor: either absorbs the other (``(X − (Y
    >> s)·2^s) >> s``, or the same from ``−(Y >> s)``), taken only when
    the absorbed floor then rejoins; any other tie stays unfolded."""
    tied = [key for key, coef in terms.items()
            if type(key) is Win and key.w is None and key.s == s
            and coef in (1, -1)]
    if len(tied) != 2 or terms[tied[0]] == terms[tied[1]]:
        return None
    for key, other in (tied, tied[::-1]):
        floor = lifter._telescope(terms, const, key)
        if floor is None or len(floor.terms) != 1:
            continue
        inner = floor.terms[0][0]
        if type(inner) is Win and all(
                sub is not other for sub, _coef in inner.lin.terms):
            return floor
    return None


def window_differences(lifter, terms: dict, e: int) -> int:
    """Fold each pair of :func:`_window_difference` in *terms* into one
    window (in place; returns the constant the folds add)."""
    const = 0
    found = _window_difference(lifter, terms, e)
    while found is not None:
        x, y, coef, lin = found
        del terms[x], terms[y]
        const += coef * lin.const
        for key, sub in lin.terms:
            total = terms.get(key, 0) + coef * sub
            if total:
                terms[key] = total
            else:
                del terms[key]
        found = _window_difference(lifter, terms, e)
    return const


def _window_difference(lifter, terms: dict, e: int):
    """Modulo ``2^e``, ``c·W[s,w](X) − c·W[s,v](Y)``, both masks no
    narrower than the bits ``c`` leaves, is ``c·((X >> s) − (Y >> s))``:
    the window ``c·W[s,e−z](X − (Y >> s)·2^s)`` (``2^z`` the largest
    power of two dividing ``c``).  Returns ``(x, y, c, that window's
    form)`` for a pair where ``Y >> s`` then rejoins, else ``None``.
    The window stays masked: unmasking such windows in general loses
    intervals that later rules read."""
    wide = [(key, coef) for key, coef in terms.items()
            if type(key) is Win and key.w is not None and key.s
            and key.w >= e - _low_zeros(coef)]
    for x, coef in wide:
        if coef < 0:
            continue
        for y, other in wide:
            if other != -coef or y.s != x.s:
                continue
            floor = lifter.win(y.lin, x.s, None)
            diff = lifter.combine([(1, x.lin), (-1 << x.s, floor)])
            if not {key for key, _ in floor.terms} & {
                    key for key, _ in diff.terms}:
                return x, y, coef, lifter.win(diff, x.s,
                                              e - _low_zeros(coef))
    return None


def lower_window(lifter, key: Win) -> Win | None:
    """*key* ``W[s,w](R + Q·2^s)`` as ``W[0,w]((R >> s) + Q)``, by ``(R +
    Q·2^s) >> s == (R >> s) + Q`` with ``Q·2^s`` the terms ``2^s``
    divides: a window at position 0, where the limbs above it start, or
    ``None``.  The lowered form is not normalised before the window is
    taken, so the floor of ``R`` does not telescope ``Q`` back in."""
    s = key.s
    low, high = {}, {}
    for inner, coef in key.lin.terms:
        if coef & ((1 << s) - 1):
            low[inner] = coef
        else:
            high[inner] = coef >> s
    floor = lifter.win(
        lifter._normal(low, key.lin.const & ((1 << s) - 1)), s, None)
    for inner, coef in floor.terms:
        total = high.get(inner, 0) + coef
        if total:
            high[inner] = total
        else:
            del high[inner]
    lowered = lifter.win(
        lifter._intern(high, (key.lin.const >> s) + floor.const), 0, key.w)
    if (len(lowered.terms) == 1 and not lowered.const
            and lowered.terms[0][1] == 1):
        return lowered.terms[0][0]
    return None
