"""One-shot Montgomery reduction over a lifted aot graph.

A fused Montgomery multiplication reduces its product word by word:
``S_0 = T``, ``S_{i+1} = S_i + m_i·(p << wi)`` with the digit ``m_i =
((S_i >> wi)·n0) & (2^w − 1)``.  Wide-word lifting
(:mod:`repro.rv64.lift`) renders that chain as ``n`` wide steps;
:func:`one_shot_redc` recognises it from its graph literals and replaces
it by the one-shot reduction ``T + m·p`` with ``m = ((T mod R)·N') mod
R``, ``R = 2^(nw)``, ``N' = −p⁻¹ mod R`` (``docs/SIMULATOR.md``,
"Wide-word lifting", states the identity with its proof and the
conditions under which it must not fire).
"""

from __future__ import annotations

from repro.rv64.expr import Graph, Node, _is_ones, reachable


def _redc_step(total: Node):
    """``(prefix, shift, n0, w, multiplier, digit)`` when *total* is one
    word-level reduction step ``S + (((S >> shift)·n0) & M_w)·multiplier``
    over the running sum ``S`` (its prefix), else ``None``."""
    if total.op != "add" or total.terms is None:
        return None
    prefix, row = total.args
    multiplier = row.args[1].const if row.op == "mul" else None
    if multiplier is None:
        return None
    digit = row.args[0]
    if digit.op != "and" or not _is_ones(digit.args[1].const):
        return None
    scaled = digit.args[0]
    if scaled.op == "mul":
        window, n0 = scaled.args[0], scaled.args[1].const
        if n0 is None:
            return None
    else:  # the graph folds a multiplication by n0 = 1
        window, n0 = scaled, 1
    if window is prefix:
        shift = 0
    elif (window.op == "shr" and window.args[0] is prefix
          and window.args[1].const is not None):
        shift = window.args[1].const
    else:
        return None  # the digit reads something other than the sum
    return (prefix, shift, n0, digit.args[1].const.bit_length(), multiplier,
            digit)


def _redc_chain(top: Node):
    """``(T, w, p, steps)`` when *top* is ``T`` after exactly ``n`` steps
    ``S_{i+1} = S_i + (((S_i >> wi)·n0) & M_w)·(p << wi)`` with
    ``n0·p ≡ −1 (mod 2^w)`` and ``n`` the limbs of ``p`` in radix
    ``2^w`` (``steps`` are their :func:`_redc_step` tuples, from the
    first), else ``None``."""
    steps = []
    node = top
    while True:
        step = _redc_step(node)
        if step is None:
            break
        steps.append(step)
        node = step[0]
    if not steps:
        return None
    steps.reverse()
    _prefix, _shift, n0, w, p, _digit = steps[0]
    if p <= 1 or (n0 * p + 1) & ((1 << w) - 1):
        return None
    for index, (_prefix, shift, step_n0, step_w, multiplier, _digit) in \
            enumerate(steps):
        if (step_n0 != n0 or step_w != w or shift != w * index
                or multiplier != p << shift):
            return None
    if len(steps) != -(-p.bit_length() // w):
        return None
    return node, w, p, steps


def one_shot_redc(graph: Graph, roots: list) -> list:
    """*roots* with every word-level Montgomery reduction chain (see
    :func:`_redc_chain`) replaced by its one-shot form ``T + (((T &
    (R − 1))·N') & (R − 1))·p``, ``R = 2^(nw)``, ``N' = −p⁻¹ mod R``.

    The chain's digits ``m_i`` make ``S_i ≡ 0 (mod 2^(wi))``, so ``m =
    Σ m_i·2^(wi)`` is the one ``m ∈ [0, R)`` with ``T + m·p ≡ 0 (mod
    R)``: ``m = (T·N') mod R`` (docs/SIMULATOR.md, "Wide-word lifting").
    The read-out's registers still read some digits and partial sums:
    each digit becomes the window ``(m >> wi) & M_w``, each partial sum
    ``S_k`` becomes ``T + (m mod 2^(wk))·p``, and a sum holding the rows
    ``m_i·(p << wi)`` for ``i < k`` holds ``(m mod 2^(wk))·p`` instead,
    so no node computes the word-level chain."""
    replace: dict[int, Node] = {}
    rows: dict[int, tuple] = {}
    for node in reachable(roots):
        if _redc_step(node) is None:
            continue
        chain = _redc_chain(node)
        if chain is None:
            continue
        total, w, p, steps = chain
        modulus = (1 << (len(steps) * w)) - 1
        inverse = -pow(p, -1, modulus + 1) & modulus
        mask = graph.const(modulus)
        m = graph.and_(graph.mul(graph.and_(total, mask),
                                 graph.const(inverse)), mask)
        replace[node.serial] = graph.add(total, graph.mul(m, graph.const(p)))
        word = graph.const((1 << w) - 1)
        for index, step in enumerate(steps):
            digit = replace[step[5].serial] = graph.and_(
                graph.shr(m, graph.const(w * index)), word)
            row = graph.mul(digit, graph.const(step[4]))
            rows[row.serial] = (m, index, w, p)
            if index:
                low = graph.and_(m, graph.const((1 << (w * index)) - 1))
                replace[step[0].serial] = graph.add(
                    total, graph.mul(low, graph.const(p)))
    if not replace:
        return list(roots)
    return _substitute(graph, roots, replace, rows)


def _gather_rows(graph: Graph, terms: list, rows: dict) -> list | None:
    """*terms* with the rows ``m_i·(p << wi)``, ``i < k``, of one
    chain replaced by ``(m mod 2^(wk))·p``, or ``None`` when they hold
    no two such rows."""
    found: dict[int, dict] = {}
    for term in terms:
        row = rows.get(term.serial)
        if row is not None:
            found.setdefault(row[0].serial, {})[row[1]] = term
    for members in found.values():
        count = len(members)
        if count < 2 or set(members) != set(range(count)):
            continue
        m, _index, w, p = rows[members[0].serial]
        low = graph.and_(m, graph.const((1 << (w * count)) - 1))
        gathered = [term for term in terms
                    if term not in members.values()]
        return gathered + [graph.mul(low, graph.const(p))]
    return None


def _substitute(graph: Graph, roots: list, replace: dict,
                rows: dict) -> list:
    """*roots* rebuilt with each node whose serial *replace* maps
    replaced by its image (every replacement has the same value), and
    the reduction *rows* of each rebuilt sum gathered
    (:func:`_gather_rows`)."""
    done = dict(replace)
    stack = list(roots)
    while stack:
        node = stack[-1]
        if node.serial in done:
            stack.pop()
            continue
        missing = [arg for arg in node.args if arg.serial not in done]
        if missing:
            stack.extend(missing)
            continue
        stack.pop()
        args = tuple(done[arg.serial] for arg in node.args)
        if all(new is old for new, old in zip(args, node.args)):
            done[node.serial] = node
        elif node.op == "opaque":
            done[node.serial] = graph.opaque(node.template, args)
        else:
            rebuilt = graph.apply(node.op, *args)
            terms = rebuilt.terms and _gather_rows(graph, rebuilt.terms,
                                                   rows)
            if terms:
                rebuilt = terms[0]
                for term in terms[1:]:
                    rebuilt = graph.add(rebuilt, term)
            done[node.serial] = rebuilt
    return [done[root.serial] for root in roots]
