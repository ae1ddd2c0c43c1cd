"""Reduced-radix (57-bit limb) assembly kernel generators.

The radix-2^57 representation holds a 511-bit CSIDH-512 element in nine
limbs with seven headroom bits each.  The paper's reduced-radix code
exploits that headroom to *delay* carry propagation: intermediate limbs
may grow past 57 bits and are brought back to canonical form by a final
arithmetic-shift cascade (3 instructions per limb ISA-only, 2 with
``sraiadd``).

Accumulator conventions differ between the two flavours:

* *ISA-only* (Listing 2): ``(h || l)`` is a genuine 128-bit value
  (``value = l + (h << 64)``); the per-column realignment costs four
  shift instructions (the paper's "extra instructions to align the
  accumulator").
* *ISE-supported* (Listing 4): ``l`` accumulates 57-bit product slices
  and ``h`` the matching high slices (``value = l + (h << 57)``); the
  column change collapses to one ``sraiadd`` plus a zeroing move.

Squaring uses the doubled-limb trick ``2*a_i * a_j``: a doubled limb is
58 bits, which the *full 64-bit multiplier* of ``madd57lu``/``madd57hu``
(and of course ``mul``/``mulhu``) handles exactly — the multiplier
saturation problem the paper solves at the instruction-design level
(Sect. 3.2).  This is why reduced-radix squaring enjoys the largest
speed-ups in Table 4.
"""

from __future__ import annotations

from repro.core.ise import REDUCED_RADIX_BITS
from repro.core.macros import (
    emit_carry_propagate_isa,
    emit_carry_propagate_ise,
    emit_mac_reduced_radix_isa,
    emit_mac_reduced_radix_ise,
)
from repro.errors import KernelError
from repro.kernels.builder import (
    KERNEL_REGISTER_POOL,
    KernelBuilder,
    RegisterPool,
)
from repro.kernels.layout import CONST_BASE, ConstPoolLayout
from repro.mpi.montgomery import MontgomeryContext

W = REDUCED_RADIX_BITS


def _available(reserved: tuple[str, ...]) -> int:
    return len(KERNEL_REGISTER_POOL) - len(set(reserved))


def _check_reduced_radix(ctx: MontgomeryContext) -> int:
    if ctx.radix.bits != W:
        raise KernelError(
            f"reduced-radix generator got a {ctx.radix.bits}-bit radix"
        )
    return ctx.radix.limbs


def _zero(b: KernelBuilder, reg: str) -> None:
    b.mv(reg, "zero")


def _emit_mask57(b: KernelBuilder, m: str) -> None:
    """Materialise the limb mask ``2^57 - 1`` in two instructions."""
    b.i("addi", m, "zero", -1)
    b.i("srli", m, m, 64 - W)


def _emit_mac(
    b: KernelBuilder,
    h: str, l: str,
    a: str, x: str,
    y: str, z: str,
    *,
    use_ise: bool,
) -> None:
    if use_ise:
        emit_mac_reduced_radix_ise(b, h, l, a, x)
    else:
        emit_mac_reduced_radix_isa(b, h, l, a, x, y, z)


def _emit_column_store_and_shift(
    b: KernelBuilder,
    h: str, l: str,
    m: str, y: str,
    offset: int | None,
    rptr: str,
    *,
    use_ise: bool,
    store: bool = True,
) -> None:
    """Finish a product-scanning column: emit the masked limb (unless
    *store* is false, e.g. reduction phase 1 where it is zero by
    construction) and realign the accumulator for the next column."""
    if store:
        b.r("and", y, l, m)
        b.store("sd", y, offset, rptr)
    if use_ise:
        # value/2^57 = h + (l >> 57); l's slices are non-negative so the
        # arithmetic shift of sraiadd equals a logical one here
        b.ria("sraiadd", l, h, l, W)
        _zero(b, h)
    else:
        # (h || l) >>= 57 at 128-bit granularity: h < 2^57 always holds
        # for <= 2^7 MACs per column, so no bits are lost
        b.i("srli", l, l, W)
        b.i("slli", y, h, 64 - W)
        b.r("or", l, l, y)
        b.i("srli", h, h, W)


# ---------------------------------------------------------------------------
# Integer multiplication / squaring
# ---------------------------------------------------------------------------

def emit_int_mul_body(
    b: KernelBuilder,
    ctx: MontgomeryContext,
    *,
    use_ise: bool,
    rptr: str = "a0",
    aptr: str = "a1",
    bptr: str = "a2",
    square: bool = False,
) -> None:
    """Product-scanning ``R = A * B`` (2l limbs out), or ``A^2``.

    Squaring doubles the smaller-index limb once up front (9 ``slli``)
    and halves the cross-term MAC count.
    """
    l = _check_reduced_radix(ctx)
    reserved = (rptr, aptr, bptr)
    pool = RegisterPool(reserved=reserved)
    A = pool.take_many(l, "a")
    for i in range(l):
        b.load("ld", A[i], 8 * i, aptr)

    # Long operands: the second operand (or the doubled-limb shadow
    # copy, for squaring) no longer fits alongside A — stream it.
    stream = 2 * l + 7 > _available(reserved)
    if square:
        if stream:
            D = []
            dreg = pool.take("dreg")
        else:
            D = pool.take_many(l, "dbl")
            for i in range(l):
                b.i("slli", D[i], A[i], 1)  # 58-bit doubled limbs
            dreg = ""
        B = A
        breg = ""
    else:
        D = []
        dreg = ""
        if stream:
            B = []
            breg = pool.take("breg")
        else:
            B = pool.take_many(l, "b")
            for i in range(l):
                b.load("ld", B[i], 8 * i, bptr)
            breg = ""

    h = pool.take("acc_h")
    acc_l = pool.take("acc_l")
    y = pool.take("y")
    z = pool.take("z")
    m = pool.take("mask")
    _emit_mask57(b, m)
    _zero(b, h)
    _zero(b, acc_l)

    def doubled(i: int) -> str:
        if not stream:
            return D[i]
        b.i("slli", dreg, A[i], 1)
        return dreg

    def b_digit(j: int) -> str:
        if not stream:
            return B[j]
        b.load("ld", breg, 8 * j, bptr)
        return breg

    for k in range(2 * l - 1):
        lo_i, hi_i = max(0, k - l + 1), min(k, l - 1)
        b.comment(f"column {k}")
        for i in range(lo_i, hi_i + 1):
            j = k - i
            if square:
                if i > j:
                    break
                if i == j:
                    _emit_mac(b, h, acc_l, A[i], A[i], y, z,
                              use_ise=use_ise)
                else:
                    _emit_mac(b, h, acc_l, doubled(i), A[j], y, z,
                              use_ise=use_ise)
            else:
                _emit_mac(b, h, acc_l, A[i], b_digit(j), y, z,
                          use_ise=use_ise)
        _emit_column_store_and_shift(b, h, acc_l, m, y, 8 * k, rptr,
                                     use_ise=use_ise)
    b.store("sd", acc_l, 8 * (2 * l - 1), rptr)


# ---------------------------------------------------------------------------
# Montgomery (SPS) reduction
# ---------------------------------------------------------------------------

def emit_mont_redc_body(
    b: KernelBuilder,
    ctx: MontgomeryContext,
    *,
    use_ise: bool,
    rptr: str = "a0",
    tptr: str = "a1",
) -> None:
    """SPS Montgomery reduction: 2l limbs of ``T`` to l limbs in
    ``[0, 2p)`` (canonical 57-bit limbs)."""
    l = _check_reduced_radix(ctx)
    layout = ConstPoolLayout(l)
    reserved = (rptr, tptr)
    pool = RegisterPool(reserved=reserved)

    stream_p = 2 * l + 7 > _available(reserved)

    cb = pool.take("constbase")
    b.li(cb, CONST_BASE)
    if stream_p:
        P: list[str] = []
        preg = pool.take("preg")
    else:
        P = pool.take_many(l, "p")
        for i in range(l):
            b.load("ld", P[i], layout.modulus_offset + 8 * i, cb)
        preg = ""
    n0 = pool.take("n0")
    b.load("ld", n0, layout.n0_offset, cb)
    if not stream_p:
        pool.release(cb)

    def p_digit(index: int) -> str:
        if not stream_p:
            return P[index]
        b.load("ld", preg, layout.modulus_offset + 8 * index, cb)
        return preg

    Q = pool.take_many(l, "q")
    h = pool.take("acc_h")
    acc_l = pool.take("acc_l")
    y = pool.take("y")
    z = pool.take("z")
    m = pool.take("mask")
    _emit_mask57(b, m)
    _zero(b, h)
    _zero(b, acc_l)

    for i in range(l):
        b.comment(f"reduction phase 1, column {i}")
        b.load("ld", y, 8 * i, tptr)
        if use_ise:
            b.r("add", acc_l, acc_l, y)  # headroom guarantees fit
        else:
            b.r("add", acc_l, acc_l, y)
            b.r("sltu", y, acc_l, y)
            b.r("add", h, h, y)
        for j in range(i):
            _emit_mac(b, h, acc_l, Q[j], p_digit(i - j), y, z,
                      use_ise=use_ise)
        b.r("mul", y, acc_l, n0)
        b.r("and", Q[i], y, m)  # q_i = (acc * n0') mod 2^57
        _emit_mac(b, h, acc_l, Q[i], p_digit(0), y, z,
                  use_ise=use_ise)
        _emit_column_store_and_shift(b, h, acc_l, m, y, None, rptr,
                                     use_ise=use_ise, store=False)

    for i in range(l, 2 * l):
        b.comment(f"reduction phase 2, column {i}")
        b.load("ld", y, 8 * i, tptr)
        if use_ise:
            b.r("add", acc_l, acc_l, y)
        else:
            b.r("add", acc_l, acc_l, y)
            b.r("sltu", y, acc_l, y)
            b.r("add", h, h, y)
        for j in range(i - l + 1, l):
            _emit_mac(b, h, acc_l, Q[j], p_digit(i - j), y, z,
                      use_ise=use_ise)
        _emit_column_store_and_shift(b, h, acc_l, m, y, 8 * (i - l), rptr,
                                     use_ise=use_ise)


# ---------------------------------------------------------------------------
# Carry propagation cascades (canonicalisation of signed limb vectors)
# ---------------------------------------------------------------------------

def _emit_propagate(
    b: KernelBuilder,
    T: list[str],
    m: str,
    y: str,
    *,
    use_ise: bool,
) -> str:
    """Canonicalise signed limbs ``T`` by cascading arithmetic-shift
    carries upward; returns the register holding the final carry-out
    (0 or -1), which doubles as the selection mask."""
    l = len(T)
    for i in range(1, l):
        if use_ise:
            emit_carry_propagate_ise(b, T[i - 1], T[i], m)
        else:
            emit_carry_propagate_isa(b, T[i - 1], T[i], m, y)
    # final limb: extract carry, then mask
    b.i("srai", y, T[l - 1], W)
    b.r("and", T[l - 1], T[l - 1], m)
    return y


def emit_fast_reduce_body(
    b: KernelBuilder,
    ctx: MontgomeryContext,
    *,
    use_ise: bool,
    swap_based: bool = True,
    rptr: str = "a0",
    aptr: str = "a1",
    in_regs: list[str] | None = None,
    pool: RegisterPool | None = None,
    canonical_input: bool | None = None,
) -> None:
    """Reduce canonical ``A in [0, 2p)`` to ``[0, p)``.

    The swap-based select (Algorithm 2) needs the minuend in canonical
    form; when the input comes from a delayed-carry computation pass
    ``swap_based=False`` to use the addition-based Algorithm 1 instead
    (the paper's choice for reduced-radix Fp-addition).
    """
    l = _check_reduced_radix(ctx)
    layout = ConstPoolLayout(l)
    own_pool = pool is None
    if own_pool:
        pool = RegisterPool(reserved=(rptr, aptr))
    assert pool is not None

    stream_a = in_regs is None and (2 * l + 7 > _available((rptr, aptr)))
    if in_regs is None and not stream_a:
        A = pool.take_many(l, "a")
        for i in range(l):
            b.load("ld", A[i], 8 * i, aptr)
        canonical_input = True if canonical_input is None else \
            canonical_input
    elif in_regs is None:
        A = []
        canonical_input = True if canonical_input is None else \
            canonical_input
    else:
        A = in_regs
        canonical_input = bool(canonical_input)

    if swap_based and not canonical_input:
        raise KernelError(
            "swap-based fast reduction requires a canonical operand"
        )

    # The modulus limbs are loaded on demand (A, T and P together would
    # exceed the register file), keeping the constant-pool base resident.
    cb = pool.take("constbase")
    b.li(cb, CONST_BASE)
    pdig = pool.take("pdig")

    T = pool.take_many(l, "t")
    m = pool.take("mask")
    y = pool.take("y")
    _emit_mask57(b, m)

    areg = pool.take("areg") if stream_a else ""

    def a_digit(i: int) -> str:
        if not stream_a:
            return A[i]
        b.load("ld", areg, 8 * i, aptr)
        return areg

    b.comment("T = A - P, signed limbs")
    for i in range(l):
        b.load("ld", pdig, layout.modulus_offset + 8 * i, cb)
        b.r("sub", T[i], a_digit(i), pdig)
    b.comment("canonicalise T; final carry is the mask M")
    mask_reg = _emit_propagate(b, T, m, y, use_ise=use_ise)

    if swap_based:
        b.comment("Algorithm 2 select: R = T ^ (M & (A ^ T))")
        for i in range(l):
            b.r("xor", pdig, a_digit(i), T[i])
            b.r("and", pdig, pdig, mask_reg)
            b.r("xor", pdig, T[i], pdig)
            b.store("sd", pdig, 8 * i, rptr)
    else:
        b.comment("Algorithm 1 select: R = T + (M & P), then re-propagate")
        z = pool.take("z")
        b.mv(z, mask_reg)
        for i in range(l):
            b.load("ld", pdig, layout.modulus_offset + 8 * i, cb)
            b.r("and", y, pdig, z)
            b.r("add", T[i], T[i], y)
        _emit_propagate(b, T, m, y, use_ise=use_ise)
        # final carry is always zero here: T + (M & P) lies in [0, p)
        for i in range(l):
            b.store("sd", T[i], 8 * i, rptr)
        pool.release(z)
    pool.release(pdig)
    pool.release(cb)


def emit_fp_add_body(
    b: KernelBuilder,
    ctx: MontgomeryContext,
    *,
    use_ise: bool,
    rptr: str = "a0",
    aptr: str = "a1",
    bptr: str = "a2",
) -> None:
    """``R = (A + B) mod p`` via delayed-carry limb addition plus the
    addition-based reduction (the sum is non-canonical, so the
    swap-based variant is unusable — Sect. 3.1)."""
    l = _check_reduced_radix(ctx)
    layout = ConstPoolLayout(l)
    reserved = (rptr, aptr, bptr)
    pool = RegisterPool(reserved=reserved)

    A = pool.take_many(l, "a")
    for i in range(l):
        b.load("ld", A[i], 8 * i, aptr)
    y = pool.take("y")
    b.comment("S = A + B limb-wise (delayed carries, 58-bit limbs)")
    for i in range(l):
        b.load("ld", y, 8 * i, bptr)
        b.r("add", A[i], A[i], y)

    cb = pool.take("constbase")
    b.li(cb, CONST_BASE)
    stream_p = 2 * l + 6 > _available(reserved)
    if stream_p:
        P: list[str] = []
        preg = pool.take("preg")
    else:
        P = pool.take_many(l, "p")
        for i in range(l):
            b.load("ld", P[i], layout.modulus_offset + 8 * i, cb)
        pool.release(cb)
        preg = ""

    def p_digit(index: int) -> str:
        if not stream_p:
            return P[index]
        b.load("ld", preg, layout.modulus_offset + 8 * index, cb)
        return preg

    m = pool.take("mask")
    _emit_mask57(b, m)
    b.comment("T = S - P, signed limbs")
    for i in range(l):
        b.r("sub", A[i], A[i], p_digit(i))
    mask_reg = _emit_propagate(b, A, m, y, use_ise=use_ise)

    z = pool.take("z")
    b.mv(z, mask_reg)
    b.comment("R = T + (M & P), re-canonicalise")
    for i in range(l):
        b.r("and", y, p_digit(i), z)
        b.r("add", A[i], A[i], y)
    _emit_propagate(b, A, m, y, use_ise=use_ise)
    for i in range(l):
        b.store("sd", A[i], 8 * i, rptr)


def emit_fp_sub_body(
    b: KernelBuilder,
    ctx: MontgomeryContext,
    *,
    use_ise: bool,
    rptr: str = "a0",
    aptr: str = "a1",
    bptr: str = "a2",
) -> None:
    """``R = (A - B) mod p`` — signed limb subtraction, carry cascade,
    conditional add-back of ``P`` (Algorithm 1 variant)."""
    l = _check_reduced_radix(ctx)
    layout = ConstPoolLayout(l)
    reserved = (rptr, aptr, bptr)
    pool = RegisterPool(reserved=reserved)

    A = pool.take_many(l, "a")
    for i in range(l):
        b.load("ld", A[i], 8 * i, aptr)
    y = pool.take("y")
    b.comment("T = A - B limb-wise, signed")
    for i in range(l):
        b.load("ld", y, 8 * i, bptr)
        b.r("sub", A[i], A[i], y)

    cb = pool.take("constbase")
    b.li(cb, CONST_BASE)
    stream_p = 2 * l + 6 > _available(reserved)
    if stream_p:
        P: list[str] = []
        preg = pool.take("preg")
    else:
        P = pool.take_many(l, "p")
        for i in range(l):
            b.load("ld", P[i], layout.modulus_offset + 8 * i, cb)
        pool.release(cb)
        preg = ""

    def p_digit(index: int) -> str:
        if not stream_p:
            return P[index]
        b.load("ld", preg, layout.modulus_offset + 8 * index, cb)
        return preg

    m = pool.take("mask")
    _emit_mask57(b, m)
    mask_reg = _emit_propagate(b, A, m, y, use_ise=use_ise)

    z = pool.take("z")
    b.mv(z, mask_reg)
    b.comment("R = T + (M & P), re-canonicalise")
    for i in range(l):
        b.r("and", y, p_digit(i), z)
        b.r("add", A[i], A[i], y)
    _emit_propagate(b, A, m, y, use_ise=use_ise)
    for i in range(l):
        b.store("sd", A[i], 8 * i, rptr)
