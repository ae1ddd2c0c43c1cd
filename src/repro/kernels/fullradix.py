"""Full-radix (64-bit digit) assembly kernel generators (Sect. 3.1/3.2).

Every generator emits fully-unrolled straight-line RV64 assembly for the
CSIDH-512 field operations, in two flavours:

* *ISA-only* — base RV64IM instructions, MAC per Listing 1;
* *ISE-supported* — ``maddlu``/``maddhu``/``cadd``, MAC per Listing 3.

The 192-bit product-scanning accumulator lives in three registers
``(e || h || l)``; column changes are free register renames (the paper:
"the proper alignment of the accumulator is 'naturally' given").

Operands are little-endian 64-bit digit arrays; the modulus and the
Montgomery factor ``n0' = -p^-1 mod 2^64`` are read from the constant
pool (see :mod:`repro.kernels.layout`).
"""

from __future__ import annotations

from repro.core.macros import (
    emit_mac_full_radix_isa,
    emit_mac_full_radix_ise,
)
from repro.errors import KernelError
from repro.kernels.builder import (
    KERNEL_REGISTER_POOL,
    KernelBuilder,
    RegisterPool,
)
from repro.kernels.layout import CONST_BASE, ConstPoolLayout
from repro.mpi.montgomery import MontgomeryContext


def _available(reserved: tuple[str, ...]) -> int:
    return len(KERNEL_REGISTER_POOL) - len(set(reserved))


def _check_full_radix(ctx: MontgomeryContext) -> int:
    if ctx.radix.bits != 64:
        raise KernelError(
            f"full-radix generator got a {ctx.radix.bits}-bit radix"
        )
    return ctx.radix.limbs


def _zero(b: KernelBuilder, reg: str) -> None:
    b.mv(reg, "zero")


def _emit_acc_add(
    b: KernelBuilder, e: str, h: str, l: str, y: str, *, use_ise: bool
) -> None:
    """Add the 64-bit value in *y* into the accumulator ``(e||h||l)``."""
    b.r("add", l, l, y)
    b.r("sltu", y, l, y)
    if use_ise:
        b.r4("cadd", e, h, y, e)
        b.r("add", h, h, y)
    else:
        b.r("add", h, h, y)
        b.r("sltu", y, h, y)
        b.r("add", e, e, y)


def _emit_mac(
    b: KernelBuilder,
    e: str, h: str, l: str,
    a: str, x: str,
    y: str, z: str,
    *,
    use_ise: bool,
) -> None:
    if use_ise:
        emit_mac_full_radix_ise(b, e, h, l, a, x, z)
    else:
        emit_mac_full_radix_isa(b, e, h, l, a, x, y, z)


def _emit_doubled_mac_isa(
    b: KernelBuilder,
    e: str, h: str, l: str,
    a: str, x: str,
    y: str, z: str, u: str, v: str,
) -> None:
    """Accumulate ``2 * a * x`` into ``(e||h||l)`` — the squaring
    cross-term.  The 128-bit product is doubled by shifting (the doubled
    digit trick of the reduced radix is impossible at 64 bits/digit)."""
    b.r("mulhu", z, a, x)
    b.r("mul", y, a, x)
    b.i("srli", u, z, 63)   # bit 127 -> accumulator word e
    b.i("slli", z, z, 1)
    b.i("srli", v, y, 63)
    b.r("or", z, z, v)
    b.i("slli", y, y, 1)
    b.r("add", l, l, y)
    b.r("sltu", y, l, y)
    b.r("add", z, z, y)
    b.r("add", h, h, z)
    b.r("sltu", z, h, z)
    b.r("add", e, e, z)
    b.r("add", e, e, u)


# ---------------------------------------------------------------------------
# Integer multiplication / squaring bodies
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
    """Product-scanning ``R = A * B`` (2l digits out).

    With *square* the second operand is ignored and ``R = A^2`` is
    computed; the ISE variant reuses the multiplication flow (as the
    paper does — Table 4 shows identical mul/sqr cycle counts for the
    full-radix ISE version), while the ISA variant uses the
    shift-doubled cross products.
    """
    l = _check_full_radix(ctx)
    reserved = (rptr, aptr, bptr)
    pool = RegisterPool(reserved=reserved)
    A = pool.take_many(l, "a")
    for i in range(l):
        b.load("ld", A[i], 8 * i, aptr)

    if square and not use_ise:
        _emit_sqr_columns_isa(b, pool, A, rptr, l)
        return

    # Beyond ~10 digits both operands no longer fit the register file
    # (the paper's "register space is large enough ... up to 512 bits");
    # larger widths keep A resident and stream B one digit per MAC.
    stream_b = (not square) and (2 * l + 5 > _available(reserved))
    if square:
        B = A
        breg = ""
    elif stream_b:
        B = []
        breg = pool.take("breg")
    else:
        B = pool.take_many(l, "b")
        for i in range(l):
            b.load("ld", B[i], 8 * i, bptr)

    acc = pool.take_many(3, "acc")  # [l, h, e]
    y = pool.take("y")
    z = pool.take("z")
    for reg in acc:
        _zero(b, reg)

    for k in range(2 * l - 1):
        lo_i, hi_i = max(0, k - l + 1), min(k, l - 1)
        b.comment(f"column {k}")
        for i in range(lo_i, hi_i + 1):
            if stream_b:
                b.load("ld", breg, 8 * (k - i), bptr)
                b_digit = breg
            else:
                b_digit = B[k - i]
            _emit_mac(b, acc[2], acc[1], acc[0], A[i], b_digit, y, z,
                      use_ise=use_ise)
        b.store("sd", acc[0], 8 * k, rptr)
        acc = [acc[1], acc[2], acc[0]]
        if k < 2 * l - 2:
            _zero(b, acc[2])
    b.store("sd", acc[0], 8 * (2 * l - 1), rptr)


def _emit_sqr_columns_isa(
    b: KernelBuilder,
    pool: RegisterPool,
    A: list[str],
    rptr: str,
    l: int,
) -> None:
    """ISA-only full-radix squaring columns (doubled cross products)."""
    acc = pool.take_many(3, "acc")
    y = pool.take("y")
    z = pool.take("z")
    u = pool.take("u")
    v = pool.take("v")
    for reg in acc:
        _zero(b, reg)

    for k in range(2 * l - 1):
        lo_i, hi_i = max(0, k - l + 1), min(k, l - 1)
        b.comment(f"column {k}")
        for i in range(lo_i, hi_i + 1):
            j = k - i
            if i > j:
                break
            if i == j:
                _emit_mac(b, acc[2], acc[1], acc[0], A[i], A[i], y, z,
                          use_ise=False)
            else:
                _emit_doubled_mac_isa(b, acc[2], acc[1], acc[0],
                                      A[i], A[j], y, z, u, v)
        b.store("sd", acc[0], 8 * k, rptr)
        acc = [acc[1], acc[2], acc[0]]
        if k < 2 * l - 2:
            _zero(b, acc[2])
    b.store("sd", acc[0], 8 * (2 * l - 1), rptr)


# ---------------------------------------------------------------------------
# Montgomery (SPS) reduction body
# ---------------------------------------------------------------------------

def emit_mont_redc_body(
    b: KernelBuilder,
    ctx: MontgomeryContext,
    *,
    use_ise: bool,
    rptr: str = "a0",
    tptr: str = "a1",
) -> None:
    """Separated-product-scanning Montgomery reduction.

    Input: 2l-digit ``T`` at *tptr*; output: l digits of
    ``T * R^-1 mod p`` in ``[0, 2p)`` at *rptr*.
    """
    l = _check_full_radix(ctx)
    layout = ConstPoolLayout(l)
    reserved = (rptr, tptr)
    pool = RegisterPool(reserved=reserved)

    # With long operands the modulus digits are streamed from the
    # constant pool per MAC instead of staying register-resident.
    stream_p = 2 * l + 6 > _available(reserved)

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
    acc = pool.take_many(3, "acc")  # [l, h, e]
    y = pool.take("y")
    z = pool.take("z")
    for reg in acc:
        _zero(b, reg)

    for i in range(l):
        b.comment(f"reduction phase 1, column {i}")
        b.load("ld", y, 8 * i, tptr)
        _emit_acc_add(b, acc[2], acc[1], acc[0], y, use_ise=use_ise)
        for j in range(i):
            _emit_mac(b, acc[2], acc[1], acc[0], Q[j], p_digit(i - j),
                      y, z, use_ise=use_ise)
        b.r("mul", Q[i], acc[0], n0)
        _emit_mac(b, acc[2], acc[1], acc[0], Q[i], p_digit(0), y, z,
                  use_ise=use_ise)
        # low digit is now zero by construction; renaming shifts the acc
        acc = [acc[1], acc[2], acc[0]]
        _zero(b, acc[2])

    for i in range(l, 2 * l):
        b.comment(f"reduction phase 2, column {i}")
        b.load("ld", y, 8 * i, tptr)
        _emit_acc_add(b, acc[2], acc[1], acc[0], y, use_ise=use_ise)
        for j in range(i - l + 1, l):
            _emit_mac(b, acc[2], acc[1], acc[0], Q[j], p_digit(i - j),
                      y, z, use_ise=use_ise)
        b.store("sd", acc[0], 8 * (i - l), rptr)
        if i < 2 * l - 1:
            acc = [acc[1], acc[2], acc[0]]
            _zero(b, acc[2])


# ---------------------------------------------------------------------------
# MPI add/sub helpers with explicit carry/borrow chains
# ---------------------------------------------------------------------------

def _emit_sub_with_borrow(
    b: KernelBuilder,
    T: list[str],
    a_digit,
    load_subtrahend,
    borrow: str,
    u: str,
    y: str,
) -> None:
    """``T = A - X`` digit-wise; *borrow* holds the final borrow (0/1).

    ``a_digit(i)`` / ``load_subtrahend(i)`` return registers holding the
    i-th digit of the minuend/subtrahend (either resident registers or
    freshly loaded streaming temporaries).
    """
    for i in range(len(T)):
        a = a_digit(i)
        x = load_subtrahend(i)
        if i == 0:
            b.r("sltu", borrow, a, x)
            b.r("sub", T[0], a, x)
        else:
            b.r("sltu", y, a, borrow)
            b.r("sub", u, a, borrow)
            b.r("sltu", borrow, u, x)
            b.r("sub", T[i], u, x)
            b.r("or", borrow, borrow, y)


def _emit_add_with_carry(
    b: KernelBuilder,
    S: list[str],
    A: list[str],
    B: list[str],
    carry: str,
    y: str,
) -> None:
    """``S = A + B`` digit-wise with full carry propagation (no final
    carry-out: callers guarantee the sum fits, as ``2p < 2^(64*l)``)."""
    l = len(A)
    for i in range(l):
        if i == 0:
            b.r("add", S[0], A[0], B[0])
            b.r("sltu", carry, S[0], B[0])
        else:
            b.r("add", y, A[i], B[i])
            b.r("sltu", S[i], y, B[i])  # S[i] as scratch carry
            b.r("add", y, y, carry)
            b.r("sltu", carry, y, carry)
            b.r("or", carry, carry, S[i])
            b.mv(S[i], y)


# ---------------------------------------------------------------------------
# Fast modulo-p reduction bodies (Algorithms 1 and 2)
# ---------------------------------------------------------------------------

def emit_fast_reduce_body(
    b: KernelBuilder,
    ctx: MontgomeryContext,
    *,
    swap_based: bool,
    rptr: str = "a0",
    aptr: str = "a1",
    in_regs: list[str] | None = None,
    pool: RegisterPool | None = None,
) -> None:
    """Reduce ``A in [0, 2p)`` to ``[0, p)`` (Algorithm 2 if
    *swap_based*, else Algorithm 1).

    The operand either comes from memory at *aptr* or, for fused
    kernels, is already in registers (*in_regs* + caller's *pool*).
    For long operands only ``T`` stays register-resident and the
    A digits are re-loaded on demand.
    """
    l = _check_full_radix(ctx)
    layout = ConstPoolLayout(l)
    own_pool = pool is None
    reserved = (rptr, aptr)
    if own_pool:
        pool = RegisterPool(reserved=reserved)
    assert pool is not None

    stream_a = in_regs is None and (2 * l + 7 > _available(reserved))
    if in_regs is None and not stream_a:
        A = pool.take_many(l, "a")
        for i in range(l):
            b.load("ld", A[i], 8 * i, aptr)
    else:
        A = in_regs if in_regs is not None else []

    cb = pool.take("constbase")
    b.li(cb, CONST_BASE)
    T = pool.take_many(l, "t")
    borrow = pool.take("borrow")
    u = pool.take("u")
    y = pool.take("y")
    pdig = pool.take("pdig")
    areg = pool.take("areg") if stream_a else ""

    def load_p(i: int) -> str:
        b.load("ld", pdig, layout.modulus_offset + 8 * i, cb)
        return pdig

    def a_digit(i: int) -> str:
        if not stream_a:
            return A[i]
        b.load("ld", areg, 8 * i, aptr)
        return areg

    b.comment("T = A - P with borrow chain")
    _emit_sub_with_borrow(b, T, a_digit, load_p, borrow, u, y)
    b.comment("M = 0 - SLTU(A, P)")
    b.r("sub", borrow, "zero", borrow)  # mask M

    if swap_based:
        b.comment("Algorithm 2: R = T ^ (M & (A ^ T))")
        for i in range(l):
            b.r("xor", y, a_digit(i), T[i])
            b.r("and", y, y, borrow)
            b.r("xor", y, T[i], y)
            b.store("sd", y, 8 * i, rptr)
    else:
        b.comment("Algorithm 1: R = T + (M & P) with carry chain")
        carry = u
        for i in range(l):
            p_reg = load_p(i)
            b.r("and", y, p_reg, borrow)
            if i == 0:
                b.r("add", y, T[0], y)
                b.r("sltu", carry, y, T[0])
            else:
                b.r("add", y, T[i], y)
                b.r("sltu", pdig, y, T[i])
                b.r("add", y, y, carry)
                b.r("sltu", carry, y, carry)
                b.r("or", carry, carry, pdig)
            b.store("sd", y, 8 * i, rptr)


def emit_fp_add_body(
    b: KernelBuilder,
    ctx: MontgomeryContext,
    *,
    rptr: str = "a0",
    aptr: str = "a1",
    bptr: str = "a2",
) -> None:
    """``R = (A + B) mod p`` — carried addition, then swap-based fast
    reduction (Sect. 3.1: swap-based wins for full radix on RISC-V).

    For long operands the sum is streamed to scratch memory and the
    fast reduction re-reads it (operands no longer fit the register
    file twice over)."""
    l = _check_full_radix(ctx)
    reserved = (rptr, aptr, bptr)
    pool = RegisterPool(reserved=reserved)

    if 2 * l + 5 <= _available(reserved):
        A = pool.take_many(l, "a")
        for i in range(l):
            b.load("ld", A[i], 8 * i, aptr)
        B = pool.take_many(l, "b")
        for i in range(l):
            b.load("ld", B[i], 8 * i, bptr)
        carry = pool.take("carry")
        y = pool.take("y")
        b.comment("S = A + B (sum < 2p fits the digit count)")
        _emit_add_with_carry(b, A, A, B, carry, y)
        pool.release_many(B)
        pool.release(carry)
        pool.release(y)
        emit_fast_reduce_body(b, ctx, swap_based=True, rptr=rptr,
                              in_regs=A, pool=pool)
        return

    from repro.kernels.layout import SCRATCH_ADDR

    sptr = pool.take("scratchptr")
    b.li(sptr, SCRATCH_ADDR)
    carry = pool.take("carry")
    y = pool.take("y")
    x1 = pool.take("x1")
    x2 = pool.take("x2")
    b.comment("S = A + B streamed to scratch (long-operand mode)")
    for i in range(l):
        b.load("ld", x1, 8 * i, aptr)
        b.load("ld", x2, 8 * i, bptr)
        b.r("add", x1, x1, x2)
        if i == 0:
            b.r("sltu", carry, x1, x2)
        else:
            b.r("sltu", y, x1, x2)
            b.r("add", x1, x1, carry)
            b.r("sltu", carry, x1, carry)
            b.r("or", carry, carry, y)
        b.store("sd", x1, 8 * i, sptr)
    emit_fast_reduce_body(b, ctx, swap_based=True, rptr=rptr,
                          aptr=sptr)


def emit_fp_sub_body(
    b: KernelBuilder,
    ctx: MontgomeryContext,
    *,
    rptr: str = "a0",
    aptr: str = "a1",
    bptr: str = "a2",
) -> None:
    """``R = (A - B) mod p`` — Algorithm 1 variant with ``T = A - B``
    and conditional add-back of ``P`` (Sect. 3.1)."""
    l = _check_full_radix(ctx)
    layout = ConstPoolLayout(l)
    reserved = (rptr, aptr, bptr)
    pool = RegisterPool(reserved=reserved)

    stream_a = 2 * l + 6 > _available(reserved)
    if not stream_a:
        A = pool.take_many(l, "a")
        for i in range(l):
            b.load("ld", A[i], 8 * i, aptr)
    else:
        A = []

    T = pool.take_many(l, "t")
    borrow = pool.take("borrow")
    u = pool.take("u")
    y = pool.take("y")
    bdig = pool.take("bdig")
    areg = pool.take("areg") if stream_a else ""

    def load_b(i: int) -> str:
        b.load("ld", bdig, 8 * i, bptr)
        return bdig

    def a_digit(i: int) -> str:
        if not stream_a:
            return A[i]
        b.load("ld", areg, 8 * i, aptr)
        return areg

    b.comment("T = A - B with borrow chain")
    _emit_sub_with_borrow(b, T, a_digit, load_b, borrow, u, y)
    b.r("sub", borrow, "zero", borrow)

    cb = bdig  # operand B fully consumed; reuse its register
    b.li(cb, CONST_BASE)
    pdig = areg if stream_a else pool.take("pdig")
    carry = u
    b.comment("R = T + (M & P) with carry chain")
    for i in range(l):
        b.load("ld", pdig, layout.modulus_offset + 8 * i, cb)
        b.r("and", y, pdig, borrow)
        if i == 0:
            b.r("add", y, T[0], y)
            b.r("sltu", carry, y, T[0])
        else:
            b.r("add", y, T[i], y)
            b.r("sltu", pdig, y, T[i])
            b.r("add", y, y, carry)
            b.r("sltu", carry, y, carry)
            b.r("or", carry, carry, pdig)
        b.store("sd", y, 8 * i, rptr)


# ---------------------------------------------------------------------------
# Operand-scanning multiplication (E15 ablation)
# ---------------------------------------------------------------------------

def emit_int_mul_operand_scanning_body(
    b: KernelBuilder,
    ctx: MontgomeryContext,
    *,
    use_ise: bool,
    rptr: str = "a0",
    aptr: str = "a1",
    bptr: str = "a2",
) -> None:
    """Row-wise (operand-scanning) ``R = A * B``.

    The paper's Sect. 1 names both schoolbook techniques; its kernels
    use product scanning because the row-wise form must keep the
    partial result in *memory* (it re-reads and re-writes every result
    digit l times), which wastes the large RV64 register file.  This
    generator exists to measure that gap (experiment E15).
    """
    l = _check_full_radix(ctx)
    pool = RegisterPool(reserved=(rptr, aptr, bptr))
    B = pool.take_many(l, "b")
    for j in range(l):
        b.load("ld", B[j], 8 * j, bptr)

    a_i = pool.take("a_i")
    lo = pool.take("lo")
    hi = pool.take("hi")
    carry = pool.take("carry")
    r_j = pool.take("r_j")
    t = pool.take("t")

    for i in range(l):
        b.comment(f"row {i}")
        b.load("ld", a_i, 8 * i, aptr)
        b.mv(carry, "zero")
        for j in range(l):
            first_row = i == 0
            if use_ise:
                if first_row:
                    # r_ij is zero: fuse only the carry
                    b.r4("maddhu", hi, a_i, B[j], carry)
                    b.r4("maddlu", lo, a_i, B[j], carry)
                    b.mv(carry, hi)
                else:
                    b.load("ld", r_j, 8 * (i + j), rptr)
                    b.r4("maddhu", hi, a_i, B[j], r_j)
                    b.r4("maddlu", lo, a_i, B[j], r_j)
                    b.r("add", lo, lo, carry)
                    b.r("sltu", t, lo, carry)
                    b.r("add", carry, hi, t)
            else:
                b.r("mulhu", hi, a_i, B[j])
                b.r("mul", lo, a_i, B[j])
                b.r("add", lo, lo, carry)
                b.r("sltu", t, lo, carry)
                b.r("add", carry, hi, t)
                if not first_row:
                    b.load("ld", r_j, 8 * (i + j), rptr)
                    b.r("add", lo, lo, r_j)
                    b.r("sltu", t, lo, r_j)
                    b.r("add", carry, carry, t)
            b.store("sd", lo, 8 * (i + j), rptr)
        b.store("sd", carry, 8 * (i + l), rptr)
