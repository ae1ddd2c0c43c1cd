"""The paper's MAC and carry-propagation code sequences (Listings 1-4).

Each listing is written once, as an ``emit_*`` function that appends it
to a :class:`~repro.kernels.builder.KernelBuilder` through the
builder's per-format methods, parameterised on register names; the
generated kernels call these.  The function of the same name without
``emit_`` returns the listing's assembly lines (the same builder run on
a throw-away builder, which also accepts symbolic register names such
as the paper's ``e``, ``h``, ``l``), ready to be fed to the assembler
or printed.  The instruction counts are the paper's headline
software-level results:

* full-radix MAC:      8 instructions ISA-only  -> 4 with ISEs;
* reduced-radix MAC:   6 instructions ISA-only  -> 2 with ISEs;
* radix-2^57 carry propagation: 3 instructions -> 2 with ``sraiadd``.
"""

from __future__ import annotations

from repro.core.ise import REDUCED_RADIX_BITS


def emit_mac_full_radix_isa(
    b, e: str, h: str, l: str, a: str, x: str, y: str, z: str
) -> None:
    """Listing 1 — ISA-only full-radix MAC.

    ``(e || h || l) <- (e || h || l) + a*x`` with the 192-bit accumulator
    in registers *e*, *h*, *l*; *y*, *z* are clobbered temporaries.
    """
    b.r("mulhu", z, a, x)
    b.r("mul", y, a, x)
    b.r("add", l, l, y)
    b.r("sltu", y, l, y)
    b.r("add", z, z, y)
    b.r("add", h, h, z)
    b.r("sltu", z, h, z)
    b.r("add", e, e, z)


def emit_mac_reduced_radix_isa(
    b, h: str, l: str, a: str, x: str, y: str, z: str
) -> None:
    """Listing 2 — ISA-only reduced-radix MAC.

    ``(h || l) <- (h || l) + a*x`` with the 128-bit accumulator in *h*,
    *l*; *y*, *z* are clobbered temporaries.
    """
    b.r("mulhu", z, a, x)
    b.r("mul", y, a, x)
    b.r("add", l, l, y)
    b.r("sltu", y, l, y)
    b.r("add", z, z, y)
    b.r("add", h, h, z)


def emit_mac_full_radix_ise(
    b, e: str, h: str, l: str, a: str, x: str, z: str
) -> None:
    """Listing 3 — ISE-supported full-radix MAC (half the instructions).

    ``maddhu`` folds the low-half carry internally; ``cadd`` replaces the
    remaining ``sltu``/``add`` pair.
    """
    b.r4("maddhu", z, a, x, l)
    b.r4("maddlu", l, a, x, l)
    b.r4("cadd", e, h, z, e)
    b.r("add", h, h, z)


def emit_mac_reduced_radix_ise(b, h: str, l: str, a: str, x: str) -> None:
    """Listing 4 — ISE-supported reduced-radix MAC (two instructions).

    ``l <- l + (a*x)_{56..0}`` and ``h <- h + (a*x)_{120..57}``; the
    accumulator stays aligned to the radix automatically.
    """
    b.r4("madd57hu", h, a, x, h)
    b.r4("madd57lu", l, a, x, l)


def emit_carry_propagate_isa(b, x: str, y: str, m: str, z: str) -> None:
    """Radix-2^57 carry propagation from limb *x* into limb *y*, ISA-only.

    *m* must hold the mask ``2^57 - 1``; *z* is a clobbered temporary
    (Sect. 3.2, "Impact of our ISEs on software").
    """
    b.i("srai", z, x, REDUCED_RADIX_BITS)
    b.r("add", y, y, z)
    b.r("and", x, x, m)


def emit_carry_propagate_ise(b, x: str, y: str, m: str) -> None:
    """Radix-2^57 carry propagation with ``sraiadd`` (one fewer
    instruction and a weakened dependency chain)."""
    b.ria("sraiadd", y, y, x, REDUCED_RADIX_BITS)
    b.r("and", x, x, m)


def _listing(emit, *registers: str) -> list[str]:
    # imported here: repro.kernels imports this module's package
    from repro.kernels.builder import KernelBuilder

    return KernelBuilder.listing(emit, *registers)


def mac_full_radix_isa(
    e: str, h: str, l: str, a: str, b: str, y: str, z: str
) -> list[str]:
    """Listing 1 as assembly lines (see :func:`emit_mac_full_radix_isa`)."""
    return _listing(emit_mac_full_radix_isa, e, h, l, a, b, y, z)


def mac_reduced_radix_isa(
    h: str, l: str, a: str, b: str, y: str, z: str
) -> list[str]:
    """Listing 2 as assembly lines (see
    :func:`emit_mac_reduced_radix_isa`)."""
    return _listing(emit_mac_reduced_radix_isa, h, l, a, b, y, z)


def mac_full_radix_ise(
    e: str, h: str, l: str, a: str, b: str, z: str
) -> list[str]:
    """Listing 3 as assembly lines (see :func:`emit_mac_full_radix_ise`)."""
    return _listing(emit_mac_full_radix_ise, e, h, l, a, b, z)


def mac_reduced_radix_ise(h: str, l: str, a: str, b: str) -> list[str]:
    """Listing 4 as assembly lines (see
    :func:`emit_mac_reduced_radix_ise`)."""
    return _listing(emit_mac_reduced_radix_ise, h, l, a, b)


def carry_propagate_isa(x: str, y: str, m: str, z: str) -> list[str]:
    """ISA-only carry propagation as assembly lines (see
    :func:`emit_carry_propagate_isa`)."""
    return _listing(emit_carry_propagate_isa, x, y, m, z)


def carry_propagate_ise(x: str, y: str, m: str) -> list[str]:
    """``sraiadd`` carry propagation as assembly lines (see
    :func:`emit_carry_propagate_ise`)."""
    return _listing(emit_carry_propagate_ise, x, y, m)


#: Instruction counts asserted by the paper; benchmarked in E6/E7.
LISTING_INSTRUCTION_COUNTS = {
    "mac_full_radix_isa": 8,
    "mac_reduced_radix_isa": 6,
    "mac_full_radix_ise": 4,
    "mac_reduced_radix_ise": 2,
    "carry_propagate_isa": 3,
    "carry_propagate_ise": 2,
}
