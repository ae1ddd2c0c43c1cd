"""Kernel registry: generate every Table-4 kernel for a field context.

:func:`build_kernel` produces a single kernel; :func:`build_all_kernels`
produces the full matrix used by the evaluation harness:

====================  ========================================
operation             variants
====================  ========================================
int_mul, int_sqr      full/reduced x isa/ise
mont_redc             full/reduced x isa/ise
fast_reduce           full/reduced x isa/ise  (swap-based)
fast_reduce_add       full/reduced x isa/ise  (E5 ablation)
int_mul_os            full x isa/ise          (E15 ablation)
fp_add, fp_sub        full/reduced x isa/ise
fp_mul, fp_sqr        full/reduced x isa/ise  (composites)
====================  ========================================

Generators switch automatically between register-resident and
operand-streaming code depending on the operand width (DESIGN.md E9).
"""

from __future__ import annotations

import threading
from functools import lru_cache

from repro import telemetry
from repro.core.ise import FULL_RADIX_ISA, REDUCED_RADIX_ISA
from repro.errors import KernelError, ParameterError
from repro.kernels import fullradix, reducedradix
from repro.kernels.builder import KernelBuilder
from repro.kernels.layout import SCRATCH_ADDR
from repro.kernels.runner import DEFAULT_CHECK_INTERVAL, KernelRunner
from repro.kernels.spec import (
    ALL_VARIANTS,
    Kernel,
    OP_FAST_REDUCE,
    OP_FAST_REDUCE_ADD,
    OP_INT_MUL_OS,
    OP_FP_ADD,
    OP_FP_MUL,
    OP_FP_SQR,
    OP_FP_SUB,
    OP_INT_MUL,
    OP_INT_SQR,
    OP_MONT_REDC,
)
from repro.mpi.montgomery import MontgomeryContext, invert_mod
from repro.mpi.representation import (
    full_radix_for,
    reduced_radix_for,
)
from repro.rv64.isa import BASE_ISA, InstructionSet
from repro.rv64.pipeline import PipelineConfig, ROCKET_CONFIG


def _isa_for(variant: str) -> InstructionSet:
    if variant.endswith(".isa"):
        return BASE_ISA
    if variant.startswith("full."):
        return FULL_RADIX_ISA
    return REDUCED_RADIX_ISA


def _module_for(variant: str):
    return fullradix if variant.startswith("full.") else reducedradix


# ---------------------------------------------------------------------------
# Reference semantics and samplers
# ---------------------------------------------------------------------------

def _make_reference(operation: str, ctx: MontgomeryContext):
    p = ctx.modulus
    radix = ctx.radix

    if operation in (OP_INT_MUL, OP_INT_MUL_OS):
        return lambda a, b: a * b
    if operation == OP_INT_SQR:
        return lambda a: a * a
    if operation == OP_MONT_REDC:
        return lambda t: radix.from_limbs(
            ctx.sps_reduce(radix.to_limbs(t, limbs=2 * radix.limbs)).limbs
        )
    if operation in (OP_FAST_REDUCE, OP_FAST_REDUCE_ADD):
        return lambda a: a % p
    if operation == OP_FP_ADD:
        return lambda a, b: (a + b) % p
    if operation == OP_FP_SUB:
        return lambda a, b: (a - b) % p
    if operation in (OP_FP_MUL, OP_FP_SQR):
        # closed form of the limb-level ctx.montgomery_multiply (which
        # verify_against_plain checks against it): a checked run's
        # reference costs one product and one division, not a walk
        r_inv = invert_mod(ctx.r, p)

        def fp_mul(a: int, b: int) -> int:
            if not (0 <= a < p and 0 <= b < p):
                raise ParameterError("operands must be reduced mod p")
            return a * b * r_inv % p

        if operation == OP_FP_MUL:
            return fp_mul
        return lambda a: fp_mul(a, a)
    raise KernelError(f"unknown operation {operation!r}")


def _make_sampler(operation: str, ctx: MontgomeryContext):
    p = ctx.modulus
    limbs = ctx.radix.limbs
    capacity = 1 << ctx.radix.capacity_bits

    if operation in (OP_INT_MUL, OP_INT_MUL_OS, OP_FP_ADD,
                     OP_FP_SUB, OP_FP_MUL):
        return lambda rng: (rng.randrange(p), rng.randrange(p))
    if operation in (OP_INT_SQR, OP_FP_SQR):
        return lambda rng: (rng.randrange(p),)
    if operation == OP_MONT_REDC:
        # any T < p * R reduces correctly; products are the real workload
        return lambda rng: (rng.randrange(p) * rng.randrange(p),)
    if operation in (OP_FAST_REDUCE, OP_FAST_REDUCE_ADD):
        return lambda rng: (rng.randrange(min(2 * p, capacity)),)
    raise KernelError(f"unknown operation {operation!r}")


def _shapes(operation: str, limbs: int) -> tuple[tuple[int, ...], int]:
    """(input limb counts, output limb count) per operation."""
    table = {
        OP_INT_MUL: ((limbs, limbs), 2 * limbs),
        OP_INT_MUL_OS: ((limbs, limbs), 2 * limbs),
        OP_INT_SQR: ((limbs,), 2 * limbs),
        OP_MONT_REDC: ((2 * limbs,), limbs),
        OP_FAST_REDUCE: ((limbs,), limbs),
        OP_FAST_REDUCE_ADD: ((limbs,), limbs),
        OP_FP_ADD: ((limbs, limbs), limbs),
        OP_FP_SUB: ((limbs, limbs), limbs),
        OP_FP_MUL: ((limbs, limbs), limbs),
        OP_FP_SQR: ((limbs,), limbs),
    }
    return table[operation]


# ---------------------------------------------------------------------------
# Source generation
# ---------------------------------------------------------------------------

def _emit_operation(
    b: KernelBuilder,
    operation: str,
    ctx: MontgomeryContext,
    variant: str,
) -> None:
    module = _module_for(variant)
    use_ise = variant.endswith(".ise")
    limbs = ctx.radix.limbs

    if operation == OP_INT_MUL:
        module.emit_int_mul_body(b, ctx, use_ise=use_ise)
    elif operation == OP_INT_MUL_OS:
        if not variant.startswith("full."):
            raise KernelError(
                "operand scanning is generated for full radix only")
        fullradix.emit_int_mul_operand_scanning_body(
            b, ctx, use_ise=use_ise)
    elif operation == OP_INT_SQR:
        module.emit_int_mul_body(b, ctx, use_ise=use_ise, square=True,
                                 bptr="a1")
    elif operation == OP_MONT_REDC:
        module.emit_mont_redc_body(b, ctx, use_ise=use_ise)
    elif operation == OP_FAST_REDUCE:
        if variant.startswith("full."):
            module.emit_fast_reduce_body(b, ctx, swap_based=True)
        else:
            module.emit_fast_reduce_body(b, ctx, use_ise=use_ise,
                                         swap_based=True)
    elif operation == OP_FAST_REDUCE_ADD:
        if variant.startswith("full."):
            module.emit_fast_reduce_body(b, ctx, swap_based=False)
        else:
            module.emit_fast_reduce_body(b, ctx, use_ise=use_ise,
                                         swap_based=False)
    elif operation == OP_FP_ADD:
        if variant.startswith("full."):
            module.emit_fp_add_body(b, ctx)
        else:
            module.emit_fp_add_body(b, ctx, use_ise=use_ise)
    elif operation == OP_FP_SUB:
        if variant.startswith("full."):
            module.emit_fp_sub_body(b, ctx)
        else:
            module.emit_fp_sub_body(b, ctx, use_ise=use_ise)
    elif operation in (OP_FP_MUL, OP_FP_SQR):
        _emit_fp_mul_composite(b, ctx, variant,
                               square=(operation == OP_FP_SQR),
                               limbs=limbs)
    else:
        raise KernelError(f"unknown operation {operation!r}")


def _emit_fp_mul_composite(
    b: KernelBuilder,
    ctx: MontgomeryContext,
    variant: str,
    *,
    square: bool,
    limbs: int,
) -> None:
    """Fp-multiplication as the paper composes it: integer product ->
    SPS Montgomery reduction -> fast modulo-p reduction (Table 4's
    Fp-mul row is, to within call overhead, the sum of those rows)."""
    module = _module_for(variant)
    use_ise = variant.endswith(".ise")
    t_addr = SCRATCH_ADDR                       # 2l-limb product
    u_addr = SCRATCH_ADDR + 16 * limbs + 64    # l-limb reduced value

    b.comment("phase 1: T = A * B (product scanning)")
    b.li("a3", t_addr)
    module.emit_int_mul_body(b, ctx, use_ise=use_ise, rptr="a3",
                             aptr="a1", bptr="a1" if square else "a2",
                             square=square)
    b.comment("phase 2: U = T * R^-1 mod p  (SPS Montgomery reduction)")
    b.li("a4", u_addr)
    module.emit_mont_redc_body(b, ctx, use_ise=use_ise, rptr="a4",
                               tptr="a3")
    b.comment("phase 3: R = U fully reduced to [0, p)")
    if variant.startswith("full."):
        module.emit_fast_reduce_body(b, ctx, swap_based=True,
                                     rptr="a0", aptr="a4")
    else:
        module.emit_fast_reduce_body(b, ctx, use_ise=use_ise,
                                     swap_based=True, rptr="a0",
                                     aptr="a4")


def build_kernel(
    operation: str,
    variant: str,
    ctx: MontgomeryContext,
) -> Kernel:
    """Generate one kernel (program, assembly source and metadata)."""
    return _build_kernel(operation, variant, ctx, {})


def _build_kernel(
    operation: str,
    variant: str,
    ctx: MontgomeryContext,
    interned: dict,
) -> Kernel:
    """:func:`build_kernel` with the builders' shared instruction
    table *interned* (see :class:`~repro.kernels.builder.KernelBuilder`)."""
    if variant not in ALL_VARIANTS:
        raise KernelError(f"unknown variant {variant!r}")
    name = f"{operation}.{variant}"
    b = KernelBuilder(name, interned)
    _emit_operation(b, operation, ctx, variant)
    b.ret()
    inputs, outputs = _shapes(operation, ctx.radix.limbs)
    source = b.build()
    return Kernel(
        name=name,
        operation=operation,
        variant=variant,
        source=source,
        isa=_isa_for(variant),
        context=ctx,
        input_limbs=inputs,
        output_limbs=outputs,
        reference=_make_reference(operation, ctx),
        sampler=_make_sampler(operation, ctx),
        static_counts=b.static_counts,
        built=(source, b.program()),
    )


def make_contexts(
    modulus: int,
) -> tuple[MontgomeryContext, MontgomeryContext]:
    """(full-radix, reduced-radix) Montgomery contexts for *modulus*."""
    bits = modulus.bit_length()
    full = MontgomeryContext(modulus, full_radix_for(bits + 1))
    reduced = MontgomeryContext(modulus, reduced_radix_for(bits + 2))
    return full, reduced


_GENERATED_OPERATIONS = (
    OP_INT_MUL, OP_INT_SQR, OP_MONT_REDC, OP_FAST_REDUCE,
    OP_FAST_REDUCE_ADD, OP_FP_ADD, OP_FP_SUB, OP_FP_MUL, OP_FP_SQR,
)

#: operations generated only for the full-radix variants
_FULL_ONLY_OPERATIONS = (OP_INT_MUL_OS,)


def build_all_kernels(modulus: int) -> dict[str, Kernel]:
    """The full kernel matrix for *modulus*, keyed by kernel name.

    The kernels' builders share one instruction table, which lives only
    as long as this call: a line repeated across kernels is built once
    per call, and every call builds all its instructions again."""
    full_ctx, reduced_ctx = make_contexts(modulus)
    interned: dict = {}
    kernels: dict[str, Kernel] = {}
    for operation in _GENERATED_OPERATIONS:
        for variant in ALL_VARIANTS:
            ctx = full_ctx if variant.startswith("full.") else reduced_ctx
            kernel = _build_kernel(operation, variant, ctx, interned)
            kernels[kernel.name] = kernel
    for operation in _FULL_ONLY_OPERATIONS:
        for variant in ("full.isa", "full.ise"):
            kernel = _build_kernel(operation, variant, full_ctx, interned)
            kernels[kernel.name] = kernel
    return kernels


@lru_cache(maxsize=4)
def cached_kernels(modulus: int) -> dict[str, Kernel]:
    """Memoised :func:`build_all_kernels` (generation is pure)."""
    return build_all_kernels(modulus)


_RUNNER_POOL: dict[
    tuple[int, str, PipelineConfig, bool, str, str], KernelRunner
] = {}

#: Serialises pool bookkeeping (lookup, insert, evict, clear) so the
#: service layer's concurrent sessions cannot corrupt the dict or
#: double-count pool telemetry.  Builds happen *outside* the lock (a
#: lost build race is resolved by keeping the first-inserted runner).
_POOL_LOCK = threading.RLock()


def _count_lookup(family: str) -> None:
    """One pool lookup (caller holds ``_POOL_LOCK``)."""
    telemetry.record(family)
    telemetry.record("runner_pool_size", value=len(_RUNNER_POOL))


def cached_runner(
    modulus: int,
    name: str,
    pipeline_config: PipelineConfig = ROCKET_CONFIG,
    *,
    checked: bool = False,
    check_interval: int | None = None,
    engine: str = "interpreter",
    scope: str = "",
) -> KernelRunner:
    """Pooled :class:`KernelRunner` for one kernel of *modulus*.

    Loading a kernel's program and fusing its aot thunk are pure,
    per-kernel costs; pooling runners lets every
    :class:`~repro.field.simulated.SimulatedFieldContext` (and any other
    repeat executor) share one machine per kernel instead of paying
    them again.  Runs are self-contained (reset, plant operands,
    execute, read result), so interleaved use at run granularity is safe
    within one thread.

    **Concurrency.**  Pool bookkeeping is thread-safe: lookups, inserts
    and evictions are serialised on a module lock, and a racing double
    build of the same key resolves to the first runner inserted (the
    loser is discarded, both callers observe the same object).  The
    *runner itself* is not: a :class:`KernelRunner` owns one simulator
    machine whose memory image every run rewrites, so two threads must
    never share a live runner.  Concurrent executors partition the pool
    with ``scope`` — a free-form confinement tag (the service layer
    uses ``"<tenant>/<lane>"`` per session lane, see
    ``docs/SERVICE.md``) that is part of the pool key, giving each
    tenant lane its own machines while still amortising runner
    construction *within* the lane.

    ``checked`` runners (sampled reference cross-validation, see
    ``docs/ROBUSTNESS.md``) are pooled separately from plain ones, so a
    hardened context never taxes — or is taxed by — an unchecked one
    sharing the same kernel.  ``check_interval`` re-tunes the sampling
    interval of the pooled checked runner (last caller wins).

    ``engine`` selects the runner's default execution engine and is
    part of the pool key, so an aot context (whose runner eagerly fuses
    its entry thunk) never shares a machine with an interpreter one;
    eviction and rebuild stay per-engine.

    Pool traffic is observable: telemetry counts hits and misses
    (``runner_pool_hits_total`` / ``runner_pool_misses_total``) and
    tracks the pool size, so a workload that keeps rebuilding
    runners shows up immediately in ``repro profile`` output.
    """
    key = (modulus, name, pipeline_config, checked, engine, scope)
    with _POOL_LOCK:
        runner = _RUNNER_POOL.get(key)
        if runner is not None:
            if checked and check_interval is not None:
                runner.enable_checked(check_interval)
            _count_lookup("runner_pool_hits_total")
            return runner
    kernel = cached_kernels(modulus).get(name)
    if kernel is None:
        raise KernelError(
            f"no kernel {name!r} generated for modulus {modulus:#x}"
        )
    runner = KernelRunner(kernel, pipeline_config=pipeline_config,
                          engine=engine)
    if checked:
        runner.enable_checked(
            check_interval if check_interval is not None
            else DEFAULT_CHECK_INTERVAL
        )
    with _POOL_LOCK:
        winner = _RUNNER_POOL.get(key)
        if winner is not None:
            # lost a build race: adopt the pooled runner so every
            # caller for this key observes the same object
            if checked and check_interval is not None:
                winner.enable_checked(check_interval)
            _count_lookup("runner_pool_hits_total")
            return winner
        _RUNNER_POOL[key] = runner
        _count_lookup("runner_pool_misses_total")
    return runner


def evict_runner(
    modulus: int,
    name: str,
    pipeline_config: PipelineConfig = ROCKET_CONFIG,
    *,
    checked: bool = False,
    engine: str = "interpreter",
    scope: str = "",
) -> bool:
    """Drop one pooled runner; returns whether it was pooled.

    The recovery primitive of the hardened execution layer: a runner
    whose machine state (memory image, const pool, static trace, fused
    entry thunk) is suspected of corruption is evicted so
    the next :func:`cached_runner` call rebuilds it from scratch —
    reloading the pristine kernel's program is the trust anchor.
    """
    with _POOL_LOCK:
        runner = _RUNNER_POOL.pop(
            (modulus, name, pipeline_config, checked, engine, scope),
            None)
    if runner is None:
        return False
    telemetry.record("runner_evictions_total", name)
    return True


def clear_runner_pool(scope: str | None = None) -> None:
    """Drop pooled runners (tests and memory-pressure hook).

    With *scope* only that confinement tag's runners are dropped —
    the service layer's per-tenant-lane teardown; ``None`` clears
    everything.
    """
    with _POOL_LOCK:
        if scope is None:
            _RUNNER_POOL.clear()
            return
        for key in [k for k in _RUNNER_POOL if k[5] == scope]:
            del _RUNNER_POOL[key]
