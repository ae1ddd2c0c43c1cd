"""Speedup guards for the aot execution engine.

The engine contract, checked once here:

* the aot engine runs the toy group action at least **12x** faster than
  the interpreter — the product of the floors the retired intermediate
  tiers guarded (replay > 3x over the interpreter, jit >= 2x over
  replay, aot >= 2x over jit), so collapsing the ladder cannot hide a
  slower top rung;
* the simulated CSIDH-512 action of a one-prime key costs at most
  **5.3x** (``reduced.ise``) and **6.1x** (``full.isa``) the
  pure-Python action of the same key, both timed in this process (a
  ratio of two timings taken side by side depends far less on the
  host's speed than either timing);
* a full-radix CSIDH-512 ``fp_sub`` thunk costs at most **2x** its
  ``fp_add`` sibling, the two timed alternately in this process (in
  limb form it cost 5-6x);
* a CSIDH-512 ``add`` (``sub``) on the simulated field costs at most
  **1.55x** (**1.65x**) the raw call of its thunk, the two timed
  alternately in this process: the field op's own dispatch stays a
  small share of the kernel it runs.
"""

from __future__ import annotations

import random
import time

import pytest

from repro.csidh.group_action import ActionStats, group_action
from repro.csidh.parameters import csidh_512, csidh_toy
from repro.field.fp import FieldContext
from repro.field.simulated import SimulatedFieldContext
from repro.kernels.registry import cached_kernels
from repro.kernels.runner import KernelRunner
from tests.helpers import interleaved_best

EXPONENTS = (1, -1, 1)


def _run_action(*, engine: str = "aot") -> float:
    params = csidh_toy()
    field = SimulatedFieldContext(params.p, engine=engine)
    start = time.perf_counter()
    group_action(params, field, 0, EXPONENTS, random.Random(3))
    return time.perf_counter() - start


def test_aot_at_least_12x_over_interpreter():
    """The fused engine beats the interpreter by the combined floor of
    the retired tiers on a full toy group action."""
    _run_action(engine="interpreter")
    _run_action()               # warm pools + aot caches
    interp, aot = interleaved_best(
        3, lambda: _run_action(engine="interpreter"), _run_action)
    ratio = interp / aot
    print(f"\n=== toy action: interpreter {interp*1e3:.1f} ms, "
          f"aot {aot*1e3:.1f} ms ({ratio:.2f}x) ===")
    assert ratio > 12.0


#: Position in the CSIDH-512 prime list of the one-prime key's +1
#: exponent (degree 587: the ``action512`` benchmark's key).
_KEY_POSITION = 73

#: Ceilings on the simulated over the pure-Python action's seconds.
#: With each Montgomery product's final subtraction and ``fp_sub.full``
#: rendered as one add-back select, one-shift operand guards and
#: operands reduced only when out of range, they read 3.68-3.93x
#: (reduced.ise) and 3.55-4.67x (full.isa) over 10 runs on a shared
#: 2-vCPU x86-64 host (4.41-4.91x and 3.40-4.91x before).  Each
#: ceiling is that maximum plus 1.34x, the most a busy host had added
#: to this ratio's maximum over a quiet one's (6.34x against 5.00x, 10
#: runs each), rounded up.
SIM_OVER_PURE_CEILINGS = {"reduced.ise": 5.3, "full.isa": 6.1}


def _one_round_key(params):
    """The one-prime key and the first sampling seed whose action takes
    one round, with no wasted sample and no missed kernel point."""
    exponents = [0] * params.num_primes
    exponents[_KEY_POSITION] = 1
    exponents = tuple(exponents)
    rng = random.Random("sim-over-pure")
    for _ in range(200):
        sampling = rng.getrandbits(64)
        stats = ActionStats()
        group_action(params, FieldContext(params.p), 0, exponents,
                     random.Random(sampling), stats=stats)
        if (stats.rounds == 1 and not stats.wasted_samples
                and not stats.missed_kernels):
            return exponents, sampling
    raise AssertionError("no one-round sampling seed")


def test_sim_over_pure_ratio():
    """The simulated CSIDH-512 action, on ``reduced.ise`` and
    ``full.isa``, over the pure-Python action of the same key and
    sampling seed: best of 3 each, in one process."""
    params = csidh_512()
    exponents, sampling = _one_round_key(params)

    def timed(field) -> float:
        start = time.perf_counter()
        group_action(params, field, 0, exponents, random.Random(sampling))
        return time.perf_counter() - start

    fields = {variant: SimulatedFieldContext(params.p, variant=variant,
                                             engine="aot")
              for variant in SIM_OVER_PURE_CEILINGS}
    for field in fields.values():
        timed(field)  # compile outside the timed runs
    # interleaved rounds: the host's speed drifts, and each ratio should
    # compare timings taken under the same conditions
    best = dict.fromkeys(["pure", *fields], float("inf"))
    for _round in range(3):
        best["pure"] = min(best["pure"], timed(FieldContext(params.p)))
        for variant, field in fields.items():
            best[variant] = min(best[variant], timed(field))
    pure = best["pure"]
    ratios = {variant: best[variant] / pure for variant in fields}
    print(f"\n=== CSIDH-512 one-prime action: pure {pure*1e3:.1f} ms; "
          + ", ".join(f"{variant} {ratio:.2f}x"
                      for variant, ratio in ratios.items()) + " ===")
    for variant, ratio in ratios.items():
        assert ratio <= SIM_OVER_PURE_CEILINGS[variant], (variant, ratio)


#: Ceiling on a full-radix CSIDH-512 ``fp_sub`` thunk's time over its
#: ``fp_add`` sibling's.  Lifted, the two read 0.88-0.98x over 6 runs
#: on a shared 2-vCPU x86-64 host; with ``fp_sub.full`` in limb form,
#: 5.0-5.7x.
SUB_OVER_ADD_CEILING = 2.0


def _thunk_timer(kernel, rng):
    """A timing function: one pass of *kernel*'s aot entry thunk over
    200 sampled operand tuples."""
    thunk = KernelRunner(kernel, engine="aot")._aot_thunk
    operands = [kernel.sampler(rng) for _ in range(200)]

    def timed() -> float:
        start = time.perf_counter()
        for values in operands:
            thunk(*values)
        return time.perf_counter() - start

    return timed


@pytest.mark.parametrize("variant", ["full.isa", "full.ise"])
def test_fp_sub_thunk_within_2x_of_fp_add(variant):
    """The full-radix ``fp_sub`` thunk, lifted like its siblings, costs
    at most twice ``fp_add``'s: best of 7 each, alternating."""
    kernels = cached_kernels(csidh_512().p)
    rng = random.Random(11)
    add, sub = interleaved_best(
        7, _thunk_timer(kernels[f"fp_add.{variant}"], rng),
        _thunk_timer(kernels[f"fp_sub.{variant}"], rng))
    ratio = sub / add
    print(f"\n=== CSIDH-512 {variant}: fp_add {add / 200 * 1e6:.2f} us, "
          f"fp_sub {sub / 200 * 1e6:.2f} us ({ratio:.2f}x) ===")
    assert ratio <= SUB_OVER_ADD_CEILING, ratio


#: Ceilings on a CSIDH-512 ``reduced.ise`` field ``add``/``sub`` over one
#: raw call of its thunk (the op's counter, the reduction of its
#: operands, the checks that keep the fallbacks, the run count and the
#: telemetry hook, over the kernel body itself).  With the thunk call
#: inlined they read 1.29-1.46x (add) and 1.40-1.51x (sub) over 15 runs
#: on a shared 2-vCPU x86-64 host; with a method call, a thunk-lookup
#: call, a tuple and a cycle sum per op, 1.60-2.09x and 1.69-2.06x
#: (8 runs).  ``sub``'s thunk is the cheaper one, so the same dispatch
#: is a larger share of it.
FIELD_OP_OVER_THUNK_CEILINGS = {"add": 1.55, "sub": 1.65}


def _pass_timer(fn, pairs):
    """A timing function: one pass of *fn* over the operand *pairs*."""

    def timed() -> float:
        start = time.perf_counter()
        for a, b in pairs:
            fn(a, b)
        return time.perf_counter() - start

    return timed


@pytest.mark.parametrize("op", ["add", "sub"])
def test_field_op_over_raw_thunk(op):
    """A simulated CSIDH-512 ``add``/``sub`` against the raw call of the
    thunk it runs, over the same 2,000 operand pairs: best of 15 each,
    alternating."""
    p = csidh_512().p
    field = SimulatedFieldContext(p, variant="reduced.ise", engine="aot")
    thunk = getattr(field, f"_{op}")._aot_thunk
    rng = random.Random(7)
    pairs = [(rng.randrange(p), rng.randrange(p)) for _ in range(2000)]
    field_s, thunk_s = interleaved_best(
        15, _pass_timer(getattr(field, op), pairs),
        _pass_timer(thunk, pairs))
    ratio = field_s / thunk_s
    print(f"\n=== CSIDH-512 reduced.ise {op}: field op "
          f"{field_s / len(pairs) * 1e6:.2f} us, raw thunk "
          f"{thunk_s / len(pairs) * 1e6:.2f} us ({ratio:.2f}x) ===")
    assert ratio <= FIELD_OP_OVER_THUNK_CEILINGS[op], ratio
