"""action512: CSIDH-512 group actions on the aot tier, every variant.

The key is +-1 on the largest degree, 587, and 0 elsewhere; the seed
picks the sign, so some seeds walk the curve and others the twist.  The
point-sampling seed is the first seed-derived one for which the action
takes exactly one round with no wasted sample and no missed kernel,
found on the pure-Python field; every seed therefore does the same
field operations.  The action is one full round of the protocol (point
sampling, cofactor clearing, kernel ladder, a degree-587 isogeny,
affine recovery) and takes 1.2-1.7 s, so a run repeats each variant
three or four times and keeps the fastest.  (A nine-prime key took
18-32 s per pass over the variants: one pass per run, too few to
filter out the host's drifting speed.)

Oracles, checked outside the timed region:

* each variant's coefficient equals the pure-Python result;
* each variant performed the pure-Python run's field-operation counts;
* the dynamic simulated cycles satisfy, to the cycle,
  ``cycles == 2*(mul+sqr)*fp_mul + add*fp_add + sub*fp_sub`` with the
  cells ``measure_table4`` reports (``SimulatedFieldContext`` runs
  fp_mul twice per mul and per sqr -- the R^2 domain conversion -- and
  never runs fp_sqr).
"""

from __future__ import annotations

import importlib
import itertools
import random
import time

import common
import layers
import w_table4
from spans import Recorder

#: Position in the CSIDH-512 prime list carrying the +-1 exponent
#: (degree 587).
KEY_POSITION = 73

#: Bound on the search for a one-round sampling seed (each try ~0.05 s;
#: about one in two qualifies).
MAX_SAMPLING_TRIES = 200


def setup():
    """Kernel generation and four aot field contexts from an empty cache."""
    from repro.csidh.parameters import csidh_512
    from repro.field.simulated import SimulatedFieldContext
    from repro.kernels import registry

    registry.clear_runner_pool()
    params = csidh_512()
    contexts = {v: SimulatedFieldContext(params.p, variant=v, engine="aot")
                for v in layers.VARIANTS}
    return params, contexts


def probe() -> float:
    setup()
    return time.time()


def make_inputs(params, seed: int):
    """(exponents, sampling seed, expected coefficient, expected counts)."""
    from repro.csidh.group_action import ActionStats, group_action
    from repro.field.fp import FieldContext

    rng = random.Random(f"action512/{seed}")
    exponents = [0] * params.num_primes
    exponents[KEY_POSITION] = rng.choice((1, -1))
    exponents = tuple(exponents)
    for _ in range(MAX_SAMPLING_TRIES):
        sampling = rng.getrandbits(64)
        stats = ActionStats()
        field = FieldContext(params.p)
        expected = group_action(params, field, 0, exponents,
                                random.Random(sampling), stats=stats)
        if (stats.rounds == 1 and not stats.wasted_samples
                and not stats.missed_kernels):
            return exponents, sampling, expected, field.counter
    raise RuntimeError(f"no one-round sampling seed for seed {seed}")


def act(params, ctx, exponents, sampling):
    """One timed group action; returns its measurements."""
    ga_module = importlib.import_module("repro.csidh.group_action")
    cycles, instructions = ctx.simulated_cycles, ctx.simulated_instructions
    counts = ctx.counter.copy()
    start = time.perf_counter()
    coefficient = ga_module.group_action(params, ctx, 0, exponents,
                                         random.Random(sampling))
    seconds = time.perf_counter() - start
    return {
        "variant": ctx.variant,
        "coefficient": coefficient,
        "seconds": seconds,
        "cycles": ctx.simulated_cycles - cycles,
        "instructions": ctx.simulated_instructions - instructions,
        "counts": ctx.counter - counts,
    }


def check(action, expected, counts, cells) -> bool:
    """Coefficient, op counts and the dynamic cycle identity."""
    variant = action["variant"]
    n = action["counts"]
    fp = {op: cells[op][variant] for op in ("fp_mul", "fp_add", "fp_sub")}
    identity = (2 * (n.mul + n.sqr) * fp["fp_mul"] + n.add * fp["fp_add"]
                + n.sub * fp["fp_sub"])
    return (action["coefficient"] == expected and n == counts
            and action["cycles"] == identity)


def cycle_metrics(actions, cells) -> dict:
    """Dynamic cycles, the paper-comparable composed count and its
    speedups, per variant."""
    from repro.eval.paperdata import PAPER_GROUP_ACTION_SPEEDUP

    out, composed = {}, {}
    for action in actions:
        variant = action["variant"]
        n = action["counts"]
        key = layers.metric_key(variant)
        composed[variant] = (n.mul * cells["fp_mul"][variant]
                             + n.sqr * cells["fp_sqr"][variant]
                             + n.add * cells["fp_add"][variant]
                             + n.sub * cells["fp_sub"][variant])
        out[f"csidh.sim_cycles.{key}"] = action["cycles"]
        out[f"csidh.composed_cycles.{key}"] = composed[variant]
    for variant in layers.VARIANTS[1:]:
        key = layers.metric_key(variant)
        speedup = composed["full.isa"] / composed[variant]
        out[f"csidh.composed_speedup.{key}"] = speedup
        out[f"csidh.speedup_vs_paper.{key}"] = \
            speedup / PAPER_GROUP_ACTION_SPEEDUP[variant]
    return out


def run(seed: int, seconds: float, trace: bool) -> common.Outcome:
    params, contexts = setup()
    exponents, sampling, expected, counts = make_inputs(params, seed)
    if trace:
        return _traced(params, contexts, exponents, sampling, expected,
                       counts, seed)
    # passes over the four variants, cut off mid-pass when the window
    # ends (the first pass always completes); each variant's action does
    # the same work every time, so its fastest repetition is its cost
    probes = common.SetupProbes("action512")
    speed = common.HostSpeed()
    variants = len(layers.VARIANTS)
    actions = []
    spent = 0.0
    for index in itertools.count():
        variant = layers.VARIANTS[index % variants]
        if index >= variants and not common.within_budget(
                spent, seconds, actions[-variants]["seconds"], index):
            break
        actions.append(act(params, contexts[variant], exponents, sampling))
        spent += actions[-1]["seconds"]
        probes.catch_up(spent / seconds)
        speed.catch_up(spent)
    table, _, _, failed, checked = w_table4.measure(seed, samples=1)
    failed += sum(not check(a, expected, counts, table.cycles)
                  for a in actions)
    attempted = checked + len(actions)
    metrics = {
        "unit_s": speed.scaled(common.fastest_total(
            [a["seconds"] for a in actions if a["variant"] == variant]
            for variant in layers.VARIANTS)),
        "success_rate": 1.0 - failed / attempted,
        "peak_rss_mb": common.peak_rss_mb(),
        "setup_s": probes.median(),
    }
    return common.Outcome(attempted=attempted, failed=failed,
                          metrics=metrics)


def _traced(params, contexts, exponents, sampling, expected, counts,
            seed) -> common.Outcome:
    """Untraced reduced.ise reference, then setup and one pass traced."""
    from repro import telemetry
    from repro.field.simulated import SimulatedFieldContext
    from repro.kernels import registry

    reference = act(params, contexts["reduced.ise"], exponents, sampling)
    rec = Recorder()
    rec.calibrate()
    captures, actions = [], []
    installers = [layers.install_kernels, layers.install_csidh,
                  lambda r: layers.install_field(r, SimulatedFieldContext)]
    cache = common.fresh_cache_dir()
    try:
        registry.cached_kernels.cache_clear()
        with layers.installed(rec, installers):
            with telemetry.capture() as cap:
                params, contexts = setup()
            captures.append(cap)
            for variant in layers.VARIANTS:
                with telemetry.capture() as cap:
                    actions.append(act(params, contexts[variant],
                                       exponents, sampling))
                captures.append(cap)
                if variant == "reduced.ise":
                    phases = layers.phase_cycles(cap.root)
    finally:
        common.remove_dir(cache)
    table, _, cells, failed, checked = w_table4.measure(seed, samples=1)
    failed += sum(not check(a, expected, counts, table.cycles)
                  for a in actions + [reference])
    traced_ref = next(a for a in actions if a["variant"] == "reduced.ise")
    metrics = {
        "trace_overhead_pct":
            100.0 * (traced_ref["seconds"] / reference["seconds"] - 1),
        "rv64.sim_mips":
            reference["instructions"] / reference["seconds"] / 1e6,
    }
    metrics.update(phases)
    metrics.update(cycle_metrics(actions, table.cycles))
    metrics.update(w_table4.table_metrics(table, cells))
    metrics.update(layers.csidh_metrics(rec.spans, 1, rec.rolled_overhead))
    metrics.update(layers.field_metrics(rec.spans, rec.rolled_overhead))
    metrics.update(layers.kernel_metrics(rec.spans))
    metrics.update(layers.telemetry_metrics(captures))
    return common.Outcome(attempted=checked + len(actions) + 1,
                          failed=failed, metrics=metrics, recorder=rec)
