"""table4-512: all 32 Table-4 cells on the interpreter + Rocket model.

Each sample is one ``measure_table4(p512, engine="interpreter",
verify_samples=K)`` call with the memoised kernel set dropped first, so
kernel generation, assembly and the interpreter all run again.  The aot tier, field
dispatch and the protocol are bypassed.  Oracle: every verification
sample equals ``kernel.reference`` and all samples of a cell report the
same cycle count (straight-line kernels are input-independent).
"""

from __future__ import annotations

import random
import time

import common
import layers
from spans import Recorder

#: Verification samples per cell: one measure_table4 call takes ~0.5 s.
VERIFY_SAMPLES = 4

#: Samples of a traced run: untraced and traced calls alternate.
TRACE_PAIRS = 3


def measure(seed: int, samples: int = VERIFY_SAMPLES):
    """Time one ``measure_table4`` call and keep every kernel run for
    the oracle.  Returns ``(table, seconds, cells, failed, checked)``
    where *cells* maps ``"<op>.<variant>"`` to ``(runs, raw_stalls,
    flush_cycles)`` of its last interpreter run."""
    from repro.csidh.parameters import csidh_512
    from repro.eval import table4
    from repro.kernels.runner import KernelRunner

    captured = []
    run_batch = KernelRunner.run_batch

    def keep(runner, operand_sets, **kwargs):
        runs = run_batch(runner, operand_sets, **kwargs)
        stats = runner.machine.pipeline.stats
        captured.append((runner.kernel, operand_sets, runs,
                         stats.raw_hazard_stalls,
                         stats.control_flush_cycles))
        return runs

    KernelRunner.run_batch = keep
    try:
        start = time.perf_counter()
        table = table4.measure_table4(
            csidh_512().p, engine="interpreter", verify_samples=samples,
            seed=seed)
        seconds = time.perf_counter() - start
    finally:
        KernelRunner.run_batch = run_batch
    cells, failed, checked = {}, 0, 0
    for kernel, operand_sets, runs, stalls, flush in captured:
        cell = table.cycles[kernel.operation][kernel.variant]
        for operands, run in zip(operand_sets, runs):
            checked += 1
            if (run.value != kernel.reference(*operands)
                    or run.cycles != cell):
                failed += 1
        cells[kernel.name] = (runs, stalls, flush)
    return table, seconds, cells, failed, checked


def table_metrics(table, cells) -> dict:
    """kernels.cycles.*, eval.table4_mape_pct and the residual rows'
    stall split."""
    from repro.eval.paperdata import PAPER_TABLE4

    out = {}
    errors = []
    for op, row in table.cycles.items():
        for variant, cycles in row.items():
            out[f"kernels.cycles.{op}.{variant}"] = cycles
            paper = PAPER_TABLE4[op][variant]
            errors.append(abs(cycles - paper) / paper)
    out["eval.table4_mape_pct"] = 100.0 * sum(errors) / len(errors)
    for op in layers.STALL_ROWS:
        for variant in layers.VARIANTS:
            _, stalls, flush = cells[f"{op}.{variant}"]
            out[f"rv64.raw_stalls.{op}.{variant}"] = stalls
            out[f"rv64.flush_cycles.{op}.{variant}"] = flush
    return out


def sample_seed(seed: int, index: int) -> int:
    return random.Random(f"table4-512/{seed}/{index}").getrandbits(32)


def setup():
    """Everything before the first timed call: importing the program."""
    import repro.eval.table4  # noqa: F401


def probe() -> float:
    setup()
    return time.time()


def sample(seed: int, index: int, rec: Recorder | None = None):
    """One cold ``measure_table4``: the memoised kernel set is dropped
    first, so generation and assembly run again; traced when *rec*."""
    from repro import telemetry
    from repro.kernels import registry

    registry.cached_kernels.cache_clear()
    if rec is None:
        return measure(sample_seed(seed, index)) + (None,)
    with layers.installed(rec, [layers.install_kernels]):
        with telemetry.capture() as cap:
            return measure(sample_seed(seed, index)) + (cap,)


def run(seed: int, seconds: float, trace: bool) -> common.Outcome:
    setup()
    samples = []
    if trace:
        traced = []
        for index in range(TRACE_PAIRS):
            samples.append(sample(seed, 2 * index))
            rec = Recorder()
            traced.append(sample(seed, 2 * index + 1, rec) + (rec,))
        table, seconds_, cells, _, _, cap, rec = traced[-1]
        plain_s = common.median([s[1] for s in samples])
        traced_s = common.median([s[1] for s in traced])
        instructions = sum(run.instructions for runs, _, _ in cells.values()
                           for run in runs)
        metrics = table_metrics(table, cells)
        metrics.update(layers.kernel_metrics(rec.spans))
        metrics.update(layers.telemetry_metrics([cap]))
        metrics["rv64.sim_mips"] = instructions / seconds_ / 1e6
        metrics["trace_overhead_pct"] = 100.0 * (traced_s / plain_s - 1)
        everything = samples + [t[:6] for t in traced]
        return common.Outcome(
            attempted=sum(s[4] for s in everything),
            failed=sum(s[3] for s in everything), metrics=metrics,
            recorder=rec)
    probes = common.SetupProbes("table4-512")
    speed = common.HostSpeed()
    spent = last = 0.0
    while common.within_budget(spent, seconds, last, len(samples)):
        samples.append(sample(seed, len(samples)))
        last = samples[-1][1]
        spent += last
        probes.catch_up(spent / seconds)
        speed.catch_up(spent)
    attempted = sum(s[4] for s in samples)
    failed = sum(s[3] for s in samples)
    metrics = {
        # every call does the same work, so the fastest is its cost
        "unit_s": speed.scaled(min(s[1] for s in samples)),
        "success_rate": 1.0 - failed / attempted,
        "peak_rss_mb": common.peak_rss_mb(),
        "setup_s": probes.median(),
    }
    return common.Outcome(attempted=attempted, failed=failed,
                          metrics=metrics)
