"""Speedup and overhead guards for the sharded execution subsystem.

The acceptance contract of the sharding PR:

* on a multi-core host, a 2-worker sharded toy run beats the same
  backlog on a single worker by at least **1.3x** (the point of the
  subsystem is wall-clock, so the parallel win must be real, not just
  theoretical) — skipped on single-core containers where no parallel
  speedup is physically available;
* the sharded machinery itself stays cheap: executing the whole toy
  stream as **one shard in-process** costs < **1.5x** the monolithic
  aot group action (the difference is the per-op reference check and
  span bucketing — bounded, not multiplicative).

The engine speedup floors live in ``benchmarks/test_aot_overhead.py``.
"""

from __future__ import annotations

import os
import random
import time

import pytest

from repro.csidh.group_action import group_action
from repro.csidh.parameters import csidh_toy
from repro.field.simulated import SimulatedFieldContext
from repro.shard.plan import build_plan
from repro.shard.scheduler import ShardExecutor, ShardRunStats
from repro.shard.worker import ShardRunner

def _run_executor(plan, workers: int) -> float:
    executor = ShardExecutor(plan, workers=workers)
    stats = ShardRunStats()
    start = time.perf_counter()
    records = executor.run(stats=stats)
    elapsed = time.perf_counter() - start
    assert len(records) == plan.shards
    return elapsed


@pytest.mark.skipif((os.cpu_count() or 1) < 2,
                    reason="parallel speedup needs >= 2 cores")
def test_two_workers_at_least_1_3x_over_one():
    """Two worker processes finish the toy backlog at least 1.3x
    faster than one — the subsystem's reason to exist."""
    plan, _ = build_plan("toy", shards=6, seed=3)
    _run_executor(plan, 1)          # warm fork/kernel/aot caches
    _run_executor(plan, 2)
    # interleave the two measurements so a load spike hits both sides
    single = dual = float("inf")
    for _ in range(3):
        single = min(single, _run_executor(plan, 1))
        dual = min(dual, _run_executor(plan, 2))
    ratio = single / dual
    print(f"\n=== toy x6 shards: 1 worker {single*1e3:.1f} ms, "
          f"2 workers {dual*1e3:.1f} ms ({ratio:.2f}x) ===")
    assert ratio > 1.3


def test_single_shard_overhead_under_1_5x_of_monolithic():
    """The whole toy stream as one in-process shard (simulate + verify
    each op against the pure-Python reference + bucket per-span) costs
    < 1.5x the plain monolithic aot action.

    Both sides run the *same* group action — the monolithic leg uses
    the plan's seed discipline (sampled private key), not the fixed
    benchmark exponents, so the op streams are identical.
    """
    params = csidh_toy()
    plan, stream = build_plan("toy", shards=1, seed=3)

    def _run_mono() -> float:
        rng = random.Random(plan.seed)
        exponents = params.sample_private_key(rng)
        field = SimulatedFieldContext(params.p, engine="aot")
        start = time.perf_counter()
        group_action(params, field, 0, exponents, rng)
        return time.perf_counter() - start

    def _run_shard() -> float:
        runner = ShardRunner(plan, engine="aot", stream=stream)
        start = time.perf_counter()
        record = runner.execute(0)
        elapsed = time.perf_counter() - start
        assert record["divergences"] == 0
        return elapsed

    _run_mono()                     # warm pools + aot caches
    _run_shard()
    # interleave the two measurements so a load spike hits both sides
    mono = shard = float("inf")
    for _ in range(4):
        mono = min(mono, _run_mono())
        shard = min(shard, _run_shard())
    ratio = shard / mono
    print(f"\n=== toy action: monolithic aot {mono*1e3:.1f} ms, "
          f"single shard {shard*1e3:.1f} ms ({ratio:.2f}x) ===")
    assert ratio < 1.5
