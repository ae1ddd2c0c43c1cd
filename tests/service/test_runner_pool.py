"""Regression tests: the runner pool under concurrent hammering.

The pool (:mod:`repro.kernels.registry`) promises: one live
:class:`KernelRunner` per key no matter how many threads race the
build; ``scope`` partitions machines between concurrent executors;
evictions and scoped clears never corrupt the bookkeeping; pool
telemetry counts stay exact.  These tests drive all of it from many
threads (and asyncio tasks hopping threads via ``to_thread``) — before
the pool lock landed, every one of them was a coin-flip.
"""

from __future__ import annotations

import asyncio
import threading
from concurrent.futures import ThreadPoolExecutor

from repro import telemetry
from repro.csidh.parameters import csidh_toy
from repro.kernels.registry import (
    cached_runner,
    clear_runner_pool,
    evict_runner,
)

KERNEL = "fp_mul.reduced.ise"
THREADS = 12
ROUNDS = 40


def _toy_p() -> int:
    return csidh_toy().p


class TestSingleInstancePerKey:
    def test_racing_lookups_converge_on_one_runner(self):
        """THREADS x ROUNDS concurrent lookups of one key yield exactly
        one object (the build race has one winner, losers adopt it)."""
        p = _toy_p()
        scope = "pooltest/single"
        clear_runner_pool(scope)
        barrier = threading.Barrier(THREADS)
        seen: list[int] = []

        def hammer() -> None:
            barrier.wait()
            for _ in range(ROUNDS):
                runner = cached_runner(p, KERNEL, engine="aot",
                                       scope=scope)
                seen.append(id(runner))

        with ThreadPoolExecutor(THREADS) as pool:
            futures = [pool.submit(hammer) for _ in range(THREADS)]
            for future in futures:
                future.result()
        assert len(seen) == THREADS * ROUNDS
        assert len(set(seen)) == 1
        clear_runner_pool(scope)

    def test_asyncio_tasks_share_the_same_pool(self):
        """Tasks dispatched through ``asyncio.to_thread`` observe the
        same single pooled object as raw threads."""
        p = _toy_p()
        scope = "pooltest/tasks"
        clear_runner_pool(scope)

        async def main() -> set[int]:
            jobs = [
                asyncio.to_thread(
                    cached_runner, p, KERNEL, engine="aot",
                    scope=scope)
                for _ in range(THREADS * 2)
            ]
            runners = await asyncio.gather(*jobs)
            return {id(r) for r in runners}

        assert len(asyncio.run(main())) == 1
        clear_runner_pool(scope)


class TestScopePartitioning:
    def test_distinct_scopes_get_distinct_machines(self):
        p = _toy_p()
        scopes = [f"pooltest/lane{i}" for i in range(6)]
        for scope in scopes:
            clear_runner_pool(scope)
        runners = {
            scope: cached_runner(p, KERNEL, engine="aot",
                                 scope=scope)
            for scope in scopes
        }
        assert len({id(r) for r in runners.values()}) == len(scopes)
        machines = {id(r.machine) for r in runners.values()}
        assert len(machines) == len(scopes)
        for scope in scopes:
            clear_runner_pool(scope)

    def test_scoped_clear_leaves_other_scopes_pooled(self):
        p = _toy_p()
        clear_runner_pool("pooltest/a")
        clear_runner_pool("pooltest/b")
        runner_a = cached_runner(p, KERNEL, engine="aot",
                                 scope="pooltest/a")
        runner_b = cached_runner(p, KERNEL, engine="aot",
                                 scope="pooltest/b")
        clear_runner_pool("pooltest/a")
        # b survived the scoped clear; a rebuilds fresh
        assert cached_runner(p, KERNEL, engine="aot",
                             scope="pooltest/b") is runner_b
        rebuilt = cached_runner(p, KERNEL, engine="aot",
                                scope="pooltest/a")
        assert rebuilt is not runner_a
        clear_runner_pool("pooltest/a")
        clear_runner_pool("pooltest/b")


class TestEvictionStorm:
    def test_concurrent_evict_and_lookup_stay_consistent(self):
        """Interleaved evictions and lookups never crash and always
        end with a usable runner (correct product on toy operands)."""
        p = _toy_p()
        scope = "pooltest/storm"
        clear_runner_pool(scope)
        barrier = threading.Barrier(THREADS)

        def churn(index: int) -> None:
            barrier.wait()
            for round_no in range(ROUNDS):
                cached_runner(p, KERNEL, engine="aot", scope=scope)
                if (index + round_no) % 3 == 0:
                    evict_runner(p, KERNEL, engine="aot",
                                 scope=scope)

        with ThreadPoolExecutor(THREADS) as pool:
            futures = [pool.submit(churn, i) for i in range(THREADS)]
            for future in futures:
                future.result()

        survivor = cached_runner(p, KERNEL, engine="aot",
                                 scope=scope)
        first = survivor.run(3, 5, check=False)
        again = survivor.run(3, 5, check=False)
        assert first == again
        clear_runner_pool(scope)

    def test_evict_returns_whether_pooled(self):
        p = _toy_p()
        scope = "pooltest/evict"
        clear_runner_pool(scope)
        assert not evict_runner(p, KERNEL, engine="aot",
                                scope=scope)
        cached_runner(p, KERNEL, engine="aot", scope=scope)
        assert evict_runner(p, KERNEL, engine="aot", scope=scope)
        assert not evict_runner(p, KERNEL, engine="aot",
                                scope=scope)


class TestPoolTelemetryExactness:
    def test_hits_and_misses_sum_exactly_under_threads(self):
        """Every lookup is counted exactly once even when all counting
        races: hits + misses == lookups, misses == builds (1)."""
        p = _toy_p()
        scope = "pooltest/counts"
        clear_runner_pool(scope)
        lookups = THREADS * ROUNDS
        barrier = threading.Barrier(THREADS)

        def hammer() -> None:
            barrier.wait()
            for _ in range(ROUNDS):
                cached_runner(p, KERNEL, engine="aot", scope=scope)

        with telemetry.capture(fresh=True) as cap:
            with ThreadPoolExecutor(THREADS) as pool:
                futures = [pool.submit(hammer)
                           for _ in range(THREADS)]
                for future in futures:
                    future.result()
        hits = cap.registry.counter("runner_pool_hits_total").total()
        misses = cap.registry.counter(
            "runner_pool_misses_total").total()
        assert misses == 1
        assert hits + misses == lookups
        clear_runner_pool(scope)
