"""Concurrent sessions are bit-identical to sequential execution.

The service's whole value proposition is *safe* concurrency: N
exchanges in flight across tenants and lanes must produce exactly the
public keys and shared secrets the sequential pure-Python reference
produces — on every execution engine — and the process-global
telemetry counters must account for every kernel run exactly (a lost
update under the old unlocked counters showed up here first).
"""

from __future__ import annotations

import asyncio
import random
import threading

import pytest

from repro import telemetry
from repro.csidh.parameters import csidh_toy
from repro.rv64.machine import ENGINES
from repro.service import (
    KeyExchangeService,
    TenantConfig,
    default_tenant_configs,
    expected_handshakes,
    run_load,
)

EXCHANGES = 6


@pytest.fixture(scope="module")
def toy():
    return csidh_toy()


@pytest.fixture(scope="module")
def oracle(toy):
    """Sequential pure-Python reference for the shared session seeds."""
    return expected_handshakes(toy, EXCHANGES, seed=0)


class TestConcurrentEqualsSequential:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_concurrent_exchanges_match_reference(self, toy, oracle,
                                                  engine):
        """Fully concurrent handshakes across 2 tenants x 2 lanes are
        bit-identical to the sequential oracle on each engine."""
        report = asyncio.run(run_load(
            toy, exchanges=EXCHANGES, concurrency=EXCHANGES,
            tenants=2, lanes=2, engine=engine, seed=0,
            oracle=oracle,
        ))
        assert report.divergences == 0
        assert report.requests == 4 * EXCHANGES

    def test_hardened_concurrent_exchanges_match_reference(self, toy,
                                                           oracle):
        """Checked contexts + output validation stay on under
        concurrency and still agree with the reference."""
        report = asyncio.run(run_load(
            toy, exchanges=4, concurrency=4, tenants=2, lanes=1,
            engine="aot", hardened=True, seed=0, oracle=oracle,
        ))
        assert report.divergences == 0
        assert report.fault_detections == 0

    def test_single_lane_tenant_serialises_but_stays_correct(self,
                                                             toy,
                                                             oracle):
        """One tenant, one lane, many concurrent sessions: the lane
        queue serialises access to the machine, results still match."""
        report = asyncio.run(run_load(
            toy, exchanges=4, concurrency=4, tenants=1, lanes=1,
            engine="aot", seed=0, oracle=oracle,
        ))
        assert report.divergences == 0


class TestCounterExactness:
    def test_kernel_run_counters_sum_exactly_under_service_load(
            self, toy):
        """Each scalar service ``mul`` is exactly two fp_mul kernel
        runs (Montgomery conversion + product); K concurrent coalesced
        requests must account for exactly 2K runs — and the cycle and
        instruction totals must equal a sequential rerun of the same
        multiset (the kernels are constant-time, so totals are
        deterministic)."""
        rng = random.Random(9)
        ops = [(rng.randrange(toy.p), rng.randrange(toy.p))
               for _ in range(48)]

        async def drive(service: KeyExchangeService):
            async with service:
                # warm outside the capture: trace compilation noise
                # (and its machine runs) stays out of the books
                await service.field_op("t0", "mul", [3, 5])
                await service.field_op("t1", "mul", [3, 5])
                with telemetry.capture(fresh=True) as cap:
                    results = await asyncio.gather(*(
                        service.field_op(f"t{i % 2}", "mul", [a, b])
                        for i, (a, b) in enumerate(ops)))
                    await service.drain()
                return cap, results

        configs = [
            TenantConfig("t0", engine="aot", lanes=2, max_queue=64),
            TenantConfig("t1", engine="aot", lanes=2, max_queue=64),
        ]
        cap, results = asyncio.run(
            drive(KeyExchangeService(toy, configs)))
        assert results == [(a * b) % toy.p for a, b in ops]

        runs = cap.registry.counter("kernel_runs_total")
        assert runs.total() == 2 * len(ops)
        concurrent_cycles = cap.registry.counter(
            "kernel_cycles_total").total()
        concurrent_instructions = cap.registry.counter(
            "kernel_instructions_total").total()

        # sequential rerun of the same multiset on a fresh service
        async def sequential(service: KeyExchangeService):
            async with service:
                await service.field_op("t0", "mul", [3, 5])
                await service.field_op("t1", "mul", [3, 5])
                with telemetry.capture(fresh=True) as cap:
                    for i, (a, b) in enumerate(ops):
                        await service.field_op(
                            f"t{i % 2}", "mul", [a, b])
                    await service.drain()
                return cap

        configs = [
            TenantConfig("t0", engine="aot", lanes=2, max_queue=64),
            TenantConfig("t1", engine="aot", lanes=2, max_queue=64),
        ]
        seq_cap = asyncio.run(sequential(KeyExchangeService(toy, configs)))
        assert seq_cap.registry.counter(
            "kernel_runs_total").total() == 2 * len(ops)
        assert seq_cap.registry.counter(
            "kernel_cycles_total").total() == concurrent_cycles
        assert seq_cap.registry.counter(
            "kernel_instructions_total").total() \
            == concurrent_instructions

    def test_no_lost_updates_hammering_record_kernel_run(self):
        """The raw counter path itself: 8 threads x 500 increments
        must sum to exactly 4000 runs (pre-lock this dropped counts)."""
        threads, each = 8, 500
        barrier = threading.Barrier(threads)

        def hammer() -> None:
            barrier.wait()
            for _ in range(each):
                telemetry.record_kernel_run(
                    "hammer_kernel", "aot", 7, 3)

        with telemetry.capture(fresh=True) as cap:
            workers = [threading.Thread(target=hammer)
                       for _ in range(threads)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join()
        runs = cap.registry.counter("kernel_runs_total")
        assert runs.value(kernel="hammer_kernel",
                          engine="aot") == threads * each
        cycles = cap.registry.counter("kernel_cycles_total")
        assert cycles.value(kernel="hammer_kernel") \
            == 7 * threads * each
        instructions = cap.registry.counter(
            "kernel_instructions_total")
        assert instructions.value(kernel="hammer_kernel") \
            == 3 * threads * each


class TestTenantIsolation:
    def test_concurrent_tenants_never_share_runner_machines(self, toy):
        """After a concurrent run, every lane's pooled runners are
        distinct objects from every other lane's (scope partitioning
        end-to-end)."""

        async def drive():
            service = KeyExchangeService(
                toy, default_tenant_configs(
                    2, engine="aot", lanes=2, max_queue=32))
            async with service:
                await asyncio.gather(*(
                    service.field_op(f"tenant-{i % 2}", "mul",
                                     [i + 2, i + 3])
                    for i in range(8)))
                await service.drain()
                machines = set()
                lanes_with_contexts = 0
                for tenant in service.tenants.values():
                    for lane in tenant.lanes:
                        for ctx in lane._contexts.values():
                            lanes_with_contexts += 1
                            machine_id = id(ctx._mul.machine)
                            assert machine_id not in machines
                            machines.add(machine_id)
                assert lanes_with_contexts >= 2

        asyncio.run(drive())
