"""Armed faults with sessions in flight: zero escapes, one-tenant blast.

The hardened service promises (``docs/SERVICE.md``, building on
``docs/ROBUSTNESS.md``): a poisoned trace re-fused into the aot tier
under concurrent load is *detected* by the checked contexts,
*recovered* within the bounded retry budget, demotes **only** the
faulted tenant down the engine ladder, and never lets a wrong result
reach any client — ``divergences == 0`` against the sequential
pure-Python oracle is the definition of "no escape".
"""

from __future__ import annotations

import asyncio

import pytest

from repro.csidh.parameters import csidh_toy
from repro.fault import arm_fault
from repro.fault.plan import FaultSite
from repro.service import (
    KeyExchangeService,
    TenantConfig,
    expected_handshakes,
    run_load,
)

EXCHANGES = 4


@pytest.fixture(scope="module")
def toy():
    return csidh_toy()


@pytest.fixture(scope="module")
def oracle(toy):
    return expected_handshakes(toy, EXCHANGES, seed=0)


def _hardened_pair(engine: str) -> list[TenantConfig]:
    return [
        TenantConfig("victim", engine=engine, hardened=True, lanes=1,
                     check_interval=1, max_queue=32),
        TenantConfig("bystander", engine=engine, hardened=True,
                     lanes=1, check_interval=1, max_queue=32),
    ]


def _poison_site(site: str) -> FaultSite:
    # steps chosen to actually perturb the toy fp_mul kernel (dead
    # trace steps exist — see tests/test_fault_campaign.py)
    step = {"replay_closure_corrupt": 5, "replay_step_skip": 2}[site]
    return FaultSite(index=0, site=site, operation="mul", step=step,
                     bit=13, lane=3, delta=1)


async def _load_with_fault(toy, oracle, *, engine: str,
                           site_name: str):
    """Arm a persistent poison on the victim tenant's mul runner, then
    drive concurrent handshakes over both tenants."""
    service = KeyExchangeService(toy, _hardened_pair(engine))
    victim_lane = service.tenants["victim"].lanes[0]
    context = victim_lane.context(engine)
    context.mul(3, 5)  # build the runner (and its entry thunk)
    armed = arm_fault(context._mul, _poison_site(site_name))
    try:
        report = await run_load(
            toy, exchanges=EXCHANGES, concurrency=EXCHANGES,
            engine=engine, hardened=True, seed=0,
            service=service, oracle=oracle,
        )
    finally:
        armed.disarm()
    stats = service.stats()
    await service.aclose()
    return report, stats, context


class TestReplayPoisonUnderLoad:
    """The ``replay_*`` trace sites, re-fused into the served aot tier."""

    def test_zero_escapes_and_bounded_recovery(self, toy, oracle):
        report, stats, context = asyncio.run(_load_with_fault(
            toy, oracle, engine="aot",
            site_name="replay_closure_corrupt"))
        # nothing wrong ever left the service
        assert report.divergences == 0
        # the poison fired and was caught ...
        assert report.fault_detections >= 1
        # ... and every detection was recovered within the budget
        assert context.fault_recoveries == context.fault_detections

    def test_only_the_faulted_tenant_degrades(self, toy, oracle):
        report, stats, _ = asyncio.run(_load_with_fault(
            toy, oracle, engine="aot",
            site_name="replay_closure_corrupt"))
        assert report.divergences == 0
        assert stats["tenants"]["victim"]["demotions"] >= 1
        assert stats["tenants"]["victim"]["engine"] == "interpreter"
        assert stats["tenants"]["bystander"]["demotions"] == 0
        assert stats["tenants"]["bystander"]["engine"] == "aot"
        assert stats["tenants"]["bystander"]["fault_detections"] == 0

    def test_step_skip_zero_escapes(self, toy, oracle):
        report, stats, context = asyncio.run(_load_with_fault(
            toy, oracle, engine="aot", site_name="replay_step_skip"))
        assert report.divergences == 0
        assert report.fault_detections >= 1
        assert context.fault_recoveries == context.fault_detections
        assert stats["tenants"]["victim"]["demotions"] >= 1
        assert stats["tenants"]["bystander"]["demotions"] == 0


class TestOverloadDemotion:
    def test_saturation_never_demotes(self, toy):
        """A saturated tenant stays on aot: the only rung below is the
        slower interpreter, which would deepen the backlog — admission
        control bounds load instead.  Results stay correct."""

        async def main():
            config = TenantConfig("t", engine="aot", lanes=1,
                                  max_queue=64)
            async with KeyExchangeService(toy, [config]) as service:
                results = await asyncio.gather(*(
                    service.field_op("t", "mul", [7, n])
                    for n in range(24)))
                tenant = service.tenants["t"]
                return results, tenant.engine, tenant.demotions

        results, engine, demotions = asyncio.run(main())
        assert results == [(7 * n) % toy.p for n in range(24)]
        assert demotions == 0
        assert engine == "aot"

    def test_clean_streak_promotes_back_to_preference(self, toy):
        """After ``promote_after`` consecutive clean operations the
        tenant climbs back toward its preferred engine."""

        async def main():
            config = TenantConfig("t", engine="aot", lanes=1,
                                  max_queue=64, promote_after=5)
            async with KeyExchangeService(toy, [config]) as service:
                tenant = service.tenants["t"]
                assert tenant.demote("fault")  # push to interpreter
                assert tenant.engine == "interpreter"
                for n in range(6):
                    await service.field_op("t", "add", [n, n])
                return tenant.engine, tenant.promotions

        engine, promotions = asyncio.run(main())
        assert engine == "aot"
        assert promotions == 1
