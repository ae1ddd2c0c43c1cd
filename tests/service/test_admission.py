"""Hypothesis properties: admission bounds and coalescing integrity.

Two promises hold under *any* arrival order and batch-size knob:

* the :class:`RequestCoalescer` never drops or duplicates a request —
  every submission resolves exactly once with exactly its own value,
  the executor sees each operand set exactly once, and no batch
  exceeds ``max_batch``;
* the :class:`AdmissionController` never lets a tenant exceed
  ``capacity``, never under-counts a release, and every rejection is
  an :class:`AdmissionError` carrying the stable wire code
  ``"admission"``.
"""

from __future__ import annotations

import asyncio

import pytest
from hypothesis import given, strategies as st

from repro.csidh.parameters import csidh_toy
from repro.errors import AdmissionError, ReproError, ServiceError
from repro.service import (
    AdmissionController,
    KeyExchangeService,
    RequestCoalescer,
    TenantConfig,
)

OPS = ("mul", "add")


def _apply(op: str, a: int, b: int) -> int:
    return a * b if op == "mul" else a + b


requests_strategy = st.lists(
    st.tuples(st.sampled_from(OPS),
              st.integers(0, 10_000), st.integers(0, 10_000)),
    min_size=1, max_size=50,
)


class TestCoalescerNeverDropsOrDuplicates:
    @given(requests=requests_strategy, max_batch=st.integers(1, 8))
    def test_every_request_resolves_exactly_once(self, requests,
                                                 max_batch):
        executed: list[tuple[str, list[tuple]]] = []

        async def execute(op: str, operand_sets):
            executed.append((op, list(operand_sets)))
            return [_apply(op, a, b) for a, b in operand_sets]

        async def main():
            coalescer = RequestCoalescer(
                execute, max_batch=max_batch, max_wait_s=0.0)
            results = await asyncio.gather(*(
                coalescer.submit(op, (a, b))
                for op, a, b in requests))
            await coalescer.drain()
            assert coalescer.pending == 0
            return results

        results = asyncio.run(main())
        # exactly once, with exactly its own value
        assert results == [_apply(op, a, b) for op, a, b in requests]
        # the executor saw each request exactly once ...
        total_executed = sum(len(sets) for _, sets in executed)
        assert total_executed == len(requests)
        # ... in op-homogeneous batches within the size bound
        for op, operand_sets in executed:
            assert 1 <= len(operand_sets) <= max_batch
        for op in OPS:
            submitted = sorted((a, b) for o, a, b in requests
                               if o == op)
            ran = sorted(pair for o, sets in executed if o == op
                         for pair in sets)
            assert ran == submitted

    @given(requests=st.lists(st.integers(0, 100), min_size=2,
                             max_size=30))
    def test_failed_batch_poisons_only_its_own_requests(self,
                                                        requests):
        """An executor exception reaches exactly the futures of the
        failing batch; later submissions still succeed."""

        async def execute(op: str, operand_sets):
            if any(a == 13 for a, in operand_sets):
                raise ServiceError("unlucky batch")
            return [a + 1 for a, in operand_sets]

        async def main():
            coalescer = RequestCoalescer(execute, max_batch=4,
                                         max_wait_s=0.0)
            outcomes = await asyncio.gather(
                *(coalescer.submit("inc", (a,)) for a in requests),
                return_exceptions=True)
            await coalescer.drain()
            # a fresh, clean submission after the failures still works
            assert await coalescer.submit("inc", (1,)) == 2
            return outcomes

        outcomes = asyncio.run(main())
        assert len(outcomes) == len(requests)
        for value, outcome in zip(requests, outcomes):
            if isinstance(outcome, Exception):
                assert isinstance(outcome, ServiceError)
            else:
                assert outcome == value + 1
        # every request containing 13 must have failed
        for value, outcome in zip(requests, outcomes):
            if value == 13:
                assert isinstance(outcome, ServiceError)


class TestAdmissionBounds:
    @given(capacity=st.integers(1, 6),
           actions=st.lists(st.booleans(), max_size=60))
    def test_inflight_never_exceeds_capacity(self, capacity, actions):
        """Random admit(True)/release(False) walks: the inflight count
        tracks held tickets exactly and saturating admits reject."""
        controller = AdmissionController()
        controller.configure("t", capacity)
        held = []
        for is_admit in actions:
            if is_admit:
                if len(held) < capacity:
                    held.append(controller.admit("t"))
                else:
                    with pytest.raises(AdmissionError) as excinfo:
                        controller.admit("t")
                    assert excinfo.value.code == "admission"
            elif held:
                held.pop().release()
            assert controller.inflight("t") == len(held)
            assert controller.inflight("t") <= capacity
        for ticket in held:
            ticket.release()
        assert controller.inflight("t") == 0
        # the drained controller admits again
        controller.admit("t").release()

    def test_ticket_release_is_idempotent(self):
        controller = AdmissionController()
        controller.configure("t", 2)
        ticket = controller.admit("t")
        ticket.release()
        ticket.release()  # no double-decrement
        assert controller.inflight("t") == 0
        with controller.admit("t"):
            assert controller.inflight("t") == 1
        assert controller.inflight("t") == 0

    def test_release_without_admit_is_an_error(self):
        controller = AdmissionController()
        controller.configure("t", 1)
        with pytest.raises(ServiceError):
            controller._release("t")

    def test_unknown_tenant_is_service_error_not_admission(self):
        controller = AdmissionController()
        with pytest.raises(ServiceError) as excinfo:
            controller.admit("ghost")
        assert not isinstance(excinfo.value, AdmissionError)


class TestRejectionCodeStability:
    def test_admission_error_code_is_stable_and_in_hierarchy(self):
        error = AdmissionError("full")
        assert error.code == "admission"
        assert isinstance(error, ServiceError)
        assert isinstance(error, ReproError)

    def test_saturated_service_rejects_with_admission_code(self):
        """End to end: flooding a capacity-1 tenant rejects the
        overflow with the stable code; the admitted request succeeds
        with the right value."""
        toy = csidh_toy()

        async def main():
            config = TenantConfig("t", engine="aot", lanes=1,
                                  max_queue=0)
            async with KeyExchangeService(toy, [config]) as service:
                # tasks admit in creation order before any completes,
                # so exactly one fits the capacity-1 tenant
                outcomes = await asyncio.gather(
                    *(service.field_op("t", "mul", [3, n])
                      for n in range(5)),
                    return_exceptions=True)
            return outcomes

        outcomes = asyncio.run(main())
        successes = [o for o in outcomes
                     if not isinstance(o, Exception)]
        rejections = [o for o in outcomes
                      if isinstance(o, Exception)]
        assert len(successes) == 1
        assert successes[0] == 0  # 3 * 0
        assert len(rejections) == 4
        for rejection in rejections:
            assert isinstance(rejection, AdmissionError)
            assert rejection.code == "admission"
