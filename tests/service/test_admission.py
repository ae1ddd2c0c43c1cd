"""Hypothesis properties: admission bounds and coalescing integrity.

Two promises hold under *any* arrival order:

* the :class:`RequestCoalescer` never drops or duplicates a request —
  every submission resolves exactly once with exactly its own value,
  the executor sees each operand set exactly once, and the requests
  submitted in one event-loop turn make exactly one batch per
  operation (a submission after ``await asyncio.sleep(0)`` lands in a
  later batch);
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


#: Requests grouped by the event-loop turn they are submitted in.
turns_strategy = st.lists(
    st.lists(st.tuples(st.sampled_from(OPS),
                       st.integers(0, 10_000), st.integers(0, 10_000)),
             min_size=1, max_size=12),
    min_size=1, max_size=5,
)


async def _submit_by_turn(coalescer, turns):
    """Submit each turn's requests in one loop turn, yielding once
    between turns; returns the outcomes in submission order."""
    tasks = []
    for turn in turns:
        tasks += [asyncio.ensure_future(coalescer.submit(op, operands))
                  for op, *operands in turn]
        await asyncio.sleep(0)
    outcomes = await asyncio.gather(*tasks, return_exceptions=True)
    await coalescer.drain()
    assert coalescer.pending == 0
    return outcomes


class TestCoalescerNeverDropsOrDuplicates:
    @given(turns=turns_strategy)
    def test_every_request_resolves_exactly_once(self, turns):
        executed: list[tuple[str, list[tuple]]] = []

        async def execute(op: str, operand_sets):
            executed.append((op, list(operand_sets)))
            return [_apply(op, a, b) for a, b in operand_sets]

        results = asyncio.run(
            _submit_by_turn(RequestCoalescer(execute), turns))
        # exactly once, with exactly its own value
        assert results == [_apply(op, a, b)
                           for turn in turns for op, a, b in turn]
        # one batch per op per turn, holding exactly that turn's
        # requests for the op, in submission order
        expected = [(op, [(a, b) for o, a, b in turn if o == op])
                    for turn in turns for op in OPS
                    if any(o == op for o, _, _ in turn)]
        assert sorted(executed) == sorted(expected)

    @given(turns=st.lists(st.lists(st.integers(0, 20), min_size=1,
                                   max_size=8),
                          min_size=2, max_size=5))
    def test_failed_batch_poisons_only_its_own_requests(self, turns):
        """An executor exception reaches exactly the futures of the
        failing batch — the turn that submitted a 13 — while the other
        turns' batches succeed, and so does a later submission."""

        async def execute(op: str, operand_sets):
            if any(a == 13 for a, in operand_sets):
                raise ServiceError("unlucky batch")
            return [a + 1 for a, in operand_sets]

        async def main():
            coalescer = RequestCoalescer(execute)
            outcomes = await _submit_by_turn(
                coalescer, [[("inc", a) for a in turn]
                            for turn in turns])
            # a fresh, clean submission after the failures still works
            assert await coalescer.submit("inc", (1,)) == 2
            return outcomes

        outcomes = iter(asyncio.run(main()))
        for turn in turns:
            for value, outcome in zip(turn, outcomes):
                if 13 in turn:
                    assert isinstance(outcome, ServiceError)
                else:
                    assert outcome == value + 1


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
