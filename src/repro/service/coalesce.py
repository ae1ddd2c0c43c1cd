"""Request coalescing: many sessions' field ops -> one executor hop.

Under concurrent load, many sessions issue the same field operation
in the same event-loop turn.  The :class:`RequestCoalescer` turns
that locality into explicit batches, so one executor hop serves them
all: submissions accumulate per operation kind, and the first
submission into an empty bucket schedules its flush for the next loop
turn (a zero-delay flush, no timer).  A bucket holds at most what
admission lets in, since every queued request holds a ticket.

Correctness contract (property-tested with Hypothesis in
``tests/service/test_admission.py``): **no request is ever dropped or
duplicated** — every ``submit`` resolves exactly once, with the value
the scalar call would have produced, or with the batch's exception;
a failed flush poisons only its own bucket, later submissions flow
normally.  ``flush``/``drain`` bound the wait for stragglers.
"""

from __future__ import annotations

import asyncio
import time
from typing import Awaitable, Callable, Sequence

from repro import telemetry
from repro.errors import ServiceError
from repro.telemetry import tracing

#: ``execute(op, [operands, ...]) -> [value, ...]`` — the batched
#: backend, typically ``SimulatedFieldContext.<op>_batch`` hopped onto
#: an executor thread.
BatchExecutor = Callable[[str, list[tuple]], Awaitable[Sequence]]


class RequestCoalescer:
    """Per-operation, per-loop-turn batching over an async executor.

    Single-event-loop object: ``submit`` must be called from the loop
    that created the coalescer (the service guarantees this; the
    blocking simulated execution happens inside *execute*, typically
    via ``run_in_executor``).
    """

    def __init__(self, execute: BatchExecutor) -> None:
        self._execute = execute
        # bucket item: (operands, future, member trace, submit time)
        self._pending: dict[str, list[tuple]] = {}
        self._running: set[asyncio.Task] = set()
        self.batches_flushed = 0
        self.items_flushed = 0

    async def submit(self, op: str, operands: Sequence[int]):
        """Queue one *op* request; resolves with its value.

        The caller's active trace context (if any) rides along with
        the operands, so the flushed batch can record every member
        trace_id and book each member's coalescing wait.
        """
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        bucket = self._pending.setdefault(op, [])
        if not bucket:
            loop.call_soon(self._flush_op, op)
        bucket.append((tuple(operands), future,
                       tracing.current_trace(), time.perf_counter()))
        return await future

    def _flush_op(self, op: str) -> None:
        items = self._pending.pop(op, None)
        if not items:
            return
        task = asyncio.ensure_future(self._run_batch(op, items))
        self._running.add(task)
        task.add_done_callback(self._running.discard)

    async def _run_batch(self, op, items) -> None:
        now = time.perf_counter()
        batch_ctx = tracing.begin_batch(
            op, [(ctx, now - queued)
                 for _, _, ctx, queued in items])
        started = time.perf_counter()
        try:
            # The batch context travels by contextvar (per-task, so
            # concurrent flushes cannot interleave): the executor's
            # blocking call re-activates it on its worker thread and
            # the batch's kernel cycles land under the batch node —
            # once, not once per member.
            with tracing.using(batch_ctx):
                values = await self._execute(
                    op, [operands for operands, _, _, _ in items])
            if len(values) != len(items):
                raise ServiceError(
                    f"batch executor returned {len(values)} values "
                    f"for {len(items)} {op!r} requests")
        except Exception as exc:  # noqa: BLE001 — forwarded, not eaten
            tracing.finish_batch(batch_ctx, time.perf_counter() - started)
            for _, future, _, _ in items:
                if not future.done():
                    future.set_exception(exc)
            return
        tracing.finish_batch(batch_ctx, time.perf_counter() - started)
        self.batches_flushed += 1
        self.items_flushed += len(items)
        telemetry.record("service_coalesced_batches_total", op)
        telemetry.record("service_coalesced_items_total", op,
                         value=len(items))
        for (_, future, _, _), value in zip(items, values):
            if not future.done():
                future.set_result(value)

    def flush(self) -> None:
        """Flush every pending bucket now."""
        for op in list(self._pending):
            self._flush_op(op)

    async def drain(self) -> None:
        """Flush and wait until no batch execution is in flight."""
        self.flush()
        while self._running:
            await asyncio.gather(*list(self._running),
                                 return_exceptions=True)

    @property
    def pending(self) -> int:
        """Requests queued but not yet flushed."""
        return sum(len(items) for items in self._pending.values())
