"""Shard worker: execute one contiguous op range on the simulator.

A worker process owns exactly one :class:`ShardRunner` (or its fault
campaign sibling in :mod:`repro.shard.campaign`): a regenerated op
stream, a scoped :class:`~repro.field.simulated.SimulatedFieldContext`
and a pure-Python :class:`~repro.field.fp.FieldContext` reference.  For
every op in its assigned range it runs the simulated kernels, checks
the value against the reference, and buckets the cycle/instruction
deltas under the op's recorded span path — the per-shard half of the
cycle-exact merge (:mod:`repro.shard.merge`).

``worker_main`` is the process entry point driven by the scheduler's
queues; it is deliberately dumb (no shared state, no scheduling
decisions) so a worker crash loses at most the shards it had in
flight.
"""

from __future__ import annotations

import os
import time

from repro import telemetry
from repro.errors import ReproError
from repro.field.fp import FieldContext
from repro.field.simulated import SimulatedFieldContext
from repro.shard.plan import (
    OP_ADD,
    OP_MUL,
    OP_SQR,
    OP_SUB,
    OP_KINDS,
    OpStream,
    ShardPlan,
    regenerate_stream,
)

#: Exit status a worker uses when told to die (fault-injection tests
#: kill workers with it so the scheduler's recovery path is exercised
#: by a *real* process death, not a simulated one).
KILLED_EXIT = 17


class ShardRunner:
    """Executes action shards against a regenerated op stream."""

    def __init__(
        self,
        plan: ShardPlan,
        *,
        engine: str = "aot",
        scope: str = "",
        stream: OpStream | None = None,
    ) -> None:
        self.plan = plan
        self.engine = engine
        if stream is None:
            stream = regenerate_stream(plan)
        self.stream = stream
        self.field = SimulatedFieldContext(
            plan.p, variant=plan.variant, engine=engine, scope=scope)
        self.reference = FieldContext(plan.p)

    def execute(self, index: int) -> dict:
        """Run shard *index* and return its checkpointable record."""
        start, end = self.plan.boundaries[index]
        field = self.field
        reference = self.reference
        stream = self.stream
        spans: dict[int, list[int]] = {}
        ops = dict.fromkeys(OP_KINDS, 0)
        divergences = 0
        began = time.perf_counter()
        cycles0 = field.simulated_cycles
        instructions0 = field.simulated_instructions
        for position in range(start, end):
            kind, a, b, span_id = stream.op(position)
            before_cycles = field.simulated_cycles
            before_instructions = field.simulated_instructions
            if kind == OP_MUL:
                got = field.mul(a, b)
                want = reference.mul(a, b)
            elif kind == OP_SQR:
                got = field.sqr(a)
                want = reference.sqr(a)
            elif kind == OP_ADD:
                got = field.add(a, b)
                want = reference.add(a, b)
            else:
                got = field.sub(a, b)
                want = reference.sub(a, b)
            if got != want:
                divergences += 1
            bucket = spans.get(span_id)
            if bucket is None:
                bucket = spans[span_id] = [0, 0]
            bucket[0] += field.simulated_cycles - before_cycles
            bucket[1] += (field.simulated_instructions
                          - before_instructions)
            ops[OP_KINDS[kind]] += 1
        return {
            "type": "shard",
            "shard": index,
            "seed": self.plan.shard_seeds[index],
            "digest": self.plan.stream_digest,
            "start": start,
            "end": end,
            "cycles": field.simulated_cycles - cycles0,
            "instructions": field.simulated_instructions - instructions0,
            "spans": {str(span_id): counts
                      for span_id, counts in spans.items()},
            "ops": ops,
            "divergences": divergences,
            "engine": self.engine,
            "wall_s": time.perf_counter() - began,
        }


def build_runner(spec: dict, engine: str):
    """Instantiate the runner a worker spec describes.

    ``spec["kind"]`` selects between the action runner above and the
    fault campaign runner; the campaign module is imported lazily so
    this module keeps no dependency on the fault subsystem.
    """
    if spec["kind"] == "campaign":
        from repro.shard.campaign import (
            CampaignShardRunner,
            campaign_plan_from_dict,
        )

        return CampaignShardRunner(
            campaign_plan_from_dict(spec["plan"]), engine=engine)
    from repro.shard.plan import plan_from_dict

    return ShardRunner(plan_from_dict(spec["plan"]), engine=engine)


def worker_main(worker_id: int, spec: dict, engine: str,
                inbox, outbox) -> None:
    """Process entry point: build a runner, then drain the inbox.

    Messages: ``("shard", index, die)`` executes shard *index*
    (``die=True`` makes the process exit hard *instead*, for recovery
    tests); ``("stop",)`` ends the loop.  Replies on *outbox*:
    ``("ready", id)`` once initialised, then ``("done", id, record)``
    or ``("error", id, code, message)``.
    """
    try:
        telemetry.disable()
        runner = build_runner(spec, engine)
        outbox.put(("ready", worker_id))
        while True:
            message = inbox.get()
            if message[0] == "stop":
                break
            _tag, index, die = message
            if die:
                # flush the outbox first: a hard exit while its feeder
                # thread still holds the queue's shared write lock
                # would block every other worker's replies forever
                outbox.close()
                outbox.join_thread()
                os._exit(KILLED_EXIT)
            record = runner.execute(index)
            record["worker"] = worker_id
            outbox.put(("done", worker_id, record))
    except ReproError as exc:
        outbox.put(("error", worker_id, exc.code, str(exc)))
    except BaseException as exc:  # noqa: BLE001 - report, don't vanish
        outbox.put(("error", worker_id, "shard", repr(exc)))
