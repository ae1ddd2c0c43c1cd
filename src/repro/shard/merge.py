"""Merging shard records back into one cycle-exact span tree.

The plan's recording pass captured the *exact* span skeleton of the
monolithic run — structure, labels and entry counts, but zero cycles
(pure Python books none).  Each shard record carries per-span-path
cycle/instruction sums.  The merge grafts those sums onto the
skeleton, so the result is structurally identical to the monolithic
profile tree with every ``self_cycles`` rebuilt from shard
contributions.  ``tests/shard/`` asserts the graft is *exact* on toy
and mini parameters: same nodes, same counts, same per-node cycles.

Checkpoint files are JSONL: a ``plan`` header line followed by one
``shard`` record per completed shard (append-only, flushed per record,
so an interrupted run resumes from whatever reached disk).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.errors import ShardDivergenceError, ShardError
from repro.shard.plan import OP_KINDS, ShardPlan
from repro.shard.scheduler import ShardRunStats
from repro.telemetry.spans import SpanNode
from repro.telemetry.export import span_from_dict


def read_checkpoint(path: str, plan: ShardPlan | None = None) -> dict:
    """Load ``{shard_index: record}`` from a JSONL checkpoint file.

    When *plan* is given, every record's digest and shard seed must
    match it — a checkpoint written by a different plan (other seed,
    other parameters, other code) is refused rather than merged into
    nonsense.  Duplicate records for one shard keep the first
    (re-executed shards are deterministic, so any copy is as good).
    """
    records: dict[int, dict] = {}
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
    except OSError as exc:
        raise ShardError(
            f"cannot read checkpoint {path!r}: {exc}") from exc
    for number, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except ValueError as exc:
            raise ShardError(
                f"checkpoint {path!r} line {number} is not valid "
                f"JSON: {exc}") from exc
        kind = record.get("type")
        if kind == "plan":
            if plan is not None and \
                    record.get("digest") != plan.stream_digest:
                raise ShardError(
                    f"checkpoint {path!r} belongs to a different plan "
                    f"(digest {str(record.get('digest'))[:16]}..., "
                    f"expected {plan.stream_digest[:16]}...)")
            continue
        if kind != "shard":
            continue
        index = int(record["shard"])
        if plan is not None:
            if record.get("digest") != plan.stream_digest:
                raise ShardError(
                    f"checkpoint {path!r} line {number}: shard "
                    f"{index} was produced by a different plan")
            if index >= plan.shards or \
                    record.get("seed") != plan.shard_seeds[index]:
                raise ShardError(
                    f"checkpoint {path!r} line {number}: shard "
                    f"{index} seed does not match the plan")
        records.setdefault(index, record)
    return records


@dataclass
class MergedRun:
    """The merged result of a sharded group action."""

    plan: ShardPlan
    root: SpanNode
    cycles: int
    instructions: int
    ops: dict[str, int]
    engine: str
    completed: tuple[int, ...]
    partial: bool
    workers: int = 0
    stats: ShardRunStats | None = None

    @property
    def coefficient(self) -> int:
        return self.plan.coefficient

    @property
    def action_node(self) -> SpanNode:
        node = self.root.find("group_action")
        if node is None:
            raise ShardError("merged tree has no group_action span")
        return node

    def bench_record(self) -> dict:
        """One ``sharded_action`` BENCH trajectory record."""
        stats = self.stats or ShardRunStats(workers=self.workers)
        return {
            "mode": "sharded_action",
            "params": self.plan.params_name,
            "variant": self.plan.variant,
            "shards": self.plan.shards,
            "workers": stats.workers,
            "engine": self.engine,
            "wall_s": stats.exec_wall_s,
            "plan_wall_s": self.plan.plan_wall_s,
            "simulated_cycles": self.cycles,
            "simulated_instructions": self.instructions,
            "steals": stats.steals,
            "requeues": stats.requeues,
            "worker_failures": stats.worker_failures,
            "divergences": 0,  # merge refuses divergent records
            "shards_completed": stats.shards_completed
            or len(self.completed),
        }


def merge_records(
    plan: ShardPlan,
    records: dict,
    *,
    stats: ShardRunStats | None = None,
    engine: str = "aot",
    partial: bool = False,
) -> MergedRun:
    """Graft shard records onto the plan skeleton.

    A full merge (the default) demands every shard and re-checks the
    summed per-kind op counts against the plan's; ``partial=True``
    permits a subset (bounded CSIDH-512 smoke slices, progress
    inspection of an interrupted run) and skips the completeness
    checks.  Any reported divergence refuses the merge outright with
    :class:`~repro.errors.ShardDivergenceError`.
    """
    missing = [index for index in range(plan.shards)
               if index not in records]
    if missing and not partial:
        preview = ", ".join(str(index) for index in missing[:8])
        if len(missing) > 8:
            preview += ", ..."
        raise ShardError(
            f"cannot merge: {len(missing)} of {plan.shards} shards "
            f"missing ({preview}); re-run or resume from the "
            f"checkpoint, or pass partial=True for a partial view")
    divergences = sum(
        int(record.get("divergences", 0)) for record in records.values())
    if divergences:
        raise ShardDivergenceError(
            f"{divergences} simulated operation(s) diverged from the "
            f"pure-Python reference across {len(records)} shard "
            f"record(s); the sharded run is not trustworthy")

    root = span_from_dict(plan.skeleton)
    for node in root.walk():
        node.self_cycles = 0  # skeleton is cycle-free by construction

    cycles = 0
    instructions = 0
    ops = dict.fromkeys(OP_KINDS, 0)
    for index in sorted(records):
        record = records[index]
        for span_key, (span_cycles, span_instructions) in \
                record["spans"].items():
            span_id = int(span_key)
            if span_id >= len(plan.span_paths):
                raise ShardError(
                    f"shard {index} references span id {span_id} "
                    f"beyond the plan's path table")
            node = root
            for name, labels in plan.span_paths[span_id]:
                child = node.children.get((name, tuple(labels)))
                if child is None:
                    raise ShardError(
                        f"shard {index} references span path "
                        f"{name!r} absent from the plan skeleton")
                node = child
            node.self_cycles += int(span_cycles)
            cycles += int(span_cycles)
            instructions += int(span_instructions)
        for kind, count in record.get("ops", {}).items():
            ops[kind] = ops.get(kind, 0) + int(count)

    if not partial and not missing and ops != dict(plan.op_counts):
        raise ShardError(
            f"merged op counts {ops} disagree with the plan's "
            f"{dict(plan.op_counts)}; shard records are inconsistent")

    return MergedRun(
        plan=plan,
        root=root,
        cycles=cycles,
        instructions=instructions,
        ops=ops,
        engine=engine,
        completed=tuple(sorted(records)),
        partial=partial or bool(missing),
        workers=stats.workers if stats else 0,
        stats=stats,
    )


def run_sharded_action(
    plan: ShardPlan,
    *,
    workers: int | None = None,
    engine: str = "aot",
    checkpoint_path: str | None = None,
    resume: bool = False,
    shard_ids=None,
    fail_injection: dict | None = None,
    queue_depth: int | None = None,
    max_requeues: int | None = None,
) -> MergedRun:
    """Plan-to-merged-run convenience: execute then merge.

    With ``resume=True`` and an existing checkpoint, finished shards
    are loaded (and validated against the plan) instead of re-run.
    Passing *shard_ids* produces a partial merge of just that slice.
    """
    from repro.shard.scheduler import (
        DEFAULT_MAX_REQUEUES,
        DEFAULT_QUEUE_DEPTH,
        ShardExecutor,
        ShardRunStats,
    )

    completed: dict[int, dict] = {}
    if resume:
        if checkpoint_path is None:
            raise ShardError("resume requires a checkpoint path")
        import os

        if os.path.exists(checkpoint_path):
            completed = read_checkpoint(checkpoint_path, plan)
    executor = ShardExecutor(
        plan,
        workers=workers,
        engine=engine,
        queue_depth=DEFAULT_QUEUE_DEPTH
        if queue_depth is None else queue_depth,
        max_requeues=DEFAULT_MAX_REQUEUES
        if max_requeues is None else max_requeues,
        fail_injection=fail_injection,
    )
    stats = ShardRunStats()
    records = executor.run(
        checkpoint_path=checkpoint_path,
        shard_ids=shard_ids,
        completed=completed,
        stats=stats,
    )
    return merge_records(
        plan, records, stats=stats, engine=engine,
        partial=shard_ids is not None)


def span_cycle_mismatches(a: SpanNode, b: SpanNode,
                          path: str = "") -> list[str]:
    """Structural diff of two span trees, ignoring wall-clock fields.

    ``SpanNode.__eq__`` compares ``wall_s``/``start_epoch`` too, which
    can never match across process boundaries; tests use this
    comparator to assert the *deterministic* fields — name, labels,
    entry count, per-node cycles and child structure — are identical.
    """
    here = path + "/" + a.label
    mismatches = []
    if a.name != b.name or a.labels != b.labels:
        mismatches.append(f"{here}: identity {b.label!r}")
    if a.count != b.count:
        mismatches.append(
            f"{here}: count {a.count} != {b.count}")
    if a.self_cycles != b.self_cycles:
        mismatches.append(
            f"{here}: self_cycles {a.self_cycles} != {b.self_cycles}")
    a_keys = list(a.children)
    b_keys = list(b.children)
    if a_keys != b_keys:
        mismatches.append(
            f"{here}: children {a_keys} != {b_keys}")
        return mismatches
    for key in a_keys:
        mismatches.extend(span_cycle_mismatches(
            a.children[key], b.children[key], here))
    return mismatches
