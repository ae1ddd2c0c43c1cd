"""Sharding fault-injection campaigns across worker processes.

A fault campaign shards trivially *because of* the per-trial cold pool
in :func:`repro.fault.campaign.run_trial_range`: every trial is a pure
function of its planned site and seeded operands, so any partition of
``[0, n)`` into contiguous ranges concatenates to exactly the
monolithic trial list, and the captured fault-layer metric families
sum exactly (asserted in ``tests/shard/test_campaign_shard.py``).

The plan/worker/merge shapes mirror the group-action subsystem
(:mod:`repro.shard.plan` / :mod:`repro.shard.merge`) so one scheduler
drives both kinds of shard.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass

from repro.errors import ShardError
from repro.fault.campaign import (
    CampaignReport,
    TrialResult,
    run_trial_range,
)
from repro.fault.plan import ALL_SITES, FAULT_OPERATIONS
from repro.field.simulated import DEFAULT_RECOVERY_ATTEMPTS
from repro.shard.plan import compute_boundaries, derive_shard_seed
from repro.telemetry.export import SCHEMA_VERSION


@dataclass(frozen=True)
class CampaignShardPlan:
    """Everything a worker needs to run a contiguous trial range."""

    kind = "campaign"

    p: int
    seed: int
    n: int
    variant: str
    sites: tuple[str, ...]
    operations: tuple[str, ...]
    check_interval: int
    max_recovery_attempts: int
    boundaries: tuple[tuple[int, int], ...]
    shard_seeds: tuple[int, ...]
    stream_digest: str
    plan_wall_s: float = 0.0

    @property
    def shards(self) -> int:
        return len(self.boundaries)

    def to_dict(self) -> dict:
        return {
            "schema": SCHEMA_VERSION,
            "kind": self.kind,
            "p": self.p,
            "seed": self.seed,
            "n": self.n,
            "variant": self.variant,
            "sites": list(self.sites),
            "operations": list(self.operations),
            "check_interval": self.check_interval,
            "max_recovery_attempts": self.max_recovery_attempts,
            "boundaries": [list(pair) for pair in self.boundaries],
            "shard_seeds": list(self.shard_seeds),
            "stream_digest": self.stream_digest,
            "plan_wall_s": self.plan_wall_s,
        }


def campaign_plan_from_dict(data: dict) -> CampaignShardPlan:
    try:
        return CampaignShardPlan(
            p=int(data["p"]),
            seed=int(data["seed"]),
            n=int(data["n"]),
            variant=data["variant"],
            sites=tuple(data["sites"]),
            operations=tuple(data["operations"]),
            check_interval=int(data["check_interval"]),
            max_recovery_attempts=int(data["max_recovery_attempts"]),
            boundaries=tuple(
                (int(start), int(end))
                for start, end in data["boundaries"]),
            shard_seeds=tuple(int(s) for s in data["shard_seeds"]),
            stream_digest=data["stream_digest"],
            plan_wall_s=float(data.get("plan_wall_s", 0.0)),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ShardError(
            f"malformed campaign shard plan: {exc}") from exc


def build_campaign_plan(
    p: int,
    *,
    seed: int,
    n: int,
    shards: int,
    variant: str = "reduced.ise",
    sites: tuple[str, ...] = ALL_SITES,
    operations: tuple[str, ...] = FAULT_OPERATIONS,
    check_interval: int = 1,
    max_recovery_attempts: int = DEFAULT_RECOVERY_ATTEMPTS,
) -> CampaignShardPlan:
    """Cut the *n*-trial campaign into contiguous trial ranges."""
    if n < 1:
        raise ShardError(f"campaign needs at least one trial, got {n}")
    began = time.perf_counter()
    # trials have no natural change points; the raw even split is final
    boundaries = compute_boundaries(n, shards, [])
    identity = json.dumps({
        "kind": "campaign",
        "p": p,
        "seed": seed,
        "n": n,
        "variant": variant,
        "sites": list(sites),
        "operations": list(operations),
        "check_interval": check_interval,
        "max_recovery_attempts": max_recovery_attempts,
    }, sort_keys=True)
    digest = hashlib.sha256(identity.encode()).hexdigest()
    return CampaignShardPlan(
        p=p,
        seed=seed,
        n=n,
        variant=variant,
        sites=tuple(sites),
        operations=tuple(operations),
        check_interval=check_interval,
        max_recovery_attempts=max_recovery_attempts,
        boundaries=boundaries,
        shard_seeds=tuple(
            derive_shard_seed(digest, index)
            for index in range(len(boundaries))),
        stream_digest=digest,
        plan_wall_s=time.perf_counter() - began,
    )


class CampaignShardRunner:
    """Executes campaign shards (contiguous trial ranges)."""

    def __init__(self, plan: CampaignShardPlan, *,
                 engine: str = "aot") -> None:
        self.plan = plan
        self.engine = engine

    def execute(self, index: int) -> dict:
        start, end = self.plan.boundaries[index]
        plan = self.plan
        began = time.perf_counter()
        trials, metrics = run_trial_range(
            plan.p,
            seed=plan.seed,
            n=plan.n,
            start=start,
            end=end,
            variant=plan.variant,
            sites=plan.sites,
            operations=plan.operations,
            check_interval=plan.check_interval,
            max_recovery_attempts=plan.max_recovery_attempts,
            engine=self.engine,
        )
        return {
            "type": "shard",
            "shard": index,
            "seed": plan.shard_seeds[index],
            "digest": plan.stream_digest,
            "start": start,
            "end": end,
            "cycles": 0,
            "instructions": 0,
            "spans": {},
            "trials": [trial.to_dict() for trial in trials],
            "metrics": metrics,
            "divergences": 0,
            "engine": self.engine,
            "wall_s": time.perf_counter() - began,
        }


def merge_campaign_records(
    plan: CampaignShardPlan,
    records: dict,
    *,
    engine: str = "aot",
) -> CampaignReport:
    """Concatenate shard trial ranges into one campaign report.

    Trials are ordered by index (ranges are disjoint and contiguous,
    so concatenation in shard order reproduces plan order) and metric
    families are summed sample-by-sample across shards.
    """
    missing = [index for index in range(plan.shards)
               if index not in records]
    if missing:
        raise ShardError(
            f"cannot merge campaign: {len(missing)} of {plan.shards} "
            f"shard(s) missing; re-run or resume from the checkpoint")
    trials: list[TrialResult] = []
    merged_metrics: dict[tuple, float] = {}
    metric_names: list[str] = []
    for index in sorted(records):
        record = records[index]
        for data in record["trials"]:
            trials.append(TrialResult(
                index=int(data["index"]),
                site=data["site"],
                operation=data["operation"],
                description=data["description"],
                outcome=data["outcome"],
                detections=int(data["detections"]),
                recoveries=int(data["recoveries"]),
            ))
        for name, samples in record.get("metrics", {}).items():
            if name not in metric_names:
                metric_names.append(name)
            for sample in samples:
                key = (name, tuple(sorted(sample["labels"].items())))
                merged_metrics[key] = (
                    merged_metrics.get(key, 0) + sample["value"])
    if len(trials) != plan.n:
        raise ShardError(
            f"merged campaign has {len(trials)} trials, plan expects "
            f"{plan.n}")
    # insertion order: shards are iterated in trial order and each
    # trial fires the same increments as monolithically, so first-seen
    # order of (name, labels) reproduces the monolithic sample order
    # and the merged report is byte-identical (asserted in tests)
    metrics = {
        name: [
            {"labels": dict(labels), "value": value}
            for (sample_name, labels), value in merged_metrics.items()
            if sample_name == name
        ]
        for name in metric_names
    }
    return CampaignReport(
        seed=plan.seed,
        n=plan.n,
        modulus=plan.p,
        variant=plan.variant,
        check_interval=plan.check_interval,
        trials=tuple(trials),
        metrics=metrics,
        engine=engine,
    )


def run_sharded_campaign(
    p: int,
    *,
    seed: int,
    n: int,
    shards: int,
    workers: int | None = None,
    variant: str = "reduced.ise",
    sites: tuple[str, ...] = ALL_SITES,
    operations: tuple[str, ...] = FAULT_OPERATIONS,
    check_interval: int = 1,
    max_recovery_attempts: int = DEFAULT_RECOVERY_ATTEMPTS,
    engine: str = "aot",
    checkpoint_path: str | None = None,
    resume: bool = False,
    stats=None,
) -> CampaignReport:
    """Sharded :func:`~repro.fault.campaign.run_campaign` equivalent."""
    from repro.shard.merge import read_checkpoint
    from repro.shard.scheduler import ShardExecutor, ShardRunStats

    plan = build_campaign_plan(
        p,
        seed=seed,
        n=n,
        shards=shards,
        variant=variant,
        sites=sites,
        operations=operations,
        check_interval=check_interval,
        max_recovery_attempts=max_recovery_attempts,
    )
    completed: dict[int, dict] = {}
    if resume and checkpoint_path is not None:
        import os

        if os.path.exists(checkpoint_path):
            completed = read_checkpoint(checkpoint_path, plan)
    executor = ShardExecutor(plan, workers=workers, engine=engine)
    stats = stats if stats is not None else ShardRunStats()
    records = executor.run(
        checkpoint_path=checkpoint_path,
        completed=completed,
        stats=stats,
    )
    return merge_campaign_records(plan, records, engine=engine)
