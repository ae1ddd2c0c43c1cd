"""Sharded fault campaigns concatenate exactly.

The enabling invariant lives in
:func:`repro.fault.campaign.run_trial_range`: a per-trial cold runner
pool makes every trial a pure function of its planned site and
operands, so contiguous trial ranges concatenate — in any partition —
to the monolithic campaign, trials and metrics both.  These tests pin
that invariant in-process (Hypothesis over partitions) and through
real worker processes (``run_sharded_campaign``).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.csidh.parameters import csidh_toy
from repro.errors import ShardError
from repro.fault.campaign import run_campaign, run_trial_range
from repro.shard.campaign import (
    build_campaign_plan,
    campaign_plan_from_dict,
    merge_campaign_records,
    run_sharded_campaign,
)

P = csidh_toy().p


@pytest.fixture(scope="module")
def monolithic():
    return run_campaign(P, seed=1, n=25)


def _sum_metrics(metric_blocks):
    totals: dict[tuple, float] = {}
    for block in metric_blocks:
        for name, samples in block.items():
            for sample in samples:
                key = (name, tuple(sorted(sample["labels"].items())))
                totals[key] = totals.get(key, 0) + sample["value"]
    return totals


class TestTrialRangeInvariant:
    @given(cuts=st.lists(st.integers(1, 24), unique=True,
                         max_size=4).map(sorted))
    @settings(max_examples=8, deadline=None)
    def test_any_partition_concatenates_exactly(self, cuts,
                                                monolithic):
        edges = [0, *cuts, 25]
        trials = []
        metric_blocks = []
        for start, end in zip(edges, edges[1:]):
            part, metrics = run_trial_range(
                P, seed=1, n=25, start=start, end=end)
            trials.extend(part)
            metric_blocks.append(metrics)
        assert tuple(trials) == monolithic.trials
        assert _sum_metrics(metric_blocks) \
            == _sum_metrics([monolithic.metrics])

    def test_bad_range_refused(self):
        with pytest.raises(ValueError):
            run_trial_range(P, seed=1, n=5, start=3, end=2)
        with pytest.raises(ValueError):
            run_trial_range(P, seed=1, n=5, start=0, end=6)


class TestShardedCampaign:
    def test_sharded_report_is_byte_identical(self, monolithic):
        sharded = run_sharded_campaign(
            P, seed=1, n=25, shards=4, workers=2)
        assert sharded.to_dict() == monolithic.to_dict()

    def test_single_shard_degenerate_case(self, monolithic):
        sharded = run_sharded_campaign(
            P, seed=1, n=25, shards=1, workers=1)
        assert sharded.to_dict() == monolithic.to_dict()

    def test_checkpoint_resume(self, monolithic, tmp_path):
        path = tmp_path / "campaign.ckpt.jsonl"
        first = run_sharded_campaign(
            P, seed=1, n=25, shards=5, workers=2,
            checkpoint_path=str(path))
        assert first.to_dict() == monolithic.to_dict()
        resumed = run_sharded_campaign(
            P, seed=1, n=25, shards=5, workers=2,
            checkpoint_path=str(path), resume=True)
        assert resumed.to_dict() == monolithic.to_dict()

    def test_interpreter_engine_forwarded(self):
        mono = run_campaign(P, seed=1, n=8, engine="interpreter")
        sharded = run_sharded_campaign(
            P, seed=1, n=8, shards=3, workers=2, engine="interpreter")
        assert sharded.engine == "interpreter"
        assert sharded.trials == mono.trials


class TestCampaignPlan:
    def test_boundaries_tile_the_campaign(self):
        plan = build_campaign_plan(P, seed=1, n=25, shards=4)
        assert plan.boundaries[0][0] == 0
        assert plan.boundaries[-1][1] == 25
        assert plan.shards == 4
        assert len(set(plan.shard_seeds)) == 4

    def test_plan_dict_round_trip(self):
        plan = build_campaign_plan(P, seed=1, n=25, shards=4)
        assert campaign_plan_from_dict(plan.to_dict()) == plan

    def test_identity_digest_covers_knobs(self):
        base = build_campaign_plan(P, seed=1, n=25, shards=4)
        other = build_campaign_plan(P, seed=2, n=25, shards=4)
        assert base.stream_digest != other.stream_digest

    def test_empty_campaign_refused(self):
        with pytest.raises(ShardError):
            build_campaign_plan(P, seed=1, n=0, shards=2)

    def test_missing_shard_refused(self):
        plan = build_campaign_plan(P, seed=1, n=6, shards=2)
        with pytest.raises(ShardError, match="missing"):
            merge_campaign_records(plan, {})
