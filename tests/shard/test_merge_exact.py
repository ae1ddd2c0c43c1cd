"""The tentpole invariant: sharded == monolithic, exactly.

Any shard count, any record arrival order, on toy and mini parameters:
the merged span tree reproduces the monolithic profile node-for-node
(names, labels, entry counts, per-node self cycles), the merged cycle
and instruction totals equal the monolithic counters, and the group
action coefficient is bit-for-bit the monolithic output.  Shards here
execute in-process (one :class:`ShardRunner` replaying the recorded
stream) — the real-process path is covered by
``tests/shard/test_scheduler.py``; engines are cycle-identical by the
differential suite, so in-process aot execution is representative.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.csidh.parameters import csidh_mini, csidh_toy
from repro.errors import ShardDivergenceError, ShardError
from repro.shard.merge import merge_records, span_cycle_mismatches
from repro.shard.plan import build_plan, compute_boundaries
from repro.shard.worker import ShardRunner
from repro.telemetry.profile import profile_group_action


@pytest.fixture(scope="module")
def toy_profile():
    return profile_group_action(csidh_toy(), seed=3)


@pytest.fixture(scope="module")
def toy_stream():
    return build_plan("toy", shards=1, seed=3)[1]


def _merged_for(shards: int, stream, arrival_seed: int = 0):
    """Build an N-shard plan, execute every shard in-process, merge
    the records in a shuffled arrival order."""
    plan, _ = build_plan("toy", shards=shards, seed=3)
    runner = ShardRunner(plan, engine="aot", stream=stream)
    order = list(range(plan.shards))
    random.Random(arrival_seed).shuffle(order)
    records = {index: runner.execute(index) for index in order}
    return plan, merge_records(plan, records, engine="aot")


class TestExactMergeToy:
    @given(shards=st.integers(1, 24), arrival_seed=st.integers(0, 99))
    @settings(max_examples=12, deadline=None)
    def test_any_shard_count_any_arrival_order(
            self, shards, arrival_seed, toy_profile, toy_stream):
        plan, merged = _merged_for(shards, toy_stream, arrival_seed)
        assert merged.coefficient == toy_profile.coefficient
        assert merged.cycles == toy_profile.simulated_cycles
        assert merged.instructions \
            == toy_profile.simulated_instructions
        assert span_cycle_mismatches(toy_profile.root,
                                     merged.root) == []

    def test_single_shard_degenerate_case(self, toy_profile,
                                          toy_stream):
        _plan, merged = _merged_for(1, toy_stream)
        assert merged.cycles == toy_profile.simulated_cycles
        assert span_cycle_mismatches(toy_profile.root,
                                     merged.root) == []

    def test_bench_record_carries_merged_totals(self, toy_profile,
                                                toy_stream):
        _plan, merged = _merged_for(4, toy_stream)
        record = merged.bench_record()
        assert record["mode"] == "sharded_action"
        assert record["simulated_cycles"] \
            == toy_profile.simulated_cycles
        assert record["shards"] == 4
        assert record["divergences"] == 0


class TestExactMergeMini:
    def test_mini_merges_exactly(self):
        profile = profile_group_action(csidh_mini(), seed=3)
        plan, stream = build_plan("mini", shards=7, seed=3)
        runner = ShardRunner(plan, engine="aot", stream=stream)
        records = {index: runner.execute(index)
                   for index in range(plan.shards)}
        merged = merge_records(plan, records, engine="aot")
        assert merged.coefficient == profile.coefficient
        assert merged.cycles == profile.simulated_cycles
        assert merged.instructions == profile.simulated_instructions
        assert span_cycle_mismatches(profile.root, merged.root) == []


class TestMergeRefusals:
    @pytest.fixture(scope="class")
    def plan_and_records(self, toy_stream):
        plan, _ = build_plan("toy", shards=4, seed=3)
        runner = ShardRunner(plan, engine="aot", stream=toy_stream)
        records = {index: runner.execute(index)
                   for index in range(plan.shards)}
        return plan, records

    def test_missing_shard_refused(self, plan_and_records):
        plan, records = plan_and_records
        partial = dict(records)
        del partial[2]
        with pytest.raises(ShardError, match="missing"):
            merge_records(plan, partial)

    def test_missing_shard_allowed_when_partial(self,
                                                plan_and_records):
        plan, records = plan_and_records
        partial = dict(records)
        del partial[2]
        merged = merge_records(plan, partial, partial=True)
        assert merged.partial
        assert merged.completed == (0, 1, 3)
        assert 0 < merged.cycles < sum(
            record["cycles"] for record in records.values()) + 1

    def test_divergent_record_refused_with_stable_code(
            self, plan_and_records):
        plan, records = plan_and_records
        poisoned = {index: dict(record)
                    for index, record in records.items()}
        poisoned[1]["divergences"] = 2
        with pytest.raises(ShardDivergenceError) as excinfo:
            merge_records(plan, poisoned)
        assert excinfo.value.code == "shard_divergence"

    def test_inconsistent_op_counts_refused(self, plan_and_records):
        plan, records = plan_and_records
        doctored = {index: dict(record)
                    for index, record in records.items()}
        doctored[0]["ops"] = dict(doctored[0]["ops"])
        doctored[0]["ops"]["mul"] += 1
        with pytest.raises(ShardError, match="op counts"):
            merge_records(plan, doctored)

    def test_unknown_span_path_refused(self, plan_and_records):
        plan, records = plan_and_records
        doctored = {index: dict(record)
                    for index, record in records.items()}
        doctored[0]["spans"] = dict(doctored[0]["spans"])
        doctored[0]["spans"][str(len(plan.span_paths))] = [1, 1]
        with pytest.raises(ShardError, match="span"):
            merge_records(plan, doctored)


class TestBoundaryAlignment:
    def test_toy_cuts_prefer_span_changes(self, toy_stream):
        """With enough change points, interior cuts land on span-path
        transitions (isogeny/phase edges), not mid-kernel-sequence."""
        points = set(toy_stream.change_points())
        boundaries = compute_boundaries(
            len(toy_stream), 6, sorted(points))
        interior = [start for start, _end in boundaries[1:]]
        assert all(cut in points for cut in interior)
