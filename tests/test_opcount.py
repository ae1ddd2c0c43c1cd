"""Tests for the instrumented op-count profiles (the cycle bridge)."""

from __future__ import annotations

import pytest

from repro.csidh.opcount import (
    average_group_action_profile,
    count_group_action,
)
from repro.errors import ParameterError
from repro.field.counters import OpCosts


class TestCounting:
    def test_mini_action_counts(self, mini_params):
        key = (1, -1, 0, 2, 0, -1, 1)
        profile = count_group_action(mini_params, key, seed=3)
        ops = profile.ops
        # an action is dominated by Legendre/ladder work: muls and sqrs
        assert ops.mul > 100
        assert ops.sqr > 100
        assert ops.add > 0 and ops.sub > 0
        assert profile.stats.isogenies == sum(abs(e) for e in key)

    def test_reproducible(self, mini_params):
        key = (1, 0, 0, 0, 1, 0, -1)
        a = count_group_action(mini_params, key, seed=5)
        b = count_group_action(mini_params, key, seed=5)
        assert a.ops == b.ops

    def test_zero_key_costs_nothing(self, mini_params):
        profile = count_group_action(
            mini_params, (0,) * mini_params.num_primes, seed=1)
        assert profile.ops.total == 0

    def test_heavier_keys_cost_more(self, mini_params):
        m = mini_params.max_exponent
        light = count_group_action(
            mini_params, (1,) + (0,) * 6, seed=2)
        heavy = count_group_action(
            mini_params, (m,) * 7, seed=2)
        assert heavy.ops.mul > light.ops.mul


class TestAverageProfile:
    def test_average_over_keys(self, mini_params):
        profile = average_group_action_profile(mini_params, keys=3,
                                               seed=1)
        assert profile.actions == 3
        per_action = profile.per_action()
        assert per_action.mul * 3 <= profile.ops.mul + 3

    @pytest.mark.parametrize("keys", [0, -3])
    def test_fewer_than_one_key_is_refused(self, mini_params, keys):
        # a mean over no actions has no value (it divided by zero)
        with pytest.raises(ParameterError, match="keys"):
            average_group_action_profile(mini_params, keys=keys)

    def test_cycles_composition_order(self, mini_params):
        """ISE costs below ISA costs must give fewer composed cycles."""
        profile = average_group_action_profile(mini_params, keys=2,
                                               seed=1)
        isa = OpCosts(fp_mul=1595, fp_sqr=1447, fp_add=143, fp_sub=128)
        ise = OpCosts(fp_mul=877, fp_sqr=769, fp_add=124, fp_sub=115)
        ops = profile.per_action()
        assert ops.cycles(ise) < ops.cycles(isa)

    def test_csidh512_scale(self, csidh512_params):
        """One real CSIDH-512 action: a few hundred thousand muls (the
        order of magnitude behind the paper's ~700M cycles)."""
        key = csidh512_params.sample_private_key(
            __import__("random").Random(0))
        profile = count_group_action(csidh512_params, key, seed=1)
        assert 100_000 < profile.ops.mul < 1_500_000
        assert 50_000 < profile.ops.sqr < 800_000
