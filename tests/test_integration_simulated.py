"""Integration: the complete stack executing on the simulated cores.

These tests run toy-CSIDH protocol computations where every field
operation is carried out by generated assembly on the RV64 simulator —
protocol -> isogeny -> curve -> field -> kernel -> custom instruction ->
pipeline, with zero stubs in between.
"""

from __future__ import annotations

import random

import pytest

from repro.csidh.group_action import group_action
from repro.csidh.montgomery import Curve, XPoint, ladder
from repro.field.fp import FieldContext
from repro.field.simulated import SimulatedFieldContext
from repro.kernels.spec import ALL_VARIANTS
from repro.rv64.machine import ENGINES


@pytest.fixture(scope="module")
def reference_action(toy_params):
    field = FieldContext(toy_params.p)
    return group_action(toy_params, field, 0, (1, -1, 1),
                        random.Random(0))


class TestSimulatedField:
    @pytest.mark.parametrize("variant", ALL_VARIANTS)
    def test_arithmetic_matches_python(self, toy_params, variant, rng):
        p = toy_params.p
        sim = SimulatedFieldContext(p, variant=variant)
        ref = FieldContext(p)
        for _ in range(6):
            a, b = rng.randrange(p), rng.randrange(p)
            assert sim.mul(a, b) == ref.mul(a, b)
            assert sim.sqr(a) == ref.sqr(a)
            assert sim.add(a, b) == ref.add(a, b)
            assert sim.sub(a, b) == ref.sub(a, b)

    def test_derived_ops_ride_on_kernels(self, toy_params):
        sim = SimulatedFieldContext(toy_params.p, variant="full.isa")
        value = sim.inv(7)
        assert (value * 7) % toy_params.p == 1
        assert sim.simulated_instructions > 1000  # Fermat ladder ran

    def test_instruction_accounting(self, toy_params):
        sim = SimulatedFieldContext(toy_params.p,
                                    variant="reduced.ise")
        before = sim.simulated_instructions
        sim.mul(3, 4)
        assert sim.simulated_instructions > before
        assert sim.simulated_cycles >= sim.simulated_instructions \
            * 0.5

    def test_counter_still_counts(self, toy_params):
        sim = SimulatedFieldContext(toy_params.p)
        sim.mul(2, 3)
        sim.add(2, 3)
        assert sim.counter.mul == 1
        assert sim.counter.add == 1


class TestSimulatedProtocol:
    @pytest.mark.parametrize("variant",
                             ["full.isa", "full.ise", "reduced.isa",
                              "reduced.ise"])
    def test_group_action_on_core(self, toy_params, variant,
                                  reference_action):
        sim = SimulatedFieldContext(toy_params.p, variant=variant)
        result = group_action(toy_params, sim, 0, (1, -1, 1),
                              random.Random(5))
        assert result == reference_action

    def test_ise_core_saves_cycles(self, toy_params):
        runs = {}
        for variant in ("full.isa", "reduced.ise"):
            sim = SimulatedFieldContext(toy_params.p, variant=variant)
            group_action(toy_params, sim, 0, (1, 0, 1),
                         random.Random(4))
            runs[variant] = sim.simulated_cycles
        assert runs["reduced.ise"] < runs["full.isa"]

    def test_ladder_on_core(self, toy_params):
        """x-only scalar multiplication entirely on the simulator."""
        p = toy_params.p
        sim = SimulatedFieldContext(p, variant="reduced.ise")
        ref = FieldContext(p)
        curve_sim = Curve.from_affine(sim, 0)
        curve_ref = Curve.from_affine(ref, 0)
        point = XPoint(9, 1)
        for k in (2, 3, 5, 17, 420):
            got = ladder(sim, k, point, curve_sim)
            want = ladder(ref, k, point, curve_ref)
            if want.is_infinity:
                assert got.is_infinity
            else:
                assert (got.X * want.Z - want.X * got.Z) % p == 0


class TestEngineTiers:
    """Both engines and the batched entry points at field level."""

    def test_unknown_engine_rejected(self, toy_params):
        from repro.errors import KernelError

        with pytest.raises(KernelError, match="unknown engine"):
            SimulatedFieldContext(toy_params.p, engine="turbo")

    def test_cross_check_conflicts_with_fast_engines(self, toy_params):
        from repro.errors import KernelError

        with pytest.raises(KernelError, match="cross_check"):
            SimulatedFieldContext(toy_params.p, cross_check=True,
                                  engine="aot")

    @pytest.mark.parametrize("engine", ENGINES)
    def test_group_action_identical_across_engines(self, toy_params,
                                                   reference_action,
                                                   engine):
        field = SimulatedFieldContext(toy_params.p, engine=engine)
        assert group_action(toy_params, field, 0, (1, -1, 1),
                            random.Random(0)) == reference_action

    @pytest.mark.parametrize("engine", ENGINES)
    def test_batch_entry_points_match_reference(self, toy_params,
                                                engine):
        p = toy_params.p
        context = SimulatedFieldContext(p, engine=engine)
        reference = FieldContext(p)
        rng = random.Random(13)
        pairs = [(rng.randrange(p), rng.randrange(p))
                 for _ in range(9)]
        values = [rng.randrange(p) for _ in range(9)]
        assert context.mul_batch(pairs) \
            == [reference.mul(a, b) for a, b in pairs]
        assert context.sqr_batch(values) \
            == [reference.sqr(a) for a in values]
        assert context.add_batch(pairs) \
            == [reference.add(a, b) for a, b in pairs]
        assert context.sub_batch(pairs) \
            == [reference.sub(a, b) for a, b in pairs]

    def test_batch_counts_operations_like_the_scalar_api(self,
                                                         toy_params):
        p = toy_params.p
        context = SimulatedFieldContext(p, engine="aot")
        pairs = [(3, 5), (7, 11), (13, 17)]
        before = context.counter.mul
        context.mul_batch(pairs)
        assert context.counter.mul - before == len(pairs)

    def test_checked_context_batches_stay_verified(self, toy_params):
        p = toy_params.p
        context = SimulatedFieldContext(p, checked=True,
                                        check_interval=1)
        reference = FieldContext(p)
        pairs = [(3, 5), (p - 1, p - 2)]
        assert context.mul_batch(pairs) \
            == [reference.mul(a, b) for a, b in pairs]
