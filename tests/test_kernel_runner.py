"""Tests for the kernel runner/registry machinery itself."""

from __future__ import annotations

import dataclasses
import os
import pickle
import random

import pytest

from repro.errors import KernelError, ParameterError
from repro.kernels.registry import (
    build_all_kernels,
    build_kernel,
    cached_kernels,
    cached_runner,
    clear_runner_pool,
    evict_runner,
    make_contexts,
)
from repro.kernels.runner import KernelRun, KernelRunner, run_kernel
from repro.kernels.spec import ALL_VARIANTS, TABLE4_OPERATIONS
from repro.rv64.machine import ENGINES
from repro.rv64.pipeline import PipelineConfig


class TestRegistry:
    def test_full_matrix_generated(self, kernels512):
        # 9 operations x 4 variants + operand-scanning (full only)
        assert len(kernels512) == 38
        for op in TABLE4_OPERATIONS:
            for variant in ALL_VARIANTS:
                assert f"{op}.{variant}" in kernels512
        assert "int_mul_os.full.isa" in kernels512
        assert "int_mul_os.full.ise" in kernels512

    def test_cached_kernels_memoised(self, p512):
        assert cached_kernels(p512) is cached_kernels(p512)

    def test_unknown_variant_rejected(self, contexts512):
        with pytest.raises(KernelError):
            build_kernel("int_mul", "full.fancy", contexts512[0])

    def test_contexts_shapes(self, p512):
        full, reduced = make_contexts(p512)
        assert full.radix.limbs == 8
        assert reduced.radix.limbs == 9
        assert full.modulus == reduced.modulus == p512

    def test_sources_end_with_ret(self, kernels512):
        for kernel in kernels512.values():
            assert kernel.source.rstrip().endswith("ret")

    def test_variant_isa_assignment(self, kernels512):
        assert kernels512["int_mul.full.isa"].isa.name == "rv64im"
        assert "ise-full" in kernels512["int_mul.full.ise"].isa.name
        assert "ise-reduced" in \
            kernels512["int_mul.reduced.ise"].isa.name


class TestRunner:
    def test_wrong_arity_rejected(self, kernels512):
        runner = KernelRunner(kernels512["int_mul.full.isa"])
        with pytest.raises(KernelError, match="operands"):
            runner.run(1)

    def test_mismatch_detection(self, kernels512, monkeypatch):
        kernel = kernels512["int_mul.full.isa"]
        bad = kernel.__class__(**{**kernel.__dict__,
                                  "reference": lambda a, b: a * b + 1})
        with pytest.raises(KernelError, match="expected"):
            KernelRunner(bad).run(3, 4)

    def test_check_can_be_disabled(self, kernels512):
        kernel = kernels512["int_mul.full.isa"]
        bad = kernel.__class__(**{**kernel.__dict__,
                                  "reference": lambda a, b: a * b + 1})
        run = KernelRunner(bad).run(3, 4, check=False)
        assert run.value == 12

    def test_reuse_across_runs(self, kernels512, rng, p512):
        runner = KernelRunner(kernels512["fp_add.full.isa"])
        for _ in range(5):
            a, b = rng.randrange(p512), rng.randrange(p512)
            assert runner.run(a, b).value == (a + b) % p512

    def test_cycles_deterministic(self, kernels512, rng, p512):
        """Straight-line kernels: cycle count independent of data."""
        runner = KernelRunner(kernels512["fp_mul.reduced.ise"])
        cycles = {
            runner.run(rng.randrange(p512), rng.randrange(p512)).cycles
            for _ in range(4)
        }
        assert len(cycles) == 1

    def test_run_kernel_one_shot(self, kernels512):
        run = run_kernel(kernels512["int_sqr.full.isa"], 12345)
        assert run.value == 12345 ** 2

    def test_pipeline_config_changes_cycles(self, kernels512):
        kernel = kernels512["int_mul.full.isa"]
        fast = KernelRunner(
            kernel, pipeline_config=PipelineConfig(mul_latency=1))
        slow = KernelRunner(
            kernel, pipeline_config=PipelineConfig(mul_latency=6))
        assert slow.run(3, 4).cycles > fast.run(3, 4).cycles

    def test_missing_pipeline_raises_not_zero(self, kernels512):
        """A machine without a timing model must fail loudly: a silent
        cycles=0 would corrupt every downstream evaluation table."""
        runner = KernelRunner(kernels512["fp_add.full.isa"])
        runner.machine.pipeline = None
        with pytest.raises(KernelError, match="no cycle count"):
            runner.run(3, 4)

    def test_static_cycles_matches_measured(self, kernels512):
        runner = KernelRunner(kernels512["fp_mul.reduced.ise"])
        assert runner.static_cycles() == runner.run(3, 4).cycles

    def test_code_bytes_reported(self, kernels512):
        runner = KernelRunner(kernels512["int_mul.full.isa"])
        assert runner.code_bytes > 4 * 500  # ~560 unrolled instructions

    def test_instruction_count_reasonable(self, kernels512):
        run = KernelRunner(kernels512["int_mul.full.isa"]).run(1, 1)
        # 64 MACs x 8 + loads/stores/overhead, well under 700
        assert 500 < run.instructions < 700


class TestToyModulus:
    """Kernels must generalise to small fields (used by the simulated
    end-to-end CSIDH runs)."""

    @pytest.mark.parametrize("variant", ALL_VARIANTS)
    def test_single_limb_kernels(self, toy_params, variant, rng):
        kernels = build_all_kernels(toy_params.p)
        p = toy_params.p
        mul = KernelRunner(kernels[f"fp_mul.{variant}"])
        ctx = mul.kernel.context
        for _ in range(4):
            a, b = rng.randrange(p), rng.randrange(p)
            assert mul.run(a, b).value == ctx.montgomery_multiply(a, b)

    @pytest.mark.parametrize("variant", ALL_VARIANTS)
    def test_single_limb_add_sub(self, toy_params, variant, rng):
        kernels = build_all_kernels(toy_params.p)
        p = toy_params.p
        add = KernelRunner(kernels[f"fp_add.{variant}"])
        sub = KernelRunner(kernels[f"fp_sub.{variant}"])
        for _ in range(4):
            a, b = rng.randrange(p), rng.randrange(p)
            assert add.run(a, b).value == (a + b) % p
            assert sub.run(a, b).value == (a - b) % p


class TestEngineSelection:
    """Engine plumbing: runner tiers, pool keys, batch accounting."""

    def test_unknown_engine_rejected(self, toy_params):
        kernels = build_all_kernels(toy_params.p)
        with pytest.raises(KernelError, match="unknown engine"):
            KernelRunner(kernels["fp_add.reduced.ise"],
                         engine="turbo")
        runner = KernelRunner(kernels["fp_add.reduced.ise"])
        with pytest.raises(KernelError, match="unknown engine"):
            runner.run(1, 2, engine="turbo")
        with pytest.raises(KernelError, match="unknown engine"):
            runner.run_batch([(1, 2)], engine="turbo")

    def test_pool_is_keyed_by_engine(self, toy_params):
        clear_runner_pool()
        p = toy_params.p
        interpreter = cached_runner(p, "fp_add.reduced.ise")
        aot = cached_runner(p, "fp_add.reduced.ise", engine="aot")
        assert interpreter is not aot
        assert cached_runner(p, "fp_add.reduced.ise",
                             engine="aot") is aot
        assert evict_runner(p, "fp_add.reduced.ise", engine="aot")
        assert cached_runner(p, "fp_add.reduced.ise",
                             engine="aot") is not aot
        clear_runner_pool()

    def test_run_batch_rejects_wrong_arity(self, toy_params):
        kernels = build_all_kernels(toy_params.p)
        runner = KernelRunner(kernels["fp_add.reduced.ise"])
        with pytest.raises(KernelError, match="expects 2 operands"):
            runner.run_batch([(1, 2), (3,)])

    @pytest.mark.parametrize("engine", ENGINES)
    def test_batch_counters_match_looped_singles(self, toy_params,
                                                 rng, engine):
        """Identical kernel/machine run accounting, batch vs loop."""
        from repro import telemetry

        kernels = build_all_kernels(toy_params.p)
        runner = KernelRunner(kernels["fp_add.reduced.ise"],
                              engine=engine)
        p = toy_params.p
        sets = [(rng.randrange(p), rng.randrange(p))
                for _ in range(6)]
        runner.run_batch(sets[:1])  # compile outside the captures

        def shared_counters(registry):
            return {
                name: samples
                for name, samples in registry.to_dict().items()
                if name in ("kernel_runs_total", "machine_runs_total")
            }

        with telemetry.capture(fresh=True) as loop_cap:
            looped = [runner.run(*values) for values in sets]
        with telemetry.capture(fresh=True) as batch_cap:
            batched = runner.run_batch(sets)

        assert [r.value for r in batched] == [r.value for r in looped]
        assert shared_counters(loop_cap.registry) \
            == shared_counters(batch_cap.registry)

    def test_checked_batch_takes_the_scalar_path(self, toy_params,
                                                 rng):
        """Hardened runners demote batches to per-item scalar runs so
        every safety check still fires."""
        clear_runner_pool()
        p = toy_params.p
        runner = cached_runner(p, "fp_add.reduced.ise", checked=True,
                               check_interval=1)
        sets = [(rng.randrange(p), rng.randrange(p))
                for _ in range(3)]
        runs = runner.run_batch(sets)
        assert [r.value for r in runs] \
            == [(a + b) % p for a, b in sets]
        clear_runner_pool()

    def test_batch_without_thunk_demotes(self, toy_params, rng):
        """An aot batch on a runner without an entry thunk runs every
        item on the interpreter, one demotion each."""
        from repro import telemetry

        kernels = build_all_kernels(toy_params.p)
        runner = KernelRunner(kernels["fp_add.reduced.ise"])
        p = toy_params.p
        sets = [(rng.randrange(p), rng.randrange(p))
                for _ in range(4)]
        looped = [runner.run(*values) for values in sets]
        with telemetry.capture(fresh=True) as cap:
            batched = runner.run_batch(sets, engine="aot")

        def observed(runs):
            return [(r.value, r.limbs, r.cycles, r.instructions)
                    for r in runs]

        assert observed(batched) == observed(looped)
        demotions = cap.registry.counter("aot_demotions_total")
        assert demotions.value(reason="not_compilable") == len(sets)

    def test_out_of_range_operand_fails_fast(self, kernels512):
        """A negative or over-wide operand on an aot runner raises
        ParameterError from limb marshalling, without compiling
        anything or counting a demotion."""
        from repro import telemetry

        kernel = kernels512["fp_mul.reduced.ise"]
        runner = KernelRunner(kernel, engine="aot")
        assert runner._aot_thunk is not None
        radix = kernel.context.radix
        too_wide = 1 << (radix.bits * kernel.input_limbs[0])
        with telemetry.capture(fresh=True) as cap:
            for operands in ((-1, 5), (too_wide, 5), (5, too_wide)):
                with pytest.raises(ParameterError):
                    runner.run(*operands)
            with pytest.raises(ParameterError):
                runner.run_batch([(3, 5), (-1, 5)])
        assert cap.registry.counter("aot_compiles_total").total() == 0
        assert cap.registry.counter("aot_demotions_total").total() == 0


    def test_aot_construction_writes_no_file(self, toy_params, tmp_path,
                                             monkeypatch):
        """Each aot runner fuses its own thunk in memory: building one
        per CSIDH-toy kernel and an aot field context leaves nothing on
        disk, in the home directory or in the working directory."""
        from repro.field.simulated import SimulatedFieldContext

        home, cwd = tmp_path / "home", tmp_path / "cwd"
        home.mkdir()
        cwd.mkdir()
        monkeypatch.setenv("HOME", str(home))
        # no variable may steer a write away from the two directories
        for name in [name for name in os.environ
                     if name.startswith("REPRO_")]:
            monkeypatch.delenv(name)
        monkeypatch.delenv("XDG_CACHE_HOME", raising=False)
        monkeypatch.chdir(cwd)
        runners = [KernelRunner(kernel, engine="aot")
                   for kernel in build_all_kernels(toy_params.p).values()]
        assert any(runner._aot_thunk is not None for runner in runners)
        scope = "aot-construction-writes-no-file"
        try:
            field = SimulatedFieldContext(toy_params.p, engine="aot",
                                          scope=scope)
            assert field.mul(field.add(3, 4), 5) == 35 % toy_params.p
        finally:
            clear_runner_pool(scope)
        assert list(home.rglob("*")) == []
        assert list(cwd.rglob("*")) == []


class TestKernelRunContract:
    """A run is a frozen tuple holding its limbs as raw bytes
    (interpreter), a tuple (built by hand or unpickled) or a deferred
    read-out (aot), yet all three read, compare, hash, print and pickle
    exactly alike."""

    @pytest.mark.parametrize("name", ["fp_mul.full.ise",
                                      "fp_mul.reduced.isa"])
    def test_interpreter_run_matches_aot_run(self, kernels512, name):
        kernel = kernels512[name]
        operands = kernel.sampler(random.Random(name))
        interpreted = KernelRunner(kernel).run(*operands)
        aot_runner = KernelRunner(kernel, engine="aot")
        assert aot_runner._aot_thunk is not None
        deferred = aot_runner.run(*operands)
        explicit = KernelRun(value=interpreted.value,
                             limbs=tuple(interpreted.limbs),
                             instructions=interpreted.instructions,
                             cycles=interpreted.cycles)
        forms = (interpreted, deferred, explicit)
        assert type(interpreted[3]) is bytes
        assert deferred[3] is aot_runner._aot_thunk
        assert type(explicit[3]) is tuple

        assert not hasattr(interpreted, "__dict__")
        assert all(type(limb) is int for limb in interpreted.limbs)
        assert len(interpreted.limbs) == kernel.output_limbs
        for run in forms:
            assert run.limbs == explicit.limbs
            assert run.cpi == run.cycles / run.instructions
            for other in forms:
                assert run == other and not run != other
                assert hash(run) == hash(other)
                assert repr(run) == repr(other)
            restored = pickle.loads(pickle.dumps(run))
            assert restored == run and type(restored[3]) is tuple
            for field in ("value", "limbs", "instructions", "cycles",
                          "extra"):
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(run, field, 0)
                with pytest.raises(dataclasses.FrozenInstanceError):
                    delattr(run, field)
            with pytest.raises(TypeError):
                run < explicit  # noqa: B015 - runs are unordered
            assert run != (run.value, run.limbs, run.instructions,
                           run.cycles)
        assert deferred != KernelRun(
            value=deferred.value, limbs=deferred.limbs,
            instructions=deferred.instructions, cycles=deferred.cycles + 1)

    @pytest.mark.parametrize("name", ["int_mul.full.isa",
                                      "int_mul.reduced.isa"])
    def test_interpreter_run_holds_its_result_once(self, kernels512, name):
        """A kept interpreter run stores the result-buffer bytes and no
        value int: ``value`` is recombined from them, per radix, and
        reads, compares, hashes, prints and pickles as before."""
        kernel = kernels512[name]
        operands = kernel.sampler(random.Random(name))
        run = KernelRunner(kernel).run(*operands)
        expected = kernel.reference(*operands)
        assert type(run[3]) is bytes
        assert not [item for item in run
                    if type(item) is int and item.bit_length() > 64]
        assert run.value == expected
        assert kernel.context.radix.from_limbs(run.limbs) == expected
        explicit = KernelRun(value=expected, limbs=run.limbs,
                             instructions=run.instructions,
                             cycles=run.cycles)
        assert run == explicit and hash(run) == hash(explicit)
        assert repr(run) == repr(explicit)
        restored = pickle.loads(pickle.dumps(run))
        assert restored == run and restored.value == expected
        assert type(restored[0]) is int

    def test_keyword_construction_and_immutability(self):
        run = KernelRun(value=7, limbs=(7, 0), instructions=3, cycles=5)
        assert run == KernelRun(value=7, limbs=(7, 0), instructions=3,
                                cycles=5)
        assert repr(run) == ("KernelRun(value=7, limbs=(7, 0), "
                             "instructions=3, cycles=5)")
        assert run.cpi == 5 / 3
        with pytest.raises(dataclasses.FrozenInstanceError):
            run.cycles = 6  # type: ignore[misc]
        assert pickle.loads(pickle.dumps(run)) == run
