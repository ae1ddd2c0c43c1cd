"""Unit tests for the hardened ("checked") execution layer.

Covers both levels of the defence:

* :class:`~repro.kernels.runner.KernelRunner` checked mode — sampled
  cross-validation of values against the kernel's pure-Python
  reference and of cycle counts against the straight-line baseline;
* :class:`~repro.field.simulated.SimulatedFieldContext` recovery —
  eviction of the poisoned runner, trace invalidation, and bounded
  interpreter re-execution, up to
  :class:`~repro.errors.RecoveryExhaustedError`.

Plus the structural guarantees the benchmarks rely on: a runner with
hardening disabled carries ``None`` state (one boolean test on the hot
path), and checked runners never share a pool slot with plain ones.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro import telemetry
from repro.csidh.parameters import csidh_toy
from repro.errors import FaultDetectedError, RecoveryExhaustedError
from repro.field.fp import FieldContext
from repro.field.simulated import SimulatedFieldContext
from repro.kernels import registry
from repro.rv64.pipeline import ROCKET_CONFIG

P = csidh_toy().p


@pytest.fixture(autouse=True)
def _fresh_pool():
    registry.clear_runner_pool()
    yield
    registry.clear_runner_pool()


def _runner(*, checked: bool, name: str = "fp_mul.reduced.ise",
            interval: int = 1):
    return registry.cached_runner(P, name, ROCKET_CONFIG,
                                  checked=checked,
                                  check_interval=interval)


class TestRunnerCheckedMode:
    def test_clean_run_passes(self):
        runner = _runner(checked=True)
        ctx = runner.kernel.context
        run = runner.run(3, ctx.r2_mod_p, engine="aot")
        assert run.value == runner.kernel.reference(3, ctx.r2_mod_p)

    def test_value_corruption_detected(self):
        runner = _runner(checked=True)
        runner.set_fault_hook(
            lambda limbs: (limbs[0] ^ 1,) + limbs[1:])
        with pytest.raises(FaultDetectedError, match="diverged"):
            runner.run(3, 5, engine="aot")
        runner.clear_fault_hook()

    def test_cycle_corruption_detected(self):
        runner = _runner(checked=True)
        machine = runner.machine
        trace = machine._trace_for(runner.entry)
        assert trace is not None and trace.cycles is not None
        # re-fuse the entry thunk from a trace with a corrupted cost
        fused = runner.fuse_entry(dataclasses.replace(
            trace, cycles=trace.cycles + 3))
        machine._aot_entry_cache[runner.entry] = fused
        runner._aot_thunk = fused.fn
        try:
            with pytest.raises(FaultDetectedError, match="cycle count"):
                runner.run(3, 5, engine="aot")
        finally:
            machine._aot_entry_cache.pop(runner.entry, None)
            runner._aot_thunk = None

    def test_sampling_interval_honoured(self):
        runner = _runner(checked=True, interval=4)
        with telemetry.capture(fresh=True) as cap:
            for _ in range(8):
                runner.run(3, 5, engine="aot")
        checked = cap.registry.counter("checked_runs_total")
        assert checked.total() == 2  # 8 runs / interval 4

    def test_disable_checked_drops_state(self):
        runner = _runner(checked=True)
        assert runner.checked
        runner.disable_checked()
        assert not runner.checked
        assert runner._hardening is None  # back to the one-test path

    def test_unchecked_runner_has_no_hardening_state(self):
        runner = _runner(checked=False)
        assert runner._hardening is None
        assert not runner.checked

    def test_fault_hook_without_checked_perturbs_silently(self):
        """The injection seam works on unchecked runners too — that is
        what an *escaped* fault would look like, so the seam must not
        imply detection."""
        runner = _runner(checked=False, name="fp_add.reduced.ise")
        runner.set_fault_hook(lambda limbs: (limbs[0] ^ 1,) + limbs[1:])
        try:
            run = runner.run(4, 5, engine="aot", check=False)
            assert run.value != runner.kernel.reference(4, 5)
        finally:
            runner.clear_fault_hook()
        assert runner._hardening is None


class TestRunnerPoolSeparation:
    def test_checked_and_plain_never_share(self):
        plain = _runner(checked=False)
        hardened = _runner(checked=True)
        assert plain is not hardened
        assert _runner(checked=False) is plain
        assert _runner(checked=True) is hardened

    def test_evict_runner(self):
        hardened = _runner(checked=True)
        assert registry.evict_runner(P, "fp_mul.reduced.ise",
                                     ROCKET_CONFIG, checked=True)
        assert not registry.evict_runner(P, "fp_mul.reduced.ise",
                                         ROCKET_CONFIG, checked=True)
        assert _runner(checked=True) is not hardened


class TestContextRecovery:
    def test_detection_then_recovery_yields_correct_value(self):
        context = SimulatedFieldContext(P, checked=True,
                                        check_interval=1)
        reference = FieldContext(P)
        fired = []

        def hook(limbs):
            if not fired:
                fired.append(True)
                return (limbs[0] ^ (1 << 5),) + limbs[1:]
            return limbs

        context._mul.set_fault_hook(hook)
        try:
            assert context.mul(6, 7) == reference.mul(6, 7)
        finally:
            context._mul.clear_fault_hook()
        assert context.fault_detections == 1
        assert context.fault_recoveries == 1

    def test_recovery_emits_telemetry_and_evicts(self):
        with telemetry.capture(fresh=True) as cap:
            context = SimulatedFieldContext(P, checked=True,
                                            check_interval=1)
            context._sub.set_fault_hook(
                lambda limbs: (limbs[0] ^ 1,) + limbs[1:])
            assert context.sub(9, 4) == 5
        recoveries = cap.registry.counter("fault_recoveries_total")
        assert recoveries.value(operation="sub",
                                outcome="recovered") == 1
        assert cap.registry.counter("runner_evictions_total").total() >= 1

    def test_unrecoverable_divergence_exhausts(self, monkeypatch):
        context = SimulatedFieldContext(P, checked=True,
                                        check_interval=1,
                                        max_recovery_attempts=2)
        # ground truth itself disagrees forever: no rebuild can help
        monkeypatch.setattr(context._reference, "add",
                            lambda a, b: -1)
        with pytest.raises(RecoveryExhaustedError, match="2 interpreter"):
            context.add(1, 2)
        assert context.fault_detections == 1
        assert context.fault_recoveries == 0

    def test_unchecked_context_has_no_checked_state(self):
        context = SimulatedFieldContext(P)
        assert not context.checked
        assert context._checked is None
        assert context._reference is None
        assert context.mul(3, 4) == FieldContext(P).mul(3, 4)

    def test_checked_context_sampling_interval(self):
        context = SimulatedFieldContext(P, checked=True,
                                        check_interval=3)
        reference = FieldContext(P)
        for i in range(9):
            assert context.add(i, i + 1) == reference.add(i, i + 1)
        # runners sample at the same interval; 2 runs in 9 adds... the
        # context-level clock fired 3 times out of 9 operations
        assert context._checked.clock == 0
