"""Fault-injection campaign acceptance: nothing escapes, almost
everything recovers, and the protocol layer's output validation closes
the loop end-to-end.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.csidh.parameters import csidh_toy
from repro.csidh.protocol import Csidh, key_exchange_demo
from repro.errors import FaultDetectedError
from repro.fault import ALL_SITES, FaultPlan, run_campaign
from repro.fault.campaign import (
    OUTCOME_ESCAPED,
    OUTCOME_MASKED,
    OUTCOME_RECOVERED,
    OUTCOMES,
)
from repro.field.fp import FieldContext
from repro.field.simulated import SimulatedFieldContext


#: The deterministic fields (``outcomes``, ``by_site``, ``trials``) of
#: ``repro faults --params toy --n 25 --seed 1 --json``.
GOLDEN_FAULT_REPORT = (Path(__file__).resolve().parent
                       / "golden_fault_report_toy_seed1.json")


@pytest.fixture(scope="module")
def report():
    """The reference campaign (same shape the CI smoke job runs)."""
    return run_campaign(csidh_toy().p, seed=1, n=25)


class TestCampaignAcceptance:
    def test_no_fault_escapes(self, report):
        assert report.escaped == 0
        for trial in report.trials:
            assert trial.outcome != OUTCOME_ESCAPED

    def test_recovery_rate_at_least_90_percent(self, report):
        assert report.detected > 0
        assert report.recovery_rate >= 0.9

    def test_every_site_exercised(self, report):
        assert set(report.by_site) == set(ALL_SITES)

    def test_recovered_trials_saw_detection_and_recovery(self, report):
        for trial in report.trials:
            if trial.outcome == OUTCOME_RECOVERED:
                assert trial.detections >= 1
                assert trial.recoveries >= 1
            if trial.outcome == OUTCOME_MASKED:
                assert trial.detections == 0

    def test_outcome_partition(self, report):
        assert sum(report.outcomes.values()) == report.n
        assert set(report.outcomes) == set(OUTCOMES)

    def test_report_is_json_roundtrippable(self, report):
        document = json.loads(json.dumps(report.to_dict()))
        assert document["seed"] == 1
        assert document["escaped"] == 0
        assert len(document["trials"]) == 25
        injected = document["metrics"]["faults_injected_total"]
        assert sum(e["value"] for e in injected) == 25

    def test_outcomes_match_the_golden_report(self, report):
        """Every trial's outcome, pinned: a change to the engines or the
        fault seam that moves one shows here, and CI's fault-campaign
        job diffs its own report against the same file."""
        document = json.loads(json.dumps(report.to_dict()))
        golden = json.loads(GOLDEN_FAULT_REPORT.read_text())
        assert {key: document[key] for key in golden} == golden

    def test_trials_follow_the_plan(self, report):
        planned = FaultPlan(seed=1).generate(25)
        assert [t.site for t in report.trials] \
            == [s.site for s in planned]
        assert [t.operation for t in report.trials] \
            == [s.operation for s in planned]


class TestCampaignKnobs:
    def test_site_restriction(self):
        restricted = run_campaign(csidh_toy().p, seed=3, n=6,
                                  sites=("output_corrupt",))
        assert set(restricted.by_site) == {"output_corrupt"}
        assert restricted.escaped == 0

    def test_isa_variant_campaign(self):
        """The hardening layer is variant-agnostic: the ISA-only
        kernels survive the same campaign."""
        isa = run_campaign(csidh_toy().p, seed=4, n=6,
                           variant="reduced.isa")
        assert isa.escaped == 0
        assert isa.recovery_rate >= 0.9


class TestProtocolOutputValidation:
    """The CSIDH fault-attack countermeasure: outputs are validated
    supersingular before release (``verify_output=True``)."""

    def test_honest_exchange_passes_validation(self):
        params = csidh_toy()
        alice = Csidh(params, seed=11, verify_output=True)
        bob = Csidh(params, seed=12, verify_output=True)
        alice_priv, alice_pub = alice.keygen()
        bob_priv, bob_pub = bob.keygen()
        assert alice.shared_secret(alice_priv, bob_pub) \
            == bob.shared_secret(bob_priv, alice_pub)

    def test_corrupted_output_withheld(self):
        params = csidh_toy()
        party = Csidh(params, seed=11, verify_output=True)
        # the singular curve A=2 can never be a group-action result;
        # a fault that skews the walk there must be caught
        with pytest.raises(FaultDetectedError, match="withholding"):
            party._checked_output(2, "shared secret")

    def test_validation_off_by_default(self):
        params = csidh_toy()
        party = Csidh(params, seed=11)
        assert party._checked_output(2, "shared secret") == 2


class TestSelfHealingEndToEnd:
    """A checked simulated context heals around a persistent fault and
    still completes protocol-grade work with correct results."""

    def test_exchange_on_checked_context_matches_pure_python(self):
        params = csidh_toy()
        field = SimulatedFieldContext(params.p, checked=True,
                                      check_interval=1)
        alice = Csidh(params, field=field, seed=21)
        private, public = alice.keygen()

        pure = Csidh(params, field=FieldContext(params.p), seed=21)
        assert public.coefficient == pure.keygen()[1].coefficient

    def test_poisoned_trace_healed_mid_stream(self):
        from repro.fault import arm_fault
        from repro.fault.plan import FaultSite

        p = csidh_toy().p
        context = SimulatedFieldContext(p, checked=True,
                                        check_interval=1)
        reference = FieldContext(p)
        site = FaultSite(index=0, site="replay_closure_corrupt",
                         operation="mul", step=5, bit=13, lane=3,
                         delta=1)
        armed = arm_fault(context._mul, site)
        try:
            # the poison is persistent until recovery evicts the trace;
            # every subsequent product must still come out right
            for a, b in [(3, 5), (7, 11), (p - 1, p - 2), (42, 81)]:
                assert context.mul(a, b) == reference.mul(a, b)
        finally:
            armed.disarm()
        assert context.fault_recoveries == context.fault_detections


class TestAotFaultSeam:
    """The three trace sites poison a copy of the static trace and
    re-fuse the entry thunk from it: every aot run sees the fault,
    checked mode catches it, and ``disarm()`` restores the healthy
    trace and thunk."""

    #: (site, step): steps chosen to perturb the toy fp_mul kernel
    SITES = (("replay_step_skip", 2), ("replay_closure_corrupt", 5),
             ("replay_cycles_corrupt", 0))

    @staticmethod
    def _site(name: str, step: int):
        from repro.fault.plan import FaultSite

        return FaultSite(index=0, site=name, operation="mul", step=step,
                         bit=13, lane=3, delta=1)

    @pytest.mark.parametrize("name,step", SITES)
    def test_trace_site_perturbs_aot_and_is_detected(
            self, name, step):
        import random

        from repro.fault import arm_fault
        from repro.kernels.registry import cached_kernels
        from repro.kernels.runner import KernelRunner

        kernel = cached_kernels(csidh_toy().p)["fp_mul.reduced.ise"]
        runner = KernelRunner(kernel, engine="aot")
        checked = KernelRunner(kernel, engine="aot", checked=True,
                               check_interval=1)
        values = kernel.sampler(random.Random(7))

        def observe(engine):
            run = runner.run(*values, check=False, engine=engine)
            return (run.limbs, run.cycles, run.instructions,
                    list(runner.machine.state.regs._regs))

        healthy = observe("interpreter")
        armed = arm_fault(runner, self._site(name, step))
        armed_checked = arm_fault(checked, self._site(name, step))
        try:
            poisoned = observe("aot")
            assert poisoned[:2] != healthy[:2], \
                "the armed fault must change the value or the cycles"
            with pytest.raises(FaultDetectedError):
                checked.run(*values, check=False)
        finally:
            armed.disarm()
            armed_checked.disarm()
        assert observe("aot") == healthy

    def test_poisoning_refuses_and_disarm_restores_the_fused_functions(
            self):
        from repro.fault import arm_fault
        from repro.kernels.registry import cached_kernels
        from repro.kernels.runner import KernelRunner

        kernels = cached_kernels(csidh_toy().p)
        runner = KernelRunner(kernels["fp_mul.reduced.ise"],
                              engine="aot")
        machine = runner.machine
        pristine = (machine._trace_for(runner.entry),
                    machine._aot_entry_cache[runner.entry],
                    runner._aot_thunk)

        armed = arm_fault(runner, self._site("replay_step_skip", 5))
        try:
            assert machine._trace_cache[runner.entry] is not pristine[0]
            assert machine._aot_entry_cache[runner.entry] \
                is not pristine[1]
            assert runner._aot_thunk is not pristine[2]
        finally:
            armed.disarm()
        assert (machine._trace_cache[runner.entry],
                machine._aot_entry_cache[runner.entry],
                runner._aot_thunk) == pristine

    def test_context_heals_and_evicts_the_fused_functions(self):
        from repro import telemetry
        from repro.fault import arm_fault

        p = csidh_toy().p
        context = SimulatedFieldContext(p, checked=True,
                                        check_interval=1)
        assert context.engine == "aot"
        reference = FieldContext(p)
        context.mul(2, 3)  # build the runner and its thunk first

        armed = arm_fault(context._mul,
                          self._site("replay_step_skip", 2))
        try:
            with telemetry.capture(fresh=True) as cap:
                for a, b in [(3, 5), (7, 11), (p - 1, p - 2), (42, 81)]:
                    assert context.mul(a, b) == reference.mul(a, b)
        finally:
            armed.disarm()
        assert context.fault_detections >= 1
        assert context.fault_recoveries == context.fault_detections
        # recovery dropped the fused tier, not just the trace
        evictions = cap.registry.counter("aot_evictions_total")
        assert evictions.value() >= 1
        invalidations = cap.registry.counter("trace_invalidations_total")
        assert invalidations.value() >= 1

    def test_unfusable_poison_is_reported_and_masked(self):
        """Skipping the last result store leaves a trace that no longer
        fuses: the refusal is counted, the description says runs use
        the interpreter, and the untouched interpreter masks the fault
        with the correct value."""
        from repro import telemetry
        from repro.fault.campaign import _run_trial
        from repro.kernels import registry

        registry.clear_runner_pool()
        p = csidh_toy().p
        context = SimulatedFieldContext(p, checked=True,
                                        check_interval=1)
        runner = context._mul
        steps = runner.machine._trace_for(runner.entry).step_instructions
        a0 = 10  # the result pointer register
        store = max(index for index, (_pc, ins, _spec) in enumerate(steps)
                    if ins.mnemonic == "sd" and ins.rs1 == a0)
        with telemetry.capture(fresh=True) as cap:
            trial = _run_trial(context, context._reference,
                               self._site("replay_step_skip", store),
                               3, 5)
        assert trial.outcome == OUTCOME_MASKED
        assert trial.detections == 0
        assert "does not fuse: unsupported_access" in trial.description
        assert "runs use the interpreter" in trial.description
        rejects = cap.registry.counter("aot_rejects_total")
        assert rejects.value(reason="unsupported_access") == 1
        demotions = cap.registry.counter("aot_demotions_total")
        assert demotions.value(reason="not_compilable") >= 1
        assert runner._aot_thunk is not None  # disarm restored it
        registry.clear_runner_pool()
