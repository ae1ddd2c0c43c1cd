"""The direct field path against its forced-fallback twin.

``SimulatedFieldContext.mul``/``sqr``/``add``/``sub`` call the runner's
aot entry thunk directly, count its runs at the fused entry's static
cost and build no ``KernelRun``; :meth:`KernelRunner.run` is their only
fallback.  The twin here has the direct path switched off
(``KernelRunner.direct_entry`` refuses), so ``KernelRunner.run`` serves
every run on the same thunks, which each comparison checks by counting
the runs it returns.  Both must agree on everything a caller can
observe: values, simulated cycles and instructions, the kernel,
machine-run and checked-run counters, and the span tree's cycles and
counts under a request trace.  Each fallback trigger (an invalidated
trace, a trace hook, a fault hook, a fused entry without a cycle count)
must demote exactly as ``KernelRunner.run`` does, also when it arrives
after the context has run ops on the direct path.
"""

from __future__ import annotations

import dataclasses
import random
import threading
from contextlib import contextmanager

import pytest

from repro import telemetry
from repro.csidh.group_action import group_action
from repro.csidh.parameters import csidh_toy
from repro.errors import KernelError
from repro.field.simulated import SimulatedFieldContext
from repro.kernels import registry
from repro.kernels.runner import KernelRunner
from repro.telemetry import tracing

EXPONENTS = (1, -1, 1)

#: Counter families both paths must move identically.
_FAMILIES = (
    "kernel_runs_total", "kernel_cycles_total",
    "kernel_instructions_total", "machine_runs_total",
    "checked_runs_total", "aot_demotions_total",
    "faults_detected_total", "fault_recoveries_total",
)


@pytest.fixture(autouse=True)
def _fresh_pool():
    """Triggers below damage pooled runners; no test shares them."""
    registry.clear_runner_pool()
    yield
    registry.clear_runner_pool()


def _on_both_paths(monkeypatch, observe) -> tuple[dict, dict, int]:
    """``observe()`` on the direct path, then on fresh runners with the
    direct path off; with the number of runs ``KernelRunner.run``
    served on the direct path.  The twin must have sent it every run:
    a direct path that bypasses the switch fails here."""
    served = []
    real_run = KernelRunner.run

    def counted(runner, *values, **options):
        run = real_run(runner, *values, **options)
        served.append(run)
        return run

    with monkeypatch.context() as patch:
        patch.setattr(KernelRunner, "run", counted)
        direct = observe()
        served_direct = len(served)
        registry.clear_runner_pool()
        patch.setattr(KernelRunner, "direct_entry",
                      lambda runner, engine: None)
        served.clear()
        fallback = observe()
    runs = sum(_runs(fallback, "kernel_runs_total").values())
    assert runs and len(served) == runs, (len(served), runs)
    return direct, fallback, served_direct


def _observe(field, work, *, trace: bool = False) -> dict:
    """Run *work* on *field* under a fresh capture: everything the two
    paths must agree on (span wall-clock times aside)."""
    with telemetry.capture() as cap:
        if trace:
            with tracing.request_trace("keygen", trace_id="d1ec7") as ctx:
                with tracing.activate(ctx):
                    value = work()
        else:
            value = work()
    return {
        "value": value,
        "cycles": field.simulated_cycles,
        "instructions": field.simulated_instructions,
        "counters": {name: samples
                     for name, samples in cap.registry.to_dict().items()
                     if name in _FAMILIES},
        "tree": [(node.name, node.labels, node.count, node.self_cycles)
                 for node in cap.root.walk()],
    }


def _runs(observed, family: str) -> dict:
    return {tuple(sample["labels"].values()): sample["value"]
            for sample in observed["counters"].get(family, [])}


@pytest.mark.parametrize("checked", [False, True])
@pytest.mark.parametrize("trace", [False, True])
def test_action_matches_the_fallback_twin(monkeypatch, checked, trace):
    """The toy action on the direct path and on ``KernelRunner.run``:
    same value, cycles, instructions, counters and span tree.  A
    checked context samples the same runs on both paths."""
    params = csidh_toy()

    def observe() -> dict:
        SimulatedFieldContext(params.p, checked=checked)  # warm the pool
        field = SimulatedFieldContext(params.p, checked=checked)
        return _observe(field, lambda: group_action(
            params, field, 0, EXPONENTS, random.Random(3)), trace=trace)

    direct, fallback, served = _on_both_paths(monkeypatch, observe)
    assert direct == fallback
    assert served == 0
    assert list(_runs(direct, "machine_runs_total")) == [("aot",)]
    assert sum(_runs(direct, "kernel_runs_total").values()) \
        == _runs(direct, "machine_runs_total")[("aot",)]
    assert bool(_runs(direct, "checked_runs_total")) == checked
    if trace:
        kernels = [row for row in direct["tree"] if row[0] == "kernel"]
        assert kernels and all(count for _, _, count, _ in kernels)


def _ops(field) -> list[int]:
    """Three products (two ``fp_mul`` runs each), one add, one sub."""
    p = field.p
    a, b = p - 2, p // 3
    return [field.mul(a, b), field.sqr(a), field.mul(0, p - 1),
            field.add(a, b), field.sub(b, a)]


def _runners(field):
    return field._mul, field._add, field._sub


@contextmanager
def _invalidated(field):
    for runner in _runners(field):
        runner.machine.invalidate_trace(runner.entry)
    yield


@contextmanager
def _trace_hooks(field):
    hooks = [runner.machine.trace_hook(lambda state, ins: None)
             for runner in _runners(field)]
    for hook in hooks:
        hook.__enter__()
    try:
        yield
    finally:
        for hook in hooks:
            hook.__exit__(None, None, None)


def _flip_low_bit(limbs):
    return (limbs[0] ^ 1, *limbs[1:])


@contextmanager
def _fault_hooks(field):
    for runner in _runners(field):
        runner.set_fault_hook(_flip_low_bit)
    try:
        yield
    finally:
        for runner in _runners(field):
            runner.clear_fault_hook()


@pytest.mark.parametrize("trigger, engine, reason", [
    (_invalidated, "interpreter", "not_compilable"),
    (_trace_hooks, "interpreter", "trace_hooks"),
    (_fault_hooks, "aot", None),
])
def test_fallback_triggers_demote_as_kernel_runner_run(
        monkeypatch, trigger, engine, reason):
    """Each trigger hands every run to ``KernelRunner.run``, which
    demotes it (or applies the fault hook) exactly as for the twin."""

    def observe() -> dict:
        field = SimulatedFieldContext(csidh_toy().p)
        with trigger(field):
            return _observe(field, lambda: _ops(field))

    direct, fallback, served = _on_both_paths(monkeypatch, observe)
    assert direct == fallback
    runs = 8
    assert served == runs
    assert sum(_runs(direct, "kernel_runs_total").values()) == runs
    assert _runs(direct, "machine_runs_total") == {(engine,): runs}
    assert _runs(direct, "aot_demotions_total") \
        == ({(reason,): runs} if reason else {})


@pytest.mark.parametrize("trigger", [_invalidated, _trace_hooks,
                                     _fault_hooks])
def test_trigger_after_direct_runs_reaches_kernel_runner_run(
        monkeypatch, trigger):
    """A trigger that arrives after the context has run ops on the
    direct path sends every later run to ``KernelRunner.run``; cycles
    counted before and measured after add up as on the twin."""

    def observe() -> dict:
        field = SimulatedFieldContext(csidh_toy().p)

        def work() -> list[int]:
            before = _ops(field)
            with trigger(field):
                return before + _ops(field)

        return _observe(field, work)

    direct, fallback, served = _on_both_paths(monkeypatch, observe)
    assert direct == fallback
    assert served == 8
    assert sum(_runs(direct, "kernel_runs_total").values()) == 16


def test_fault_hook_result_reaches_the_caller():
    """The fault hook's perturbation is what the field op returns: the
    direct path never bypasses the read-out seam."""
    field = SimulatedFieldContext(csidh_toy().p)
    clean = field.add(5, 7)
    with _fault_hooks(field):
        assert field.add(5, 7) == clean ^ 1


def test_thunk_without_cycles_falls_back_and_raises():
    """A thunk fused from a trace without a cycle count has no static
    cost: the context does not bind it, and ``KernelRunner.run``, which
    serves the run instead, refuses it."""
    field = SimulatedFieldContext(csidh_toy().p)
    runner = field._mul
    machine = runner.machine
    trace = machine._trace_for(runner.entry)
    fused = runner.fuse_entry(dataclasses.replace(trace, cycles=None))
    machine._aot_entry_cache[runner.entry] = fused
    runner._aot_thunk = fused.fn
    assert runner.static_cost is None
    with pytest.raises(KernelError, match="no cycle count"):
        field.mul(3, 5)


def test_swapped_thunk_is_rebound_at_its_own_cost():
    """Runs counted before a runner's thunk is swapped keep the old
    static cost; runs after it count at the cost of the new fused
    entry (here one re-fused from a trace 3 cycles dearer)."""
    field = SimulatedFieldContext(csidh_toy().p)
    runner = field._add
    cycles, instructions = runner.static_cost
    field.add(1, 2)
    field.add(3, 4)
    machine = runner.machine
    trace = machine._trace_for(runner.entry)
    fused = runner.fuse_entry(dataclasses.replace(
        trace, cycles=trace.cycles + 3))
    machine._aot_entry_cache[runner.entry] = fused
    runner._aot_thunk = fused.fn
    assert field.add(5, 6) == 11
    assert field.simulated_cycles == 2 * cycles + (cycles + 3)
    assert field.simulated_instructions == 3 * instructions


def test_fault_in_the_second_product_run_books_the_first(monkeypatch):
    """A checked ``mul`` whose second ``fp_mul`` run fails its sampled
    check: the first run counts and the second does not, as on
    ``KernelRunner.run``; recovery then re-executes the product."""
    p = csidh_toy().p

    def observe() -> dict:
        field = SimulatedFieldContext(p, checked=True, check_interval=1)
        runner = field._mul
        thunk = runner._aot_thunk
        r2 = field._r2

        def wrong_product(*args):
            value = thunk(*args)
            if len(args) == 2 and args[1] != r2 and value is not None:
                return value ^ 1
            return value

        runner._aot_thunk = wrong_product
        return _observe(field, lambda: field.mul(p - 2, p // 3))

    direct, fallback, served = _on_both_paths(monkeypatch, observe)
    assert direct == fallback
    assert served == 2  # the recovery's interpreter runs
    assert direct["value"] == (p - 2) * (p // 3) % p
    assert _runs(direct, "kernel_runs_total") == {
        ("aot", "fp_mul.reduced.ise"): 1,  # labels in sorted order
        ("interpreter", "fp_mul.reduced.ise"): 2}
    assert _runs(direct, "fault_recoveries_total") \
        == {("mul", "recovered"): 1}


# -- the booking target under a moving span, trace, tracer or thread -------

def _recorded(registry, root) -> dict:
    """The counters and span tree one capture holds."""
    return {
        "counters": {name: samples
                     for name, samples in registry.to_dict().items()
                     if name in _FAMILIES},
        "tree": [(node.name, node.labels, node.count, node.self_cycles)
                 for node in root.walk()],
    }


def _spans_between_ops(field) -> list[int]:
    values = _ops(field)
    with telemetry.span("outer"):
        values += _ops(field)
        with telemetry.span("inner", depth=2):
            values += _ops(field)
        values += _ops(field)
    return values + _ops(field)


def _trace_mid_action(field) -> list[int]:
    values = _ops(field)
    with tracing.request_trace("exchange", trace_id="b00c") as ctx:
        values += _ops(field)
        with tracing.activate(ctx):
            values += _ops(field)
            with telemetry.span("isogeny", degree=3):
                values += _ops(field)
        values += _ops(field)
    return values + _ops(field)


@pytest.mark.parametrize("work", [_spans_between_ops, _trace_mid_action],
                         ids=["spans", "trace"])
def test_booking_follows_spans_and_traces(monkeypatch, work):
    """Spans opened and closed between ops, and a trace activated in
    the middle of them: every run lands where ``KernelRunner.run``
    books it."""

    def observe() -> dict:
        field = SimulatedFieldContext(csidh_toy().p)
        return _observe(field, lambda: work(field))

    direct, fallback, served = _on_both_paths(monkeypatch, observe)
    assert direct == fallback
    assert served == 0
    rows = {row[0] for row in direct["tree"]}
    assert {"outer", "inner"} <= rows or {"request", "kernel"} <= rows


def test_booking_follows_capture_and_reset(monkeypatch):
    """A nested ``capture()`` (which swaps the tracer and registry) and
    a ``reset()`` between ops: each capture holds exactly the runs made
    while it was installed, as on the twin."""

    def observe() -> dict:
        field = SimulatedFieldContext(csidh_toy().p)
        with telemetry.capture() as outer:
            values = _ops(field)
            with telemetry.capture() as inner:
                values += _ops(field)
                with telemetry.span("nested"):
                    values += _ops(field)
            values += _ops(field)
            seen_before_reset = _recorded(outer.registry, outer.root)
            telemetry.reset()
            with telemetry.span("after_reset"):
                values += _ops(field)
            values += _ops(field)
        parts = [_recorded(inner.registry, inner.root), seen_before_reset,
                 _recorded(outer.registry, outer.root)]
        return {"value": values,
                "cycles": field.simulated_cycles,
                "parts": parts,
                "counters": _summed([part["counters"] for part in parts])}

    direct, fallback, served = _on_both_paths(monkeypatch, observe)
    assert direct == fallback
    assert served == 0
    inner, before_reset, after_reset = direct["parts"]
    assert [sum(_runs(part, "kernel_runs_total").values())
            for part in direct["parts"]] == [16, 16, 16]
    assert ("nested", (), 1) in [row[:3] for row in inner["tree"]]
    assert "nested" not in [row[0] for row in before_reset["tree"]]
    assert "after_reset" in [row[0] for row in after_reset["tree"]]


def _summed(counter_sets: list) -> dict:
    """Counter samples added up, label set by label set."""
    totals: dict = {}
    for counters in counter_sets:
        for name, samples in counters.items():
            family = totals.setdefault(name, {})
            for sample in samples:
                key = tuple(sample["labels"].items())
                family[key] = family.get(key, 0) + sample["value"]
    return {name: [{"labels": dict(key), "value": value}
                   for key, value in sorted(family.items())]
            for name, family in sorted(totals.items())}


def test_two_threads_share_one_context(monkeypatch):
    """Two threads run ops on one context, each inside its own span and
    interleaved op by op: the runs of each land in its own span."""

    def observe() -> dict:
        field = SimulatedFieldContext(csidh_toy().p)
        turns = [threading.Semaphore(1), threading.Semaphore(0)]
        values = {}

        def worker(index: int) -> None:
            mine = []
            with telemetry.span("worker", index=index):
                for _round in range(3):
                    turns[index].acquire()
                    mine += _ops(field)
                    turns[1 - index].release()
            values[index] = mine

        def work() -> dict:
            threads = [threading.Thread(target=worker, args=(index,))
                       for index in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            return values

        return _observe(field, work)

    direct, fallback, served = _on_both_paths(monkeypatch, observe)
    assert direct == fallback
    assert served == 0
    workers = [row for row in direct["tree"] if row[0] == "worker"]
    assert len(workers) == 2
    assert workers[0][3] == workers[1][3] > 0
