"""Telemetry overhead guard: instrumentation must not cost the fast
path its speed.

The aot engine is many times faster than the interpreter on the toy
group action, and telemetry call sites sit on that hot path (one
``record_kernel_run`` per field operation plus span bookkeeping in
the protocol layers).  The contract is that **disabled** telemetry
stays within 5% of the uninstrumented numbers.  Absolute
wall-clock baselines do not transfer between machines, so the guard is
expressed through three machine-independent proxies:

* the aot-vs-interpreter speedup on the toy group action keeps its
  12x floor (``test_aot_overhead.py``; losing the disabled fast path
  would crush it);
* the disabled instrumentation helpers are O(one boolean test) — a
  large batch of calls completes in far less time than even 5% of one
  toy group action;
* enabling telemetry costs only a bounded factor, so the *disabled*
  delta (strictly smaller than the enabled one) is bounded too.

The absolute trajectory PR over PR lives in ``BENCH_protocol.json``
(written by ``repro profile --bench-out``, uploaded by CI), where
same-machine numbers are comparable.
"""

from __future__ import annotations

import random
import time

from repro import telemetry
from repro.csidh.group_action import group_action
from repro.csidh.parameters import csidh_toy
from repro.field.simulated import SimulatedFieldContext
from tests.helpers import interleaved_best

EXPONENTS = (1, -1, 1)


def _run_action() -> float:
    """One toy group action on the simulator; returns wall seconds."""
    params = csidh_toy()
    field = SimulatedFieldContext(params.p)
    start = time.perf_counter()
    group_action(params, field, 0, EXPONENTS, random.Random(3))
    return time.perf_counter() - start


def test_disabled_record_calls_are_noops():
    """The disabled fast path is a single boolean test per call: a
    batch of 200k instrumentation calls costs milliseconds — orders of
    magnitude below 5% of one toy group action (~100 ms)."""
    assert not telemetry.enabled()
    start = time.perf_counter()
    for _ in range(200_000):
        telemetry.record_kernel_run("fp_mul.reduced.ise", "aot",
                                    58, 33)
        telemetry.add_cycles(58)
        with telemetry.span("isogeny", degree=3):
            pass
    elapsed = time.perf_counter() - start
    print(f"\n=== 200k disabled telemetry call groups: "
          f"{elapsed*1e3:.1f} ms ===")
    assert elapsed < 2.0  # generous CI bound; ~0.1 s locally


def test_enabled_overhead_bounded():
    """Even fully enabled, telemetry costs a bounded factor on the
    aot group action (the disabled delta is strictly smaller)."""
    _run_action()  # warm pools

    def enabled_run() -> float:
        params = csidh_toy()
        field = SimulatedFieldContext(params.p)
        with telemetry.capture():
            start = time.perf_counter()
            group_action(params, field, 0, EXPONENTS,
                         random.Random(3))
            return time.perf_counter() - start

    disabled, enabled = interleaved_best(3, _run_action, enabled_run)
    ratio = enabled / disabled
    print(f"\n=== toy action: telemetry off {disabled*1e3:.1f} ms, "
          f"on {enabled*1e3:.1f} ms ({ratio:.2f}x) ===")
    assert ratio < 2.0
