"""Tracing overhead guard: request traces must ride the PR 2 budget.

PR 7 hung a per-request span tree off every service request (trace
contexts, batch links, kernel-cycle attribution).  All of it funnels
through the same ``record_kernel_run`` call sites PR 2 installed, so
the cost contract is unchanged and re-pinned here:

* **disabled** tracing is one boolean test per hook — a large batch of
  trace-context calls completes in milliseconds;
* a fully **traced** load (capture + request/batch contexts + per
  kernel attribution + summary) costs < 2x the untraced load;
* the aot-vs-interpreter floor lives in ``test_aot_overhead.py``,
  which CI runs in the same pytest process as this file.

Machine-independent ratios only; absolute trajectories live in
``BENCH_*.json`` and are gated by ``repro watchdog``.
"""

from __future__ import annotations

import asyncio
import time

from repro import telemetry
from repro.csidh.parameters import csidh_toy
from repro.service import run_load
from repro.telemetry import tracing
from tests.helpers import interleaved_best


def test_disabled_trace_hooks_are_noops():
    """With telemetry off, every tracing hook bails on one boolean:
    200k hook groups (current_trace + request context + batch begin +
    kernel record) cost milliseconds, far below one toy action."""
    assert not telemetry.enabled()
    start = time.perf_counter()
    for _ in range(200_000):
        assert tracing.current_trace() is None
        telemetry.record_kernel_run("fp_mul.reduced.ise", "aot",
                                    58, 33)
        assert tracing.begin_batch("field.mul", []) is None
    with tracing.request_trace("exchange", tenant="t") as ctx:
        assert ctx.node is None  # nodeless: nothing was recorded
    elapsed = time.perf_counter() - start
    print(f"\n=== 200k disabled tracing hook groups: "
          f"{elapsed*1e3:.1f} ms ===")
    assert elapsed < 2.0  # generous CI bound; well under 1 s locally


def test_traced_load_under_2x():
    """A traced ``repro load`` (capture, request/batch contexts,
    per-kernel cycle attribution, conservation check, summary) costs
    less than 2x the untraced load."""
    params = csidh_toy()

    def measure(*, trace: bool) -> float:
        async def run() -> float:
            start = time.perf_counter()
            report = await run_load(
                params, exchanges=4, concurrency=4, tenants=1,
                engine="aot", seed=0, trace=trace)
            assert report.divergences == 0
            assert (report.trace_summary is not None) == trace
            return time.perf_counter() - start

        return asyncio.run(run())

    measure(trace=False)  # warm kernel/runner pools
    untraced, traced = interleaved_best(
        3, lambda: measure(trace=False), lambda: measure(trace=True))
    ratio = traced / untraced
    print(f"\n=== toy load x4: untraced {untraced*1e3:.1f} ms, "
          f"traced {traced*1e3:.1f} ms ({ratio:.2f}x) ===")
    assert ratio < 2.0

