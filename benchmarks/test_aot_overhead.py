"""Speedup guards for the aot execution engine and its artifact cache.

The engine contract, checked once here:

* the aot engine runs the toy group action at least **12x** faster than
  the interpreter — the product of the floors the retired intermediate
  tiers guarded (replay > 3x over the interpreter, jit >= 2x over
  replay, aot >= 2x over jit), so collapsing the ladder cannot hide a
  slower top rung;
* constructing runners against a **warm** artifact cache is faster
  than a cold construction (trace + symbolic execution + codegen are
  skipped; the stored thunk source is just re-bound);
* checked mode costs < 2x over plain aot execution.
"""

from __future__ import annotations

import random
import time

from repro.csidh.group_action import group_action
from repro.csidh.parameters import csidh_toy
from repro.field.simulated import SimulatedFieldContext
from repro.kernels.registry import cached_kernels
from repro.kernels.runner import KernelRunner

EXPONENTS = (1, -1, 1)


def _run_action(*, engine: str = "aot", checked: bool = False) -> float:
    params = csidh_toy()
    field = SimulatedFieldContext(params.p, engine=engine,
                                  checked=checked)
    start = time.perf_counter()
    group_action(params, field, 0, EXPONENTS, random.Random(3))
    return time.perf_counter() - start


def _best_of(n: int, run) -> float:
    return min(run() for _ in range(n))


def test_aot_at_least_12x_over_interpreter():
    """The fused engine beats the interpreter by the combined floor of
    the retired tiers on a full toy group action."""
    _run_action(engine="interpreter")
    _run_action()               # warm pools + aot caches
    interp = _best_of(2, lambda: _run_action(engine="interpreter"))
    aot = _best_of(4, _run_action)
    ratio = interp / aot
    print(f"\n=== toy action: interpreter {interp*1e3:.1f} ms, "
          f"aot {aot*1e3:.1f} ms ({ratio:.2f}x) ===")
    assert ratio > 12.0


def _construct_all(kernels) -> float:
    start = time.perf_counter()
    for kernel in kernels.values():
        KernelRunner(kernel, engine="aot")
    return time.perf_counter() - start


def test_warm_artifact_cache_beats_cold_start(monkeypatch, tmp_path):
    """Binding persisted thunks is faster than re-tracing and re-fusing
    the whole kernel matrix from scratch."""
    kernels = cached_kernels(csidh_toy().p)

    cold = float("inf")
    for index in range(3):
        monkeypatch.setenv("REPRO_AOT_CACHE",
                           str(tmp_path / f"cold{index}"))
        cold = min(cold, _construct_all(kernels))

    warm_dir = tmp_path / "warm"
    monkeypatch.setenv("REPRO_AOT_CACHE", str(warm_dir))
    _construct_all(kernels)  # populate the cache
    warm = _best_of(3, lambda: _construct_all(kernels))

    ratio = cold / warm
    print(f"\n=== {len(kernels)} runners: cold {cold*1e3:.1f} ms, "
          f"warm {warm*1e3:.1f} ms ({ratio:.2f}x) ===")
    assert warm < cold


def test_checked_mode_guard_intact():
    """Hardening still costs < 2x over plain aot execution."""
    _run_action()
    _run_action(checked=True)
    plain = _best_of(3, _run_action)
    checked = _best_of(3, lambda: _run_action(checked=True))
    ratio = checked / plain
    print(f"\n=== toy action: plain {plain*1e3:.1f} ms, "
          f"checked {checked*1e3:.1f} ms ({ratio:.2f}x) ===")
    assert ratio < 2.0
