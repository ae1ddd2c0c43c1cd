"""Overhead guard for the hardened ("checked") execution layer.

The acceptance contract of the robustness PR:

* ``checked=True`` at the default sampling interval costs **< 2x** on
  the toy group action relative to the plain aot path — the
  hardening is cheap enough to leave on for production-style runs;
* ``checked=False`` is a no-op: the hot path pays exactly one
  ``is None`` test per kernel run (asserted structurally: a plain
  runner carries no hardening state at all), so the aot speedup guard
  keeps its floor untouched.
"""

from __future__ import annotations

import random
import time

from repro.csidh.group_action import group_action
from repro.csidh.parameters import csidh_toy
from repro.field.simulated import SimulatedFieldContext
from repro.kernels import registry
from repro.rv64.pipeline import ROCKET_CONFIG
from tests.helpers import interleaved_best

EXPONENTS = (1, -1, 1)


def _run_action(*, checked: bool = False) -> float:
    params = csidh_toy()
    field = SimulatedFieldContext(params.p, checked=checked)
    start = time.perf_counter()
    group_action(params, field, 0, EXPONENTS, random.Random(3))
    return time.perf_counter() - start


def test_checked_default_sampling_under_2x():
    """Hardening at the default sampling rate (one verified operation
    in 8) stays under 2x the unhardened aot path."""
    _run_action()                 # warm plain pools
    _run_action(checked=True)     # warm checked pools
    plain, checked = interleaved_best(
        3, _run_action, lambda: _run_action(checked=True))
    ratio = checked / plain
    print(f"\n=== toy action: plain {plain*1e3:.1f} ms, "
          f"checked {checked*1e3:.1f} ms ({ratio:.2f}x) ===")
    assert ratio < 2.0


def test_disabled_hardening_is_structurally_free():
    """checked=False leaves the hot path with a single ``is None``
    test: no hardening object, no reference context, no sampling
    clock anywhere on a plain context or its pooled runners."""
    registry.clear_runner_pool()
    params = csidh_toy()
    field = SimulatedFieldContext(params.p)
    assert not field.checked
    assert field._checked is None
    assert field._reference is None
    for slot in ("_mul", "_add", "_sub"):
        assert getattr(field, slot)._hardening is None
    # and the pool never hands a hardened runner to a plain context
    hardened = registry.cached_runner(
        params.p, "fp_mul.reduced.ise", ROCKET_CONFIG,
        checked=True, check_interval=1)
    assert hardened is not field._mul
    assert field._mul._hardening is None
    registry.clear_runner_pool()
