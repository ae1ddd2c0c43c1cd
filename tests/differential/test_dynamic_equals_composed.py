"""Dynamic equals composed: a simulated action's cycles, op by op.

``SimulatedFieldContext`` runs every ``mul`` and ``sqr`` as two
``fp_mul`` runs (the ``R^2`` domain conversion) and every ``add``/
``sub`` as one ``fp_add``/``fp_sub`` run.  Its ``simulated_cycles`` and
``simulated_instructions`` must therefore equal, to the cycle,

    2·(mul + sqr)·fp_mul + add·fp_add + sub·fp_sub

with each cell measured by one interpreter run of the kernel.  On aot
the context counts the runs its thunks serve at their static cost and
adds the measured cost of the runs ``KernelRunner.run`` serves; a trace
hook attached mid-action mixes the two.
"""

from __future__ import annotations

import random

import pytest

from repro.csidh.group_action import group_action
from repro.csidh.parameters import csidh_toy
from repro.field.simulated import SimulatedFieldContext
from repro.kernels.registry import cached_kernels
from repro.kernels.runner import KernelRunner

VARIANTS = ("full.isa", "full.ise", "reduced.isa", "reduced.ise")
EXPONENTS = (1, -1, 1)


def _cells(p: int, variant: str) -> dict[str, tuple[int, int]]:
    """(cycles, instructions) of one interpreter run per Fp kernel."""
    kernels = cached_kernels(p)
    cells = {}
    for op in ("fp_mul", "fp_add", "fp_sub"):
        kernel = kernels[f"{op}.{variant}"]
        run = KernelRunner(kernel).run(*kernel.sampler(random.Random(1)))
        cells[op] = (run.cycles, run.instructions)
    return cells


def _composed(field, cells, index: int) -> int:
    n = field.counter
    return (2 * (n.mul + n.sqr) * cells["fp_mul"][index]
            + n.add * cells["fp_add"][index]
            + n.sub * cells["fp_sub"][index])


class _HookMidAction:
    """Field-op tap: attaches a trace hook to every runner of *field*
    at the *start*-th ``add`` and detaches it at the *stop*-th, so
    the action's runs before and after are served by the thunks and
    the ones in between by ``KernelRunner.run`` on the interpreter."""

    def __init__(self, field, start: int, stop: int) -> None:
        self.field = field
        self.start, self.stop = start, stop
        self.calls = 0
        self.machines = []
        self.steps = 0
        self._add = field.add
        field.add = self.add

    def _on_step(self, state, ins) -> None:
        self.steps += 1

    def add(self, a: int, b: int) -> int:
        self.calls += 1
        runners = (self.field._mul, self.field._add, self.field._sub)
        if self.calls == self.start:
            for runner in runners:
                runner.machine.add_trace_hook(self._on_step)
                self.machines.append(runner.machine)
        elif self.calls == self.stop:
            for machine in self.machines:
                machine.remove_trace_hook(self._on_step)
        return self._add(a, b)


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("hooked", [False, True],
                         ids=["static", "hook-mid-action"])
def test_action_cycles_equal_composed_cells(variant, hooked):
    params = csidh_toy()
    field = SimulatedFieldContext(params.p, variant=variant, engine="aot")
    tap = _HookMidAction(field, 20, 40) if hooked else None
    group_action(params, field, 0, EXPONENTS, random.Random(3))
    cells = _cells(params.p, variant)
    assert field.counter.mul and field.counter.add
    assert field.simulated_cycles == _composed(field, cells, 0)
    assert field.simulated_instructions == _composed(field, cells, 1)
    if hooked:
        assert tap.calls > tap.stop
        assert tap.steps > 0  # some runs were interpreted
