"""Instrumented CSIDH runs: field-operation counts for the cycle model.

:func:`count_group_action` executes a real group action with a counting
:class:`FieldContext` and returns the exact number of F_p
multiplications, squarings, additions and subtractions performed.
Combined with the per-operation cycle costs measured on the ISA
simulator, this reproduces the paper's Table 4 bottom row (the
CSIDH-512 group action takes roughly half a million field
multiplications-equivalents, dominating everything above it).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.csidh.group_action import ActionStats, group_action
from repro.csidh.parameters import CsidhParameters
from repro.errors import ParameterError
from repro.field.counters import OpCounter
from repro.field.fp import FieldContext


@dataclass(frozen=True)
class GroupActionProfile:
    """Operation counts and diagnostics of one (or several) actions."""

    ops: OpCounter
    stats: ActionStats
    actions: int

    def per_action(self) -> OpCounter:
        n = max(self.actions, 1)
        return OpCounter(
            mul=self.ops.mul // n,
            sqr=self.ops.sqr // n,
            add=self.ops.add // n,
            sub=self.ops.sub // n,
        )


def count_group_action(
    params: CsidhParameters,
    exponents: tuple[int, ...],
    *,
    coefficient: int = 0,
    seed: int = 0,
) -> GroupActionProfile:
    """Count the field work of one group-action evaluation."""
    counter = OpCounter()
    field = FieldContext(params.p, counter)
    stats = ActionStats()
    group_action(params, field, coefficient, exponents,
                 random.Random(seed), stats=stats)
    return GroupActionProfile(ops=counter, stats=stats, actions=1)


def average_group_action_profile(
    params: CsidhParameters,
    *,
    keys: int = 3,
    seed: int = 0,
) -> GroupActionProfile:
    """Average the op counts over *keys* random private keys.

    The group action's cost varies with the exponent vector and the luck
    of the point sampling; the paper reports a single number per
    variant, which we model as the mean over seeded random keys.
    Raises :class:`~repro.errors.ParameterError` for fewer than one key:
    a mean over no actions has no value.
    """
    if keys < 1:
        raise ParameterError(f"keys must be at least 1 (got {keys})")
    rng = random.Random(seed)
    total = OpCounter()
    stats = ActionStats()
    for _ in range(keys):
        exponents = params.sample_private_key(rng)
        counter = OpCounter()
        field = FieldContext(params.p, counter)
        group_action(params, field, 0, exponents, rng, stats=stats)
        total = total + counter
    return GroupActionProfile(ops=total, stats=stats, actions=keys)
