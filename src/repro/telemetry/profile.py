"""Instrumented workloads: run a protocol phase under full telemetry.

:func:`profile_group_action` is the canonical workload behind
``repro profile`` and ``repro action --telemetry``: it executes a real
group action with every field operation on the RV64 simulator
(:class:`~repro.field.simulated.SimulatedFieldContext`), with spans
open across every protocol phase, and returns the cycle-attribution
tree plus the flat metrics.  The invariant that makes the output
trustworthy — checked here, not just asserted in tests — is that the
span tree's grand total equals the field context's independently
accumulated ``simulated_cycles``: every simulated cycle is attributed
to exactly one phase.

This module sits *above* the instrumented layers (it imports csidh and
field code), so it is deliberately not re-exported from
:mod:`repro.telemetry` — import it directly.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

from repro import telemetry
from repro.csidh.group_action import ActionStats, group_action
from repro.csidh.parameters import CsidhParameters
from repro.errors import ParameterError, ReproError
from repro.field.counters import OpCounter
from repro.field.simulated import SimulatedFieldContext
from repro.telemetry.export import to_json_document
from repro.telemetry.spans import SpanNode, render_span_tree

#: Moduli wider than this are refused wherever the interpreter may
#: run (the toy and mini parameter sets are far below it).  The aot
#: engine needs no cap: one CSIDH-512 group action (seed 3: 209
#: isogenies, ~988k field ops) takes about 36 s untraced and about
#: 61 s under ``repro profile`` for ``reduced.ise``, and about 34 s
#: untraced for ``full.isa`` (one x86-64 host, CPython 3.11), at
#: 43-58 us per fused ``fp_mul`` run and about 106 us per Fp mul
#: (two ``fp_mul`` runs plus dispatch).  The interpreter spends about
#: 7-14 ms on one 512-bit mul, which puts the same action at one to
#: two hours.
MAX_SIMULATED_BITS = 160


def check_simulable(params: CsidhParameters, engine: str, *,
                    alternative: str | None = None) -> None:
    """Refuse *params* when *engine* is the interpreter and the modulus
    is wider than :data:`MAX_SIMULATED_BITS`.

    *alternative* names the caller's aot option (e.g. ``"use --engine
    aot"``) and is appended to the one-line refusal.
    """
    bits = params.p.bit_length()
    if engine != "interpreter" or bits <= MAX_SIMULATED_BITS:
        return
    fix = "use --params toy or mini"
    if alternative:
        fix += f", or {alternative}"
    raise ParameterError(
        f"{params.name}: a {bits}-bit modulus is infeasible on the "
        f"interpreter in one process (limit {MAX_SIMULATED_BITS} "
        f"bits); {fix}")


@dataclass(frozen=True)
class ProfileResult:
    """Everything one instrumented group action produced."""

    params: CsidhParameters
    variant: str
    exponents: tuple[int, ...]
    root: SpanNode                      # captured span tree (synthetic root)
    registry: telemetry.MetricsRegistry
    simulated_cycles: int
    simulated_instructions: int
    ops: OpCounter
    stats: ActionStats
    wall_s: float
    coefficient: int

    @property
    def action_node(self) -> SpanNode:
        node = self.root.find("group_action")
        if node is None:  # pragma: no cover - capture always creates it
            raise ReproError("no group_action span recorded")
        return node

    def hot_kernels(self, top: int = 8) -> list[tuple[str, int, int]]:
        """``(kernel, cycles, runs)`` ranked by attributed cycles."""
        cycles = self.registry.counter("kernel_cycles_total")
        runs = self.registry.counter("kernel_runs_total")
        per_kernel_runs: dict[str, int] = {}
        for key, child in runs.children():
            labels = dict(key)
            name = labels.get("kernel", "?")
            per_kernel_runs[name] = (
                per_kernel_runs.get(name, 0) + child.value
            )
        ranked = sorted(
            ((dict(key).get("kernel", "?"), child.value)
             for key, child in cycles.children()),
            key=lambda item: -item[1],
        )
        return [(name, cy, per_kernel_runs.get(name, 0))
                for name, cy in ranked[:top]]

    def workload_dict(self) -> dict:
        """Summary of the profiled workload (for the JSON export)."""
        return {
            "kind": "group_action",
            "params": self.params.name,
            "variant": self.variant,
            "exponents": list(self.exponents),
            "simulated_cycles": self.simulated_cycles,
            "simulated_instructions": self.simulated_instructions,
            "wall_s": self.wall_s,
            "isogenies": self.stats.isogenies,
            "rounds": self.stats.rounds,
            "field_ops": {
                "mul": self.ops.mul, "sqr": self.ops.sqr,
                "add": self.ops.add, "sub": self.ops.sub,
            },
        }

    def to_document(self) -> dict:
        """The JSON export document (spans + metrics + summary)."""
        return to_json_document(self.root, self.registry, extra={
            "workload": self.workload_dict(),
        })

    def bench_record(self) -> dict:
        """Flat summary for the ``BENCH_protocol.json`` trajectory."""
        return {
            "params": self.params.name,
            "variant": self.variant,
            "wall_s": self.wall_s,
            "simulated_cycles": self.simulated_cycles,
            "simulated_instructions": self.simulated_instructions,
            "isogenies": self.stats.isogenies,
            "kernel_runs": self.registry.counter(
                "kernel_runs_total").total(),
            "cycles_by_phase": {
                child.label: child.total_cycles
                for child in self.action_node.children.values()
            },
            "hot_kernels": {
                name: cycles
                for name, cycles, _ in self.hot_kernels(top=5)
            },
        }


def profile_group_action(
    params: CsidhParameters,
    *,
    variant: str = "reduced.ise",
    seed: int = 3,
    exponents: tuple[int, ...] | None = None,
    cross_check: bool = False,
) -> ProfileResult:
    """Run one fully simulated group action under telemetry capture."""
    check_simulable(params, "interpreter" if cross_check else "aot",
                    alternative="drop --cross-check to run on aot")
    rng = random.Random(seed)
    if exponents is None:
        exponents = params.sample_private_key(rng)
    # construct (and pool) the runners outside the capture so one-time
    # assembly/trace-compilation cost does not pollute the span tree
    field = SimulatedFieldContext(params.p, variant=variant,
                                  cross_check=cross_check)
    stats = ActionStats()
    with telemetry.capture() as cap:
        start = time.perf_counter()
        coefficient = group_action(
            params, field, 0, exponents, rng, stats=stats)
        wall_s = time.perf_counter() - start
    result = ProfileResult(
        params=params,
        variant=variant,
        exponents=tuple(exponents),
        root=cap.root,
        registry=cap.registry,
        simulated_cycles=field.simulated_cycles,
        simulated_instructions=field.simulated_instructions,
        ops=field.counter.copy(),
        stats=stats,
        wall_s=wall_s,
        coefficient=coefficient,
    )
    attributed = result.action_node.total_cycles
    if attributed != field.simulated_cycles:
        raise ReproError(
            f"cycle attribution leak: span tree holds {attributed} "
            f"cycles, field context measured {field.simulated_cycles}"
        )
    return result


def render_profile(result: ProfileResult, *, top: int = 8) -> str:
    """Human-readable profile: span tree, hot kernels, engine mix."""
    lines = [
        f"profiled group action: params={result.params.name} "
        f"variant={result.variant} "
        f"isogenies={result.stats.isogenies} "
        f"wall={result.wall_s:.3f}s",
        f"simulated: {result.simulated_cycles:,d} cycles / "
        f"{result.simulated_instructions:,d} instructions",
        "",
        render_span_tree(result.root),
        "",
        f"hot kernels (top {top}):",
    ]
    total = max(result.simulated_cycles, 1)
    for name, cycles, runs in result.hot_kernels(top=top):
        lines.append(
            f"  {name:24s}{cycles:>14,d} cy "
            f"{100.0 * cycles / total:6.1f}%  x{runs}"
        )
    engines = result.registry.counter("machine_runs_total")
    mix = ", ".join(
        f"{dict(key).get('engine', '?')}={child.value}"
        for key, child in sorted(engines.children())
    )
    if mix:
        lines.append(f"engine mix: {mix}")
    demotions = result.registry.counter("aot_demotions_total")
    if demotions.total():
        reasons = ", ".join(
            f"{dict(key).get('reason', '?')}={child.value}"
            for key, child in sorted(demotions.children())
        )
        lines.append(f"aot demotions: {reasons}")
    hits = result.registry.counter("runner_pool_hits_total").total()
    misses = result.registry.counter(
        "runner_pool_misses_total").total()
    if hits or misses:
        lines.append(f"runner pool: {hits} hits, {misses} misses")
    return "\n".join(lines)
