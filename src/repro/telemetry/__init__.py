"""Telemetry: hierarchical cycle-attribution spans + a metrics registry.

The observability layer behind ``repro profile`` and the
``--telemetry`` CLI flags (see ``docs/OBSERVABILITY.md``).  Three
pieces:

* :mod:`repro.telemetry.metrics` — counters, gauges and histograms
  with labels, collected in a :class:`MetricsRegistry`;
* :mod:`repro.telemetry.spans` — a :class:`Tracer` recording a tree of
  spans that accumulate wall-clock seconds and *simulated cycles*, so
  an instrumented protocol run decomposes exactly like the paper's
  Table 4 (protocol -> curve ops -> isogenies -> kernels);
* :mod:`repro.telemetry.export` — JSON / JSONL / Prometheus-text
  exporters and the ``BENCH_*.json`` perf-trajectory artifact.

This module owns the **process-global instances** (:data:`TRACER`,
:data:`REGISTRY`) plus the module-level helpers the rest of the
codebase calls, and the table of built-in metric families
(:data:`FAMILIES`): each family is declared there once and recorded by
name through :func:`record`, with :func:`record_kernel_run` as the
one-event-per-run hot path.  Everything is **disabled by default**:
``span()`` hands out a shared no-op context manager and every recorder
returns after one boolean test, so instrumentation on the kernel-run
hot path costs nanoseconds until :func:`enable` (or :func:`capture`)
turns recording on.  Private :class:`Tracer` / :class:`MetricsRegistry`
instances remain plain constructible objects for tests and embedders.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass
from threading import get_ident
from typing import Iterator

from repro.telemetry.metrics import (
    MUTATION_LOCK,
    Counter,
    FamilySpec,
    Gauge,
    Histogram,
    MetricsRegistry,
    TelemetryError,
)
from repro.telemetry.spans import (
    ACTIVE_TRACE,
    SpanNode,
    Tracer,
    render_span_tree,
)

__all__ = [
    "Counter", "Gauge", "Histogram", "MetricsRegistry", "FamilySpec",
    "SpanNode", "Tracer", "TelemetryError", "TraceContext",
    "TRACER", "REGISTRY", "FAMILIES",
    "enabled", "enable", "disable", "reset", "capture", "span",
    "add_cycles", "render_span_tree",
    "new_trace_id", "current_trace", "request_trace", "activate",
    "record", "record_kernel_run", "record_machine_run",
    "record_aot_demotion", "KernelBooking",
]

#: Process-global span recorder (disabled until :func:`enable`).
TRACER = Tracer()

#: Process-global metrics registry fed by the built-in instrumentation.
REGISTRY = MetricsRegistry()


def enabled() -> bool:
    """Whether telemetry recording is currently on."""
    return TRACER.enabled


def enable() -> None:
    """Turn recording on (spans and metrics)."""
    TRACER.enabled = True


def disable() -> None:
    """Turn recording off (recorded data is kept)."""
    TRACER.enabled = False


def reset() -> None:
    """Drop all recorded spans and metrics."""
    TRACER.reset()
    REGISTRY.reset()


def span(name: str, **labels: object):
    """Open a span under the current one (no-op while disabled)."""
    return TRACER.span(name, **labels)


def add_cycles(cycles: int) -> None:
    """Attribute simulated cycles to the innermost open span."""
    TRACER.add_cycles(cycles)


@dataclass(frozen=True)
class Capture:
    """Handle to the telemetry state recorded by :func:`capture`."""

    tracer: Tracer
    registry: MetricsRegistry

    @property
    def root(self) -> SpanNode:
        return self.tracer.root


@contextmanager
def capture(*, fresh: bool = True) -> Iterator[Capture]:
    """Enable telemetry for a ``with`` block.

    With ``fresh`` (the default) the block records into **private**
    :class:`Tracer` / :class:`MetricsRegistry` instances installed as
    the process globals for the block's duration, so the capture holds
    exactly the block's activity and the returned :class:`Capture`
    stays readable after later :func:`reset` calls.  With
    ``fresh=False`` the block records into the existing global state
    (accumulating across captures).  The prior globals and
    enabled/disabled flag are restored on exit.
    """
    global TRACER, REGISTRY
    if fresh:
        tracer, registry = Tracer(), MetricsRegistry()
    else:
        tracer, registry = TRACER, REGISTRY
    prior_tracer, prior_registry = TRACER, REGISTRY
    prior_enabled = tracer.enabled
    TRACER, REGISTRY = tracer, registry
    tracer.enabled = True
    try:
        yield Capture(tracer, registry)
    finally:
        tracer.enabled = prior_enabled
        TRACER, REGISTRY = prior_tracer, prior_registry


# ---------------------------------------------------------------------------
# Built-in metric families: declared once, recorded by name
# ---------------------------------------------------------------------------

#: Latency buckets for service requests (seconds; the cycle-flavoured
#: default buckets would put every request in the first bucket).
SERVICE_LATENCY_BUCKETS = (
    0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
)


def _declare(*specs: FamilySpec) -> dict[str, FamilySpec]:
    table: dict[str, FamilySpec] = {}
    for spec in specs:
        if spec.name in table:
            raise TelemetryError(f"metric {spec.name!r} declared twice")
        table[spec.name] = spec
    return table


#: Every built-in family: name, kind, help, label names (in the order
#: :func:`record` takes their values) and, for histograms, buckets.
#: ``docs/OBSERVABILITY.md`` lists the same families, one row each.
FAMILIES = _declare(
    # kernels, the runner pool and the simulator (repro.kernels, rv64)
    FamilySpec("kernel_runs_total", "counter",
               "kernel executions by engine", ("kernel", "engine")),
    FamilySpec("kernel_cycles_total", "counter",
               "simulated cycles per kernel", ("kernel",)),
    FamilySpec("kernel_instructions_total", "counter",
               "retired instructions per kernel", ("kernel",)),
    FamilySpec("kernel_check_failures_total", "counter",
               "golden-reference mismatches", ("kernel",)),
    FamilySpec("runner_pool_hits_total", "counter",
               "runner pool lookups"),
    FamilySpec("runner_pool_misses_total", "counter",
               "runner pool lookups"),
    FamilySpec("runner_pool_size", "gauge",
               "pooled runners"),
    FamilySpec("machine_runs_total", "counter",
               "Machine.run calls by engine", ("engine",)),
    FamilySpec("trace_compiles_total", "counter",
               "static traces compiled"),
    FamilySpec("trace_rejects_total", "counter",
               "static trace compilation refusals", ("reason",)),
    # the aot tier (repro.rv64.aot)
    FamilySpec("aot_compiles_total", "counter",
               "aot functions compiled"),
    FamilySpec("aot_compile_seconds", "histogram",
               "whole-kernel aot fusion wall time"),
    FamilySpec("aot_rejects_total", "counter",
               "aot compilation refusals", ("reason",)),
    FamilySpec("aot_demotions_total", "counter",
               "aot requests demoted to the interpreter", ("reason",)),
    FamilySpec("aot_lift_refusals_total", "counter",
               "wide-word lifts the guard refused", ("reason",)),
    FamilySpec("aot_evictions_total", "counter",
               "compiled aot functions evicted"),
    # fault injection and the hardened execution layer (repro.fault)
    FamilySpec("faults_injected_total", "counter",
               "armed faults by site and kernel", ("site", "kernel")),
    FamilySpec("faults_detected_total", "counter",
               "checked-mode divergences by detection point",
               ("where", "engine")),
    FamilySpec("fault_recoveries_total", "counter",
               "recovery outcomes after a detected fault",
               ("operation", "outcome")),
    FamilySpec("checked_runs_total", "counter",
               "sampled reference cross-validations", ("kernel",)),
    FamilySpec("runner_evictions_total", "counter",
               "runner pool evictions", ("kernel",)),
    FamilySpec("trace_invalidations_total", "counter",
               "static traces invalidated"),
    # the multi-tenant key-exchange service (repro.service)
    FamilySpec("service_requests_total", "counter",
               "service requests by tenant, op and outcome",
               ("tenant", "op", "outcome")),
    FamilySpec("service_rejections_total", "counter",
               "admission-control rejections by tenant and reason",
               ("tenant", "reason")),
    FamilySpec("service_request_seconds", "histogram",
               "service request latency", ("op",), SERVICE_LATENCY_BUCKETS),
    FamilySpec("service_inflight", "gauge",
               "admitted in-flight requests", ("tenant",)),
    FamilySpec("service_demotions_total", "counter",
               "tenant engine demotions by reason",
               ("tenant", "engine_from", "engine_to", "reason")),
    FamilySpec("service_promotions_total", "counter",
               "tenant engine promotions after sustained health",
               ("tenant", "engine_to")),
    FamilySpec("service_coalesced_batches_total", "counter",
               "coalesced batches executed", ("op",)),
    FamilySpec("service_coalesced_items_total", "counter",
               "requests served through coalesced batches", ("op",)),
    FamilySpec("service_internal_errors_total", "counter",
               "unexpected exceptions answered with the service code",
               ("op",)),
    FamilySpec("service_retries_total", "counter",
               "client request retries by op and reason", ("op", "reason")),
    FamilySpec("service_reconnects_total", "counter",
               "client reconnections"),
    FamilySpec("service_deadline_exceeded_total", "counter",
               "requests that ran out of deadline budget", ("op", "where")),
    FamilySpec("circuit_state", "gauge",
               "per-tenant circuit-breaker state", ("tenant",)),
)


def _child(name: str, labels: tuple):
    """The current registry's child of built-in family *name*."""
    registry = REGISTRY
    child = registry.bound.get((name, labels))
    if child is None:
        spec = FAMILIES.get(name)
        if spec is None:
            raise TelemetryError(f"undeclared metric family {name!r}")
        child = registry.bind(spec, labels)
    return child


def record(name: str, *labels: object, value: float = 1) -> None:
    """Record *value* into built-in family *name* (no-op while disabled).

    *labels* are the label values in the family's declared order.  A
    counter adds *value*, a gauge is set to it and a histogram observes
    it.  Raises :class:`TelemetryError` for an undeclared family or a
    wrong number of label values.
    """
    if not TRACER.enabled:
        return
    child = _child(name, labels)
    with MUTATION_LOCK:
        child.record(value)


def _kernel_children(kernel: str, engine: str) -> tuple:
    """The current registry's ``machine_runs_total`` (aot only) and
    three ``kernel_*`` children of one (kernel, engine), looked up once
    per registry; the caller holds :data:`MUTATION_LOCK`."""
    table = REGISTRY.kernel_children
    children = table.get((kernel, engine))
    if children is None:
        children = table[(kernel, engine)] = (
            _child("machine_runs_total", (engine,))
            if engine == "aot" else None,
            _child("kernel_runs_total", (kernel, engine)),
            _child("kernel_cycles_total", (kernel,)),
            _child("kernel_instructions_total", (kernel,)))
    return children


def record_kernel_run(
    kernel: str, engine: str, cycles: int, instructions: int,
    runs: int = 1,
) -> None:
    """*runs* executions of one kernel on one engine, booked as one
    event (*cycles* and *instructions* are their totals): the cycles
    go to the innermost span and the three ``kernel_*`` counters move,
    under one lock; the counters' children are looked up once per
    (kernel, engine) and registry.

    An aot run also counts in ``machine_runs_total{aot}`` (an
    interpreted run books its own, in :meth:`Machine.run`): in the same
    lock while telemetry is on, and through :func:`record_machine_run`,
    once per run, while it is off, so a tap on that hook sees every
    execution without turning telemetry on."""
    tracer = TRACER
    if not tracer.enabled:
        if engine == "aot":
            for _ in range(runs):
                record_machine_run(engine)
        return
    with MUTATION_LOCK:
        machine, counted, spent, retired = _kernel_children(kernel, engine)
        tracer.book_kernel_cycles(kernel, engine, cycles, runs)
        counted.value += runs
        spent.value += cycles
        retired.value += instructions
        if machine is not None:
            machine.value += runs


class KernelBooking:
    """Where one kernel's runs on one engine are booked while telemetry
    is on, resolved once and reused: what :func:`record_kernel_run`
    looks up on every call.

    The target is the calling thread's innermost span node (under an
    active trace, its ``kernel[engine=...,kernel=...]`` child, whose
    ``count`` grows by the runs) and the ``kernel_*`` and
    ``machine_runs_total`` counter children.  :meth:`book` resolves it
    again when it may have moved: another :data:`TRACER` (which
    :func:`capture` swaps) or a new span epoch of it (the tracer takes a
    new one on every span entry and exit, adoption, trace activation
    and reset), another registry or a reset of it, another calling
    thread, or another active trace.  The check and the booking run
    under :data:`MUTATION_LOCK`, so threads sharing one booking see a
    consistent target."""

    __slots__ = ("kernel", "engine", "_epoch", "_table", "_thread",
                 "_trace", "_node", "_counts", "_children")

    def __init__(self, kernel: str, engine: str) -> None:
        self.kernel = kernel
        self.engine = engine
        self._epoch = None
        self._table = None
        self._thread = None
        self._trace = None
        self._node = None
        self._counts = False
        self._children = None

    def book(self, cycles: int, instructions: int, runs: int = 1) -> None:
        """:func:`record_kernel_run` into the resolved target; the caller
        has checked that telemetry is on."""
        with MUTATION_LOCK:
            if (TRACER.epoch != self._epoch
                    or REGISTRY.kernel_children is not self._table
                    or get_ident() != self._thread
                    or ACTIVE_TRACE.get() is not self._trace):
                self._resolve()
            node = self._node
            node.self_cycles += cycles
            if self._counts:
                node.count += runs
            machine, counted, spent, retired = self._children
            counted.value += runs
            spent.value += cycles
            retired.value += instructions
            if machine is not None:
                machine.value += runs

    def _resolve(self) -> None:
        tracer = TRACER
        self._epoch = tracer.epoch
        self._table = REGISTRY.kernel_children
        self._thread = get_ident()
        self._trace = trace = ACTIVE_TRACE.get()
        self._children = _kernel_children(self.kernel, self.engine)
        node = tracer.current()
        self._counts = trace is not None
        if trace is not None:
            node = node.child("kernel", (("engine", self.engine),
                                         ("kernel", self.kernel)))
            if node.start_epoch is None:
                node.start_epoch = time.time()
        self._node = node


def record_machine_run(engine: str) -> None:
    """One kernel execution — an interpreted :meth:`Machine.run` or an
    aot entry-thunk run — labeled by the engine that ran.  While
    telemetry is off, aot runs reach it from the direct field path
    (:class:`~repro.field.simulated.SimulatedFieldContext`, once per
    run) and through :func:`record_kernel_run`; while it is on, that
    function books them itself."""
    if TRACER.enabled:
        record("machine_runs_total", engine)


def record_aot_demotion(reason: str) -> None:
    """A requested aot run demoted to the interpreter, by reason."""
    if TRACER.enabled:
        record("aot_demotions_total", reason)


# -- per-request trace contexts (see repro.telemetry.tracing) ----------------
# Imported last: tracing reads this module's globals at call time, so
# the import must not run before TRACER/REGISTRY exist.

from repro.telemetry.tracing import (  # noqa: E402
    TraceContext,
    activate,
    current_trace,
    new_trace_id,
    request_trace,
)
