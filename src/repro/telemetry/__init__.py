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
codebase calls.  Everything is **disabled by default**: ``span()``
hands out a shared no-op context manager and every ``record_*`` helper
returns after one boolean test, so instrumentation on the kernel-run
hot path costs nanoseconds until :func:`enable` (or :func:`capture`)
turns recording on.  Private :class:`Tracer` / :class:`MetricsRegistry`
instances remain plain constructible objects for tests and embedders.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

from repro.telemetry.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    TelemetryError,
)
from repro.telemetry.spans import SpanNode, Tracer, render_span_tree

__all__ = [
    "Counter", "Gauge", "Histogram", "MetricsRegistry",
    "SpanNode", "Tracer", "TelemetryError", "TraceContext",
    "TRACER", "REGISTRY",
    "enabled", "enable", "disable", "reset", "capture", "span",
    "add_cycles", "render_span_tree",
    "new_trace_id", "current_trace", "request_trace", "activate",
    "record_kernel_run", "record_kernel_check_failure",
    "record_kernel_batch",
    "record_pool_access", "record_machine_run",
    "record_trace_compile", "record_trace_reject",
    "record_aot_compile", "record_aot_reject", "record_aot_demotion",
    "record_aot_cache_hit", "record_aot_evicted",
    "record_artifact_cache_hit", "record_artifact_cache_miss",
    "record_artifact_cache_write", "record_artifact_invalidated",
    "record_fault_injected", "record_fault_detected",
    "record_fault_recovery", "record_checked_run",
    "record_runner_evicted", "record_trace_invalidated",
    "record_service_request", "record_service_rejected",
    "record_service_latency", "record_service_inflight",
    "record_service_demotion", "record_service_promotion",
    "record_coalesced_batch",
    "record_service_internal_error", "record_service_retry",
    "record_service_reconnect", "record_deadline_exceeded",
    "record_circuit_state",
    "record_chaos_injection", "record_chaos_trial",
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
# Instrumentation helpers (called from the hot paths; each starts with
# the disabled-fast-path test and must stay call-overhead cheap)
# ---------------------------------------------------------------------------


def record_kernel_run(
    kernel: str, engine: str, cycles: int, instructions: int
) -> None:
    """One :class:`~repro.kernels.runner.KernelRunner` execution."""
    if not TRACER.enabled:
        return
    TRACER.add_kernel_cycles(kernel, engine, cycles)
    REGISTRY.counter(
        "kernel_runs_total", "kernel executions by engine"
    ).inc(kernel=kernel, engine=engine)
    REGISTRY.counter(
        "kernel_cycles_total", "simulated cycles per kernel"
    ).inc(cycles, kernel=kernel)
    REGISTRY.counter(
        "kernel_instructions_total", "retired instructions per kernel"
    ).inc(instructions, kernel=kernel)


def record_kernel_check_failure(kernel: str) -> None:
    """A golden-reference verification failure in a kernel run."""
    if not TRACER.enabled:
        return
    REGISTRY.counter(
        "kernel_check_failures_total",
        "golden-reference mismatches",
    ).inc(kernel=kernel)


def record_pool_access(hit: bool, size: int) -> None:
    """One :func:`~repro.kernels.registry.cached_runner` lookup."""
    if not TRACER.enabled:
        return
    name = ("runner_pool_hits_total" if hit
            else "runner_pool_misses_total")
    REGISTRY.counter(name, "runner pool lookups").inc()
    REGISTRY.gauge("runner_pool_size", "pooled runners").set(size)


def record_machine_run(engine: str) -> None:
    """One kernel execution — an interpreted :meth:`Machine.run` or an
    aot entry-thunk run — labeled by the engine that ran."""
    if not TRACER.enabled:
        return
    REGISTRY.counter(
        "machine_runs_total", "Machine.run calls by engine"
    ).inc(engine=engine)


def record_trace_compile() -> None:
    """A successful static-trace compilation (the aot front end)."""
    if not TRACER.enabled:
        return
    REGISTRY.counter(
        "trace_compiles_total", "static traces compiled"
    ).inc()


def record_trace_reject(reason: str) -> None:
    """A static-trace compilation refusal, by :class:`ReplayError`
    reason."""
    if not TRACER.enabled:
        return
    REGISTRY.counter(
        "trace_rejects_total", "static trace compilation refusals"
    ).inc(reason=reason)


def record_kernel_batch(kernel: str, engine: str, n: int) -> None:
    """One :meth:`KernelRunner.run_batch` call of *n* operand sets.

    Per-run cycles/instructions still flow through
    :func:`record_kernel_run` (once per item), keeping the span
    cycle-attribution invariant and the ``kernel_runs_total`` counts
    identical whether a workload batches or loops.
    """
    if not TRACER.enabled:
        return
    REGISTRY.counter(
        "kernel_batches_total", "batched kernel executions"
    ).inc(kernel=kernel, engine=engine)
    REGISTRY.counter(
        "kernel_batch_items_total", "operand sets executed in batches"
    ).inc(n, kernel=kernel, engine=engine)


# -- the aot tier and its persistent artifact cache -------------------------
# (see repro.rv64.aot / repro.rv64.artifacts and docs/SIMULATOR.md)


def record_aot_compile(seconds: float) -> None:
    """A successful whole-kernel aot fusion, with its wall-clock cost."""
    if not TRACER.enabled:
        return
    REGISTRY.counter("aot_compiles_total", "aot functions compiled").inc()
    REGISTRY.histogram(
        "aot_compile_seconds", "whole-kernel aot fusion wall time"
    ).observe(seconds)


def record_aot_reject(reason: str) -> None:
    """An aot fusion refusal, by :class:`AotError` reason."""
    if not TRACER.enabled:
        return
    REGISTRY.counter(
        "aot_rejects_total", "aot compilation refusals"
    ).inc(reason=reason)


def record_aot_demotion(reason: str) -> None:
    """A requested aot run demoted to the interpreter, by reason."""
    if not TRACER.enabled:
        return
    REGISTRY.counter(
        "aot_demotions_total",
        "aot requests demoted to the interpreter",
    ).inc(reason=reason)


def record_aot_cache_hit() -> None:
    """An aot run served by a runner's fused entry thunk."""
    if not TRACER.enabled:
        return
    REGISTRY.counter(
        "aot_cache_hits_total", "aot function cache hits"
    ).inc()


def record_aot_evicted() -> None:
    """A fused entry thunk dropped by Machine.invalidate_trace."""
    if not TRACER.enabled:
        return
    REGISTRY.counter(
        "aot_evictions_total", "compiled aot functions evicted"
    ).inc()


def record_artifact_cache_hit() -> None:
    """An on-disk aot artifact loaded and validated (warm start)."""
    if not TRACER.enabled:
        return
    REGISTRY.counter(
        "aot_artifact_hits_total", "on-disk aot artifact cache hits"
    ).inc()


def record_artifact_cache_miss() -> None:
    """An on-disk aot artifact lookup that found nothing usable."""
    if not TRACER.enabled:
        return
    REGISTRY.counter(
        "aot_artifact_misses_total", "on-disk aot artifact cache misses"
    ).inc()


def record_artifact_cache_write() -> None:
    """A compiled aot thunk persisted to the on-disk artifact cache."""
    if not TRACER.enabled:
        return
    REGISTRY.counter(
        "aot_artifact_writes_total", "on-disk aot artifacts written"
    ).inc()


def record_artifact_invalidated() -> None:
    """An on-disk artifact deleted (corruption, skew, or fault recovery)."""
    if not TRACER.enabled:
        return
    REGISTRY.counter(
        "aot_artifact_invalidations_total",
        "on-disk aot artifacts invalidated",
    ).inc()


# -- fault injection and the hardened execution layer -----------------------
# (see repro.fault and docs/ROBUSTNESS.md)


def record_fault_injected(site: str, kernel: str) -> None:
    """One armed fault, labeled by site kind and target kernel."""
    if not TRACER.enabled:
        return
    REGISTRY.counter(
        "faults_injected_total", "armed faults by site and kernel"
    ).inc(site=site, kernel=kernel)


def record_fault_detected(where: str, engine: str) -> None:
    """A checked execution caught a divergence from the reference."""
    if not TRACER.enabled:
        return
    REGISTRY.counter(
        "faults_detected_total",
        "checked-mode divergences by detection point",
    ).inc(where=where, engine=engine)


def record_fault_recovery(operation: str, outcome: str) -> None:
    """End of a recovery attempt sequence (``recovered``/``exhausted``)."""
    if not TRACER.enabled:
        return
    REGISTRY.counter(
        "fault_recoveries_total",
        "recovery outcomes after a detected fault",
    ).inc(operation=operation, outcome=outcome)


def record_checked_run(kernel: str) -> None:
    """One sampled cross-validation against the pure-Python reference."""
    if not TRACER.enabled:
        return
    REGISTRY.counter(
        "checked_runs_total", "sampled reference cross-validations"
    ).inc(kernel=kernel)


def record_runner_evicted(kernel: str) -> None:
    """A poisoned runner evicted from the registry pool."""
    if not TRACER.enabled:
        return
    REGISTRY.counter(
        "runner_evictions_total", "runner pool evictions"
    ).inc(kernel=kernel)


def record_trace_invalidated() -> None:
    """A cached static trace dropped by Machine.invalidate_trace."""
    if not TRACER.enabled:
        return
    REGISTRY.counter(
        "trace_invalidations_total", "static traces invalidated"
    ).inc()


# -- the multi-tenant key-exchange service -----------------------------------
# (see repro.service and docs/SERVICE.md)

#: Latency buckets for service requests (seconds; the cycle-flavoured
#: default buckets would put every request in the first bucket).
SERVICE_LATENCY_BUCKETS = (
    0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
)


def record_service_request(tenant: str, op: str, outcome: str) -> None:
    """One completed service request, by tenant, op and outcome."""
    if not TRACER.enabled:
        return
    REGISTRY.counter(
        "service_requests_total",
        "service requests by tenant, op and outcome",
    ).inc(tenant=tenant, op=op, outcome=outcome)


def record_service_rejected(tenant: str, reason: str) -> None:
    """A request bounced by admission control, by reason."""
    if not TRACER.enabled:
        return
    REGISTRY.counter(
        "service_rejections_total",
        "admission-control rejections by tenant and reason",
    ).inc(tenant=tenant, reason=reason)


def record_service_latency(op: str, seconds: float) -> None:
    """Wall-clock latency of one service request."""
    if not TRACER.enabled:
        return
    REGISTRY.histogram(
        "service_request_seconds", "service request latency",
        buckets=SERVICE_LATENCY_BUCKETS,
    ).observe(seconds, op=op)


def record_service_inflight(tenant: str, delta: int) -> None:
    """Admitted-but-unfinished request count change for *tenant*."""
    if not TRACER.enabled:
        return
    REGISTRY.gauge(
        "service_inflight", "admitted in-flight requests"
    ).inc(delta, tenant=tenant)


def record_service_demotion(
    tenant: str, engine_from: str, engine_to: str, reason: str
) -> None:
    """A tenant demoted one rung down the engine ladder."""
    if not TRACER.enabled:
        return
    REGISTRY.counter(
        "service_demotions_total",
        "tenant engine demotions by reason",
    ).inc(tenant=tenant, engine_from=engine_from, engine_to=engine_to,
          reason=reason)


def record_service_promotion(tenant: str, engine_to: str) -> None:
    """A tenant promoted one rung back up the engine ladder."""
    if not TRACER.enabled:
        return
    REGISTRY.counter(
        "service_promotions_total",
        "tenant engine promotions after sustained health",
    ).inc(tenant=tenant, engine_to=engine_to)


def record_coalesced_batch(op: str, n: int) -> None:
    """One coalesced flush of *n* requests into a batched execution."""
    if not TRACER.enabled:
        return
    REGISTRY.counter(
        "service_coalesced_batches_total",
        "coalescer flushes into run_batch",
    ).inc(op=op)
    REGISTRY.counter(
        "service_coalesced_items_total",
        "requests served through coalesced batches",
    ).inc(n, op=op)


# -- service resilience: deadlines, retries, circuit breaking ----------------
# (see docs/ROBUSTNESS.md, "Network chaos & resilience")

#: Gauge encoding for circuit-breaker states.
CIRCUIT_STATES = {"closed": 0, "open": 1, "half_open": 2}


def record_service_internal_error(op: str) -> None:
    """A non-``ReproError`` exception caught at the wire boundary."""
    if not TRACER.enabled:
        return
    REGISTRY.counter(
        "service_internal_errors_total",
        "unexpected exceptions answered with the service code",
    ).inc(op=op)


def record_service_retry(op: str, reason: str) -> None:
    """One client-side retry of an idempotent request, by reason."""
    if not TRACER.enabled:
        return
    REGISTRY.counter(
        "service_retries_total",
        "client request retries by op and reason",
    ).inc(op=op, reason=reason)


def record_service_reconnect() -> None:
    """The client re-established a dropped connection."""
    if not TRACER.enabled:
        return
    REGISTRY.counter(
        "service_reconnects_total", "client reconnections"
    ).inc()


def record_deadline_exceeded(op: str, where: str) -> None:
    """A request deadline expired (``queued`` or ``running``)."""
    if not TRACER.enabled:
        return
    REGISTRY.counter(
        "service_deadline_exceeded_total",
        "requests that ran out of deadline budget",
    ).inc(op=op, where=where)


def record_circuit_state(tenant: str, state: str) -> None:
    """A circuit-breaker transition (closed=0 / open=1 / half_open=2)."""
    if not TRACER.enabled:
        return
    REGISTRY.gauge(
        "circuit_state", "per-tenant circuit-breaker state"
    ).set(CIRCUIT_STATES[state], tenant=tenant)


# -- the network-chaos subsystem (see repro.chaos) ---------------------------


def record_chaos_injection(kind: str) -> None:
    """One chaos site fired inside the proxy, by site kind."""
    if not TRACER.enabled:
        return
    REGISTRY.counter(
        "chaos_injections_total", "network faults injected by kind"
    ).inc(kind=kind)


def record_chaos_trial(kind: str, outcome: str) -> None:
    """One chaos-campaign trial classified, by site kind and outcome."""
    if not TRACER.enabled:
        return
    REGISTRY.counter(
        "chaos_trials_total", "chaos trials by site kind and outcome"
    ).inc(kind=kind, outcome=outcome)


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
