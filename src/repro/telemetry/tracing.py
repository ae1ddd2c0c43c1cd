"""Per-request trace contexts over the span tree.

PR 2's span tree answers "where do the cycles go?" for a whole run;
this module answers it **per request**.  Every service request gets a
``trace_id`` that travels over the JSON-lines wire protocol, through
the coalescer's batches and down to the kernel runner, so the
cycle-exact span subtree hangs off the request that caused it:

* :func:`request_trace` opens a ``request`` node directly under the
  tracer root (deliberately *not* on the event-loop thread's span
  stack — concurrent asyncio tasks would otherwise nest under each
  other);
* :func:`activate` continues that node on an executor thread
  (``run_in_executor`` does not copy contextvars, so the service
  passes the context explicitly) — nested ``telemetry.span`` calls
  and kernel cycles then attach under the request;
* :func:`begin_batch` gives one coalesced flush its own ``batch``
  node, with zero-cycle ``coalesced[batch=...]`` link children under
  each member request so the batch is reachable from every member's
  trace;
* :func:`to_chrome_trace` / :func:`to_collapsed` render any span
  forest as Chrome ``trace_event`` JSON (a wall-clock pid anchored at
  ``start_epoch`` plus a simulated-cycles pid) and as collapsed-stack
  text for flamegraph.pl / speedscope.

The span tree is the only record: the trace contexts are handles,
not an index, and nothing here serves traces to another process.
Request and batch nodes accumulate under the root for as long as
telemetry stays on, so tracing is for bounded in-process runs
(``repro trace``, ``repro load``, ``run_load(trace=True)``), not for
a long-lived server.

Cycle conservation survives tracing: kernel cycles recorded under an
active trace land in per-kernel children (``Tracer.add_kernel_cycles``)
of exactly one node, so subtree totals still sum to
``SimulatedFieldContext.simulated_cycles`` — ``run_load(trace=True)``
asserts it.

With telemetry disabled all of this degrades to id generation: a
``TraceContext`` with no node is handed out so the wire protocol still
echoes trace ids, but nothing is recorded and ``current_trace()``
stays ``None`` for downstream consumers.
"""

from __future__ import annotations

import time
import uuid
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Iterator

import repro.telemetry as telemetry
from repro.telemetry.metrics import MUTATION_LOCK
from repro.telemetry.spans import ACTIVE_TRACE, SpanNode, Tracer

#: Ops that participate in request tracing over the wire.
TRACED_OPS = ("keygen", "exchange", "verify", "field_op")


def new_trace_id() -> str:
    """A fresh 16-hex-char trace id."""
    return uuid.uuid4().hex[:16]


@dataclass
class TraceContext:
    """One request's (or coalesced batch's) trace handle.

    ``node`` is the span subtree root for this request, or ``None``
    when telemetry was disabled at creation (the id still flows over
    the wire).
    """

    trace_id: str
    node: SpanNode | None = None


def _tracer() -> Tracer:
    # telemetry.capture() rebinds the module global, so dereference at
    # call time rather than import time.
    return telemetry.TRACER


def current_trace() -> TraceContext | None:
    """The trace context active in this task/thread, if any."""
    return ACTIVE_TRACE.get()  # type: ignore[return-value]


@contextmanager
def request_trace(
    op: str,
    tenant: str = "",
    *,
    trace_id: str | None = None,
) -> Iterator[TraceContext]:
    """Open a per-request trace for the ``with`` block.

    The request's span node is created directly under the tracer root
    (labels ``op``/``tenant``/``trace``) and is **not** pushed on the
    calling thread's span stack — on an asyncio event loop many
    requests interleave on one thread, and stack nesting would wrongly
    chain them.  Execution threads join the subtree via
    :func:`activate`.  Wall-clock and count are booked on the node
    when the block exits, whether or not an exception escapes.
    """
    tracer = _tracer()
    ctx = TraceContext(trace_id or new_trace_id())
    if not tracer.enabled:
        yield ctx
        return
    with MUTATION_LOCK:
        node = tracer.root.child("request", (
            ("op", op), ("tenant", tenant), ("trace", ctx.trace_id)))
        if node.start_epoch is None:
            node.start_epoch = time.time()
        ctx.node = node
    token = ACTIVE_TRACE.set(ctx)
    tracer.new_epoch()
    start = time.perf_counter()
    try:
        yield ctx
    finally:
        ACTIVE_TRACE.reset(token)
        tracer.new_epoch()
        elapsed = time.perf_counter() - start
        with MUTATION_LOCK:
            node.count += 1
            node.wall_s += elapsed


@contextmanager
def activate(ctx: TraceContext | None) -> Iterator[TraceContext | None]:
    """Continue *ctx* on the calling (executor) thread.

    Pushes the request node onto this thread's span stack (without
    double-booking its wall/count) and sets the active-trace
    contextvar, so nested spans and kernel cycles attribute under the
    request.  ``None`` (or a node-less context) is a cheap no-op, the
    disabled-telemetry fast path.
    """
    if ctx is None or ctx.node is None:
        yield None
        return
    token = ACTIVE_TRACE.set(ctx)
    try:
        with _tracer().adopt(ctx.node):  # adoption takes a new epoch
            yield ctx
    finally:
        ACTIVE_TRACE.reset(token)
        _tracer().new_epoch()


@contextmanager
def using(ctx: TraceContext | None) -> Iterator[TraceContext | None]:
    """Set the active-trace contextvar *without* touching span stacks.

    For async contexts (the coalescer's batch coroutine): the span
    stack is per *thread* and adopted nodes would interleave across
    concurrently awaiting tasks, but the contextvar is per *task* and
    safe.  Downstream code reads :func:`current_trace`.
    """
    if ctx is None:
        yield None
        return
    token = ACTIVE_TRACE.set(ctx)
    _tracer().new_epoch()
    try:
        yield ctx
    finally:
        ACTIVE_TRACE.reset(token)
        _tracer().new_epoch()


def begin_batch(
    op: str,
    members: list[tuple[TraceContext | None, float]],
) -> TraceContext | None:
    """Open a batch context for one coalesced flush.

    *members* pairs each member's trace context (or ``None``) with the
    wall-clock seconds it waited in the coalescer.  Records,
    per member: a ``coalesce.wait`` child booking the wait and a
    zero-cycle ``coalesced[batch=...]`` link child, making the batch
    reachable from every member request's trace.  Returns ``None``
    while telemetry is disabled.
    """
    tracer = _tracer()
    if not tracer.enabled:
        return None
    batch_id = new_trace_id()
    started = time.time()
    with MUTATION_LOCK:
        node = tracer.root.child(
            "batch", (("batch", batch_id), ("op", op)))
        if node.start_epoch is None:
            node.start_epoch = started
        for member, wait in members:
            if member is None or member.node is None:
                continue
            waited = member.node.child("coalesce.wait")
            if waited.start_epoch is None:
                waited.start_epoch = started - wait
            waited.count += 1
            waited.wall_s += wait
            link = member.node.child(
                "coalesced", (("batch", batch_id),))
            link.count += 1
    return TraceContext(batch_id, node)


def finish_batch(ctx: TraceContext | None, wall_s: float) -> None:
    """Book one flush's execution wall time on its batch node."""
    if ctx is None or ctx.node is None:
        return
    with MUTATION_LOCK:
        ctx.node.count += 1
        ctx.node.wall_s += wall_s


# ---------------------------------------------------------------------------
# Exporters: Chrome trace_event JSON and collapsed stacks
# ---------------------------------------------------------------------------

_WALL_PID = 1
_CYCLES_PID = 2


def to_chrome_trace(root: SpanNode) -> dict[str, Any]:
    """Render a span forest as a Chrome ``trace_event`` document.

    Two processes in the trace viewer: pid 1 lays spans out on the
    **wall clock** (microseconds, anchored at each node's
    ``start_epoch`` relative to the earliest anchor in the forest) and
    pid 2 on **simulated cycles** (1 cycle rendered as 1 µs, children
    packed left-to-right), where per-kernel spans appear with exact
    subtree cycle totals.  Load the output in ``chrome://tracing``,
    Perfetto or speedscope.
    """
    events: list[dict[str, Any]] = [
        {"name": "process_name", "ph": "M", "pid": _WALL_PID, "tid": 0,
         "args": {"name": "wall clock (us)"}},
        {"name": "process_name", "ph": "M", "pid": _CYCLES_PID,
         "tid": 0,
         "args": {"name": "simulated cycles (1 cycle = 1us)"}},
    ]
    tops = list(root.children.values())
    anchors = [node.start_epoch for node in root.walk()
               if node.start_epoch is not None]
    epoch0 = min(anchors) if anchors else 0.0

    def args(node: SpanNode) -> dict[str, Any]:
        out: dict[str, Any] = {
            "count": node.count,
            "self_cycles": node.self_cycles,
            "total_cycles": node.total_cycles,
            "wall_s": node.wall_s,
        }
        if node.start_epoch is not None:
            out["start_epoch"] = node.start_epoch
        return out

    def emit_wall(node: SpanNode, tid: int, fallback_ts: float) -> None:
        if node.wall_s <= 0.0 and node.count == 0:
            return
        ts = ((node.start_epoch - epoch0) * 1e6
              if node.start_epoch is not None else fallback_ts)
        events.append({
            "name": node.label, "cat": node.name, "ph": "X",
            "pid": _WALL_PID, "tid": tid,
            "ts": ts, "dur": node.wall_s * 1e6, "args": args(node),
        })
        for child in node.children.values():
            emit_wall(child, tid, ts)

    def emit_cycles(node: SpanNode, tid: int, ts: int) -> None:
        total = node.total_cycles
        if total <= 0:
            return
        events.append({
            "name": node.label, "cat": node.name, "ph": "X",
            "pid": _CYCLES_PID, "tid": tid,
            "ts": ts, "dur": total, "args": args(node),
        })
        cursor = ts
        for child in node.children.values():
            emit_cycles(child, tid, cursor)
            cursor += child.total_cycles

    for tid, top in enumerate(tops, start=1):
        for pid in (_WALL_PID, _CYCLES_PID):
            events.append({
                "name": "thread_name", "ph": "M", "pid": pid,
                "tid": tid, "args": {"name": top.label}})
        emit_wall(top, tid, 0.0)
        emit_cycles(top, tid, 0)
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"total_cycles": root.total_cycles},
    }


def to_collapsed(root: SpanNode) -> str:
    """Render a span forest as collapsed stacks (flamegraph.pl input).

    One ``frame;frame;frame count`` line per node with nonzero
    exclusive cycles; the values sum exactly to ``root.total_cycles``,
    so the flamegraph is the cycle-conservation invariant made
    visible.
    """
    lines: list[str] = []

    def frame(node: SpanNode) -> str:
        return node.label.replace(";", ",").replace(" ", "_")

    def emit(node: SpanNode, stack: str) -> None:
        path = f"{stack};{frame(node)}" if stack else frame(node)
        if node.self_cycles:
            lines.append(f"{path} {node.self_cycles}")
        for child in node.children.values():
            emit(child, path)

    for top in root.children.values():
        emit(top, "")
    if root.self_cycles:
        lines.append(f"{frame(root)} {root.self_cycles}")
    return "\n".join(lines) + ("\n" if lines else "")


# ---------------------------------------------------------------------------
# Summaries
# ---------------------------------------------------------------------------


def summarize_root(root: SpanNode, *, top: int = 5) -> dict[str, Any]:
    """Compact forest summary for BENCH records and ``repro trace``:
    span/request/batch counts, total cycles, top kernels by cycles."""
    kernels: dict[str, int] = {}
    span_count = 0
    requests = 0
    batches = 0
    for node in root.walk():
        span_count += 1
        if node.name == "kernel":
            labels = dict(node.labels)
            key = labels.get("kernel", node.label)
            kernels[key] = kernels.get(key, 0) + node.self_cycles
        elif node.name == "request":
            requests += 1
        elif node.name == "batch":
            batches += 1
    ranked = sorted(kernels.items(), key=lambda kv: (-kv[1], kv[0]))
    return {
        "span_count": span_count - 1,  # exclude the synthetic root
        "requests": requests,
        "batches": batches,
        "total_cycles": root.total_cycles,
        "top_kernels": [
            {"kernel": name, "cycles": cycles}
            for name, cycles in ranked[:top]
        ],
    }
