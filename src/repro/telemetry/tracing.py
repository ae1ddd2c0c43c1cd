"""Per-request trace contexts over the span tree.

PR 2's span tree answers "where do the cycles go?" for a whole run;
this module answers it **per request**.  Every service request gets a
``trace_id`` that travels over the JSON-lines wire protocol, through
the coalescer's batches and down to the kernel runner, so the
cycle-exact span subtree hangs off the request that caused it:

* :func:`request_trace` opens a request node directly under the
  tracer root (deliberately *not* on the event-loop thread's span
  stack — concurrent asyncio tasks would otherwise nest under each
  other) and registers a :class:`TraceContext` in ``Tracer.traces``;
* :func:`activate` continues that node on an executor thread
  (``run_in_executor`` does not copy contextvars, so the service
  passes the context explicitly) — nested ``telemetry.span`` calls
  and kernel cycles then attach under the request;
* :func:`begin_batch` gives one coalesced flush its own ``batch``
  node recording **all** member trace_ids, with zero-cycle
  ``coalesced[batch=...]`` link children under each member request so
  the batch is reachable from every member's trace;
* :func:`to_chrome_trace` / :func:`to_collapsed` render any span
  forest as Chrome ``trace_event`` JSON (a wall-clock pid anchored at
  ``start_epoch`` plus a simulated-cycles pid) and as collapsed-stack
  text for flamegraph.pl / speedscope.

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
from dataclasses import dataclass, field
from typing import Any, Iterator

import repro.telemetry as telemetry
from repro.telemetry.export import span_from_dict, span_to_dict
from repro.telemetry.metrics import MUTATION_LOCK
from repro.telemetry.spans import ACTIVE_TRACE, SpanNode, Tracer

#: Bound on the per-tracer trace/batch indexes: a long-lived server
#: keeps the most recent contexts and forgets the oldest (their span
#: nodes remain in the tree until :func:`clear_traces`).
MAX_INDEXED_TRACES = 4096

#: Ops that participate in request tracing over the wire.
TRACED_OPS = ("keygen", "exchange", "verify", "field_op")


def new_trace_id() -> str:
    """A fresh 16-hex-char trace id."""
    return uuid.uuid4().hex[:16]


@dataclass
class TraceContext:
    """One request's (or coalesced batch's) trace bookkeeping.

    ``node`` is the span subtree root for this request, or ``None``
    when telemetry was disabled at creation (the id still flows over
    the wire).  ``batch_ids`` lists every coalesced batch this request
    contributed an operand to; for ``kind == "batch"`` contexts,
    ``member_ids`` lists the contributing requests instead.
    """

    trace_id: str
    op: str
    tenant: str = ""
    kind: str = "request"
    start_epoch: float = 0.0
    node: SpanNode | None = None
    wall_s: float = 0.0
    status: str = "open"
    error_code: str | None = None
    batch_ids: list[str] = field(default_factory=list)
    member_ids: tuple[str, ...] = ()

    def to_dict(self, *, spans: bool = False) -> dict[str, Any]:
        data: dict[str, Any] = {
            "trace_id": self.trace_id,
            "kind": self.kind,
            "op": self.op,
            "tenant": self.tenant,
            "start_epoch": self.start_epoch,
            "wall_s": self.wall_s,
            "status": self.status,
        }
        if self.error_code is not None:
            data["error_code"] = self.error_code
        if self.batch_ids:
            data["batch_ids"] = list(self.batch_ids)
        if self.member_ids:
            data["member_ids"] = list(self.member_ids)
        if self.node is not None:
            data["total_cycles"] = self.node.total_cycles
            if spans:
                data["spans"] = span_to_dict(self.node)
        return data


def _tracer() -> Tracer:
    # telemetry.capture() rebinds the module global, so dereference at
    # call time rather than import time.
    return telemetry.TRACER


def current_trace() -> TraceContext | None:
    """The trace context active in this task/thread, if any."""
    return ACTIVE_TRACE.get()  # type: ignore[return-value]


def _index(table: dict[str, TraceContext], ctx: TraceContext) -> None:
    table[ctx.trace_id] = ctx
    while len(table) > MAX_INDEXED_TRACES:
        del table[next(iter(table))]


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
    when the block exits; an escaping exception marks the context
    ``status="error"`` with its stable ``code``.
    """
    tracer = _tracer()
    ctx = TraceContext(trace_id or new_trace_id(), op, tenant,
                       start_epoch=time.time())
    if not tracer.enabled:
        yield ctx
        return
    with MUTATION_LOCK:
        node = tracer.root.child("request", (
            ("op", op), ("tenant", tenant), ("trace", ctx.trace_id)))
        if node.start_epoch is None:
            node.start_epoch = ctx.start_epoch
        ctx.node = node
        _index(tracer.traces, ctx)
    token = ACTIVE_TRACE.set(ctx)
    tracer.new_epoch()
    start = time.perf_counter()
    try:
        yield ctx
        ctx.status = "ok"
    except BaseException as exc:
        ctx.status = "error"
        ctx.error_code = getattr(exc, "code", type(exc).__name__)
        raise
    finally:
        ACTIVE_TRACE.reset(token)
        tracer.new_epoch()
        elapsed = time.perf_counter() - start
        ctx.wall_s = elapsed
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
    traced = [(ctx, wait) for ctx, wait in members if ctx is not None]
    ctx = TraceContext(
        batch_id, op, kind="batch", start_epoch=time.time(),
        member_ids=tuple(m.trace_id for m, _ in traced))
    with MUTATION_LOCK:
        node = tracer.root.child(
            "batch", (("batch", batch_id), ("op", op)))
        if node.start_epoch is None:
            node.start_epoch = ctx.start_epoch
        ctx.node = node
        _index(tracer.batches, ctx)
        for member, wait in traced:
            member.batch_ids.append(batch_id)
            if member.node is None:
                continue
            waited = member.node.child("coalesce.wait")
            if waited.start_epoch is None:
                waited.start_epoch = ctx.start_epoch - wait
            waited.count += 1
            waited.wall_s += wait
            link = member.node.child(
                "coalesced", (("batch", batch_id),))
            link.count += 1
    return ctx


def finish_batch(ctx: TraceContext | None, wall_s: float,
                 ok: bool = True) -> None:
    """Book one flush's execution wall time on its batch node."""
    if ctx is None or ctx.node is None:
        return
    ctx.wall_s = wall_s
    ctx.status = "ok" if ok else "error"
    with MUTATION_LOCK:
        ctx.node.count += 1
        ctx.node.wall_s += wall_s


def clear_traces(tracer: Tracer | None = None) -> int:
    """Drop recorded request/batch subtrees and indexes.

    Keeps unrelated spans and all metrics.  Returns the number of
    dropped top-level nodes — the ``trace_export(reset=True)`` wire op
    uses this so a long-lived server's tree stays bounded.
    """
    tracer = tracer or _tracer()
    with MUTATION_LOCK:
        keys = [key for key in tracer.root.children
                if key[0] in ("request", "batch")]
        for key in keys:
            del tracer.root.children[key]
        tracer.traces.clear()
        tracer.batches.clear()
    return len(keys)


# ---------------------------------------------------------------------------
# Documents: snapshot a tracer, rebuild a forest from a snapshot
# ---------------------------------------------------------------------------


def snapshot_document(
    tracer: Tracer | None = None,
    *,
    spans: bool = True,
    op: str | None = None,
    tenant: str | None = None,
    trace_id: str | None = None,
) -> dict[str, Any]:
    """JSON-able dump of every indexed trace/batch (optionally
    filtered), the payload behind the ``trace_export`` wire op."""
    tracer = tracer or _tracer()

    def keep(ctx: TraceContext) -> bool:
        return ((op is None or ctx.op == op)
                and (tenant is None or ctx.tenant == tenant)
                and (trace_id is None or ctx.trace_id == trace_id))

    with MUTATION_LOCK:
        traces = [ctx.to_dict(spans=spans)
                  for ctx in tracer.traces.values() if keep(ctx)]
        wanted = ({b for t in tracer.traces.values() if keep(t)
                   for b in t.batch_ids}
                  if (op, tenant, trace_id) != (None, None, None)
                  else None)
        batches = [ctx.to_dict(spans=spans)
                   for ctx in tracer.batches.values()
                   if wanted is None or ctx.trace_id in wanted]
    return {
        "enabled": tracer.enabled,
        "traces": traces,
        "batches": batches,
    }


def document_to_root(document: dict[str, Any]) -> SpanNode:
    """Rebuild a span forest (synthetic root) from a snapshot document,
    so the exporters below work identically on live trees and on
    ``trace_export`` payloads fetched over the wire."""
    root = SpanNode("root")
    for entry in list(document.get("traces", ())) + list(
            document.get("batches", ())):
        data = entry.get("spans")
        if not data:
            continue
        child = span_from_dict(data)
        root.children[(child.name, child.labels)] = child
    return root


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


def render_trace_summary(document: dict[str, Any],
                         *, limit: int = 20) -> str:
    """Human-readable table of a snapshot document's traces."""
    rows = ["trace             kind     op         tenant       "
            "status   wall_ms      cycles"]
    entries = list(document.get("traces", ())) + list(
        document.get("batches", ()))
    entries.sort(key=lambda e: e.get("start_epoch", 0.0))
    for entry in entries[:limit]:
        rows.append(
            f"{entry['trace_id']:<17s} {entry.get('kind', '?'):<8s} "
            f"{entry.get('op', ''):<10s} "
            f"{entry.get('tenant', ''):<12s} "
            f"{entry.get('status', ''):<8s} "
            f"{entry.get('wall_s', 0.0) * 1e3:>7.2f} "
            f"{entry.get('total_cycles', 0):>11,d}")
    hidden = len(entries) - limit
    if hidden > 0:
        rows.append(f"... ({hidden} more)")
    return "\n".join(rows)
