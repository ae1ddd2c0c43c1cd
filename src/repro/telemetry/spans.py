"""Hierarchical cycle-attribution spans.

A :class:`Tracer` maintains a tree of :class:`SpanNode` objects.  Code
under measurement opens spans::

    with tracer.span("group_action"):
        with tracer.span("isogeny", degree=3):
            ...

and the low layers attribute *simulated cycles* to whatever span is
innermost when a kernel retires (:meth:`Tracer.add_cycles`, called by
:class:`~repro.kernels.runner.KernelRunner`).  The result of a protocol
run is therefore a cycle-attribution tree with the same additive
structure as the paper's Table 4: every simulated cycle lands in
exactly one node's ``self_cycles``, so subtree totals roll up to the
run's grand total without double counting.

Repeated spans aggregate: entering ``span("isogeny", degree=3)`` twice
under the same parent accumulates into one node with ``count == 2``
(keeping the tree Table-4-sized instead of trace-sized).  Wall-clock
time is recorded per node as *inclusive* seconds (``wall_s``); cycles
are recorded *exclusive* (``self_cycles``) with the inclusive total
available as :attr:`SpanNode.total_cycles`.

The disabled fast path matters: with tracing off, :func:`Tracer.span`
returns a shared no-op context manager and :meth:`add_cycles` is a
single attribute test, so instrumented hot paths (one call per kernel
run) keep the aot engine's speed.
"""

from __future__ import annotations

import itertools
import threading
import time
from contextvars import ContextVar
from typing import Iterator

from repro.telemetry.metrics import MUTATION_LOCK, LabelKey, _label_key

#: The active trace context (see :mod:`repro.telemetry.tracing`), or
#: ``None``.  A :class:`~contextvars.ContextVar` rather than a
#: thread-local so concurrent asyncio tasks on one event-loop thread
#: each see their own request; worker threads inherit it only through
#: an explicit ``tracing.activate`` (``run_in_executor`` does not copy
#: contexts).
ACTIVE_TRACE: ContextVar[object | None] = ContextVar(
    "repro_active_trace", default=None)

#: Span epochs (see :attr:`Tracer.epoch`): unique across tracers, and
#: ``next`` on it is atomic, so concurrent bumps never repeat a value.
_EPOCHS = itertools.count()


class SpanNode:
    """One node of the aggregated span tree."""

    __slots__ = ("name", "labels", "count", "self_cycles", "wall_s",
                 "start_epoch", "children")

    def __init__(self, name: str, labels: LabelKey = ()) -> None:
        self.name = name
        self.labels = labels
        self.count = 0
        self.self_cycles = 0
        self.wall_s = 0.0  # inclusive (children included)
        # wall-clock anchor: epoch seconds of the *first* entry, so
        # exported traces from different processes/hosts are alignable
        self.start_epoch: float | None = None
        self.children: dict[tuple[str, LabelKey], SpanNode] = {}

    # -- derived views -------------------------------------------------------

    @property
    def total_cycles(self) -> int:
        """Inclusive cycles: this node plus every descendant."""
        return self.self_cycles + sum(
            child.total_cycles for child in self.children.values()
        )

    @property
    def label(self) -> str:
        """Display name, e.g. ``isogeny[degree=3]``."""
        if not self.labels:
            return self.name
        inner = ",".join(f"{k}={v}" for k, v in self.labels)
        return f"{self.name}[{inner}]"

    def child(self, name: str, labels: LabelKey = ()) -> "SpanNode":
        """Get-or-create the child for ``(name, labels)``."""
        key = (name, labels)
        node = self.children.get(key)
        if node is None:
            node = self.children[key] = SpanNode(name, labels)
        return node

    def find(self, name: str, **labels: object) -> "SpanNode | None":
        """First descendant (pre-order) matching *name* and *labels*."""
        want = _label_key(labels) if labels else None
        for node in self.walk():
            if node.name == name and (want is None
                                      or node.labels == want):
                return node
        return None

    def walk(self) -> Iterator["SpanNode"]:
        """Pre-order traversal of this subtree (self first)."""
        yield self
        for child in self.children.values():
            yield from child.walk()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SpanNode):
            return NotImplemented
        return (self.name == other.name
                and self.labels == other.labels
                and self.count == other.count
                and self.self_cycles == other.self_cycles
                and self.wall_s == other.wall_s
                and self.start_epoch == other.start_epoch
                and self.children == other.children)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"SpanNode({self.label}, count={self.count}, "
                f"self_cycles={self.self_cycles}, "
                f"children={len(self.children)})")


class _NullSpan:
    """Shared no-op context manager for the disabled fast path."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc_info: object) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class _ActiveSpan:
    """Context manager pushing one node onto the tracer stack."""

    __slots__ = ("_tracer", "_node", "_start")

    def __init__(self, tracer: "Tracer", node: SpanNode) -> None:
        self._tracer = tracer
        self._node = node

    def __enter__(self) -> SpanNode:
        node = self._node
        if node.start_epoch is None:
            node.start_epoch = time.time()
        tracer = self._tracer
        tracer._stack.append(node)
        tracer.new_epoch()
        self._start = time.perf_counter()
        return self._node

    def __exit__(self, *exc_info: object) -> bool:
        node = self._node
        elapsed = time.perf_counter() - self._start
        with MUTATION_LOCK:
            node.wall_s += elapsed
            node.count += 1
        tracer = self._tracer
        stack = tracer._stack
        # tolerate exception-driven unwinding out of nested spans
        while stack and stack.pop() is not node:
            pass
        tracer.new_epoch()
        return False


class _AdoptedSpan:
    """Context manager pushing an *existing* node onto this thread's
    stack without touching its wall/count accounting.

    Used by :func:`repro.telemetry.tracing.activate` to continue a
    request's span subtree on an executor thread: the request node's
    wall clock belongs to the event loop that opened it, so adoption
    must not double-book it.
    """

    __slots__ = ("_tracer", "_node")

    def __init__(self, tracer: "Tracer", node: SpanNode) -> None:
        self._tracer = tracer
        self._node = node

    def __enter__(self) -> SpanNode:
        tracer = self._tracer
        tracer._stack.append(self._node)
        tracer.new_epoch()
        return self._node

    def __exit__(self, *exc_info: object) -> bool:
        tracer = self._tracer
        stack = tracer._stack
        while len(stack) > 1 and stack.pop() is not self._node:
            pass
        tracer.new_epoch()
        return False


class Tracer:
    """Span-tree recorder with a disabled no-op fast path.

    The process-global instance lives in :mod:`repro.telemetry`
    (``TRACER``); private instances are plain objects for tests and
    embedders.  ``enabled`` is a public attribute: instrumented code
    may read it directly to guard bigger recording blocks.

    The span stack is **per thread** (each stack rooted at the shared
    ``root``), so service worker threads record concurrent sessions as
    parallel subtrees instead of corrupting one shared stack; node
    mutation (cycles, counts, child creation) is serialised on
    :data:`~repro.telemetry.metrics.MUTATION_LOCK`, keeping the
    roll-up exact under concurrency.

    ``epoch`` changes (:meth:`new_epoch`) whenever a thread's innermost
    span or the active trace may have changed: on every span entry and
    exit, adoption, trace activation and :meth:`reset`.  A
    :class:`~repro.telemetry.KernelBooking` resolved at one epoch stays
    valid while it lasts.
    """

    def __init__(self) -> None:
        self.enabled = False
        self.epoch = next(_EPOCHS)
        self.root = SpanNode("root")
        self._tls = threading.local()

    @property
    def _stack(self) -> list[SpanNode]:
        """This thread's span stack (created rooted at ``root``).

        A stale stack — one rooted at a pre-:meth:`reset` root — is
        rebuilt on first access after the reset.
        """
        stack = getattr(self._tls, "stack", None)
        if stack is None or not stack or stack[0] is not self.root:
            stack = self._tls.stack = [self.root]
        return stack

    def span(self, name: str, **labels: object):
        """Open (or re-enter) the span *name* under the current span."""
        if not self.enabled:
            return _NULL_SPAN
        with MUTATION_LOCK:
            node = self._stack[-1].child(
                name, _label_key(labels) if labels else ())
        return _ActiveSpan(self, node)

    def add_cycles(self, cycles: int) -> None:
        """Attribute *cycles* to the innermost open span."""
        if self.enabled:
            with MUTATION_LOCK:
                self._stack[-1].self_cycles += cycles

    def add_kernel_cycles(self, kernel: str, engine: str,
                          cycles: int) -> None:
        """Attribute one kernel run's *cycles* to the innermost span.

        Outside a trace this is exactly :meth:`add_cycles` (the PR 2
        aggregate behaviour, so ``repro profile`` trees are unchanged).
        Under an active trace context the cycles instead land in a
        ``kernel[engine=...,kernel=...]`` child of the innermost span,
        so a request's subtree decomposes to per-kernel cycle totals
        while the conservation invariant (every cycle in exactly one
        ``self_cycles``) still holds.
        """
        if not self.enabled:
            return
        with MUTATION_LOCK:
            self.book_kernel_cycles(kernel, engine, cycles)

    def book_kernel_cycles(self, kernel: str, engine: str,
                           cycles: int, runs: int = 1) -> None:
        """:meth:`add_kernel_cycles` for a caller that already holds
        :data:`~repro.telemetry.metrics.MUTATION_LOCK` and has checked
        ``enabled``; *runs* kernel runs' *cycles* at once (the
        per-kernel node's ``count`` grows by *runs*)."""
        top = self._stack[-1]
        if ACTIVE_TRACE.get() is None:
            top.self_cycles += cycles
            return
        node = top.child("kernel", (("engine", engine), ("kernel", kernel)))
        if node.start_epoch is None:
            node.start_epoch = time.time()
        node.count += runs
        node.self_cycles += cycles

    def adopt(self, node: SpanNode) -> _AdoptedSpan:
        """Continue an existing *node* as this thread's innermost span.

        Unlike :meth:`span` this neither creates a child nor books
        wall/count on exit — it only re-roots the calling thread's
        stack so nested spans and kernel cycles attach under *node*.
        """
        return _AdoptedSpan(self, node)

    def current(self) -> SpanNode:
        return self._stack[-1]

    def new_epoch(self) -> None:
        """Take a new :attr:`epoch`, never taken before by any tracer."""
        self.epoch = next(_EPOCHS)

    def reset(self) -> None:
        """Drop the recorded tree (keeps the enabled flag)."""
        self.root = SpanNode("root")
        self._tls = threading.local()
        self.new_epoch()


def render_span_tree(
    root: SpanNode,
    *,
    min_percent: float = 0.0,
    show_wall: bool = True,
) -> str:
    """ASCII rendering of a span tree with cycles and percentages.

    Percentages are of the *root* total, so nested rows read like the
    paper's Table 4 (every layer as a share of the group action).
    """
    total = root.total_cycles
    lines: list[str] = []

    def fmt(node: SpanNode, prefix: str, is_last: bool,
            is_root: bool) -> None:
        cycles = node.total_cycles
        pct = (100.0 * cycles / total) if total else 0.0
        if not is_root and pct < min_percent:
            return
        connector = "" if is_root else ("`- " if is_last else "|- ")
        label = f"{prefix}{connector}{node.label}"
        line = f"{label:44s}{cycles:>14,d} cy {pct:6.1f}%"
        line += f"  x{node.count:<6d}"
        if show_wall:
            line += f" {node.wall_s:8.3f}s"
        lines.append(line)
        child_prefix = prefix if is_root else \
            prefix + ("   " if is_last else "|  ")
        children = list(node.children.values())
        for index, child in enumerate(children):
            fmt(child, child_prefix, index == len(children) - 1, False)

    # skip the synthetic root when it has exactly one top-level span
    tops = list(root.children.values())
    if len(tops) == 1 and root.self_cycles == 0:
        fmt(tops[0], "", True, True)
    else:
        fmt(root, "", True, True)
    return "\n".join(lines)
