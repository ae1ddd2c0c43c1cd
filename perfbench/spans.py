"""In-memory span recorder that measures the program's layers from outside.

The recorder replaces public callables (methods, module functions) with
thin wrappers for the duration of a traced run and restores them after.
Two kinds of span are recorded:

* an *individual* span per call at coarse layer boundaries (a group
  action, a ``measure_table4`` call, a service request): name, start,
  end, parent and request id;
* a *rolled-up* node for the high-rate calls beneath them (field
  operations, kernel runs): count and total duration per call path
  under the nearest individual span, so millions of calls cost a
  dictionary lookup each instead of a record each.

Synchronous spans nest through a per-thread stack.  Coroutine spans
(the service's async methods and the wire client) carry only a request
id; :func:`link_by_rid` recovers their parents after the run.

A span's self time is its duration minus the part of it covered by its
children: the union of the individual children's intervals plus the
rolled-up children's totals (calls of one thread never overlap).
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time

perf = time.perf_counter


class Agg:
    """Rolled-up calls of one name under one parent."""

    __slots__ = ("count", "total", "children")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.children: dict[str, Agg] = {}

    def to_dict(self) -> dict:
        out = {"count": self.count, "total_s": self.total}
        if self.children:
            out["children"] = {k: v.to_dict()
                               for k, v in self.children.items()}
        return out


class Span:
    """One recorded call at a layer boundary."""

    __slots__ = ("id", "parent", "name", "start", "end", "rid", "thread",
                 "children", "info")

    def __init__(self, sid: int, parent: int | None, name: str,
                 rid: str | None) -> None:
        self.id = sid
        self.parent = parent
        self.name = name
        self.rid = rid
        self.thread = threading.get_ident()
        self.start = self.end = 0.0
        self.children: dict[str, Agg] = {}
        self.info: dict = {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        out = {"id": self.id, "parent": self.parent, "name": self.name,
               "start": self.start, "end": self.end, "rid": self.rid,
               "thread": self.thread}
        if self.info:
            out["info"] = self.info
        if self.children:
            out["agg"] = {k: v.to_dict() for k, v in self.children.items()}
        return out


class Recorder:
    """Installs wrappers, records spans, restores the originals."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.orphans: list[Agg] = []
        self._tls = threading.local()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._patched: list[tuple[object, str, object]] = []
        #: Seconds a rolled-up call costs its parent beyond the call
        #: itself (the wrapper's own work); see :meth:`calibrate`.
        self.rolled_overhead = 0.0

    def calibrate(self, calls: int = 20_000, rounds: int = 7) -> None:
        """Measure :attr:`rolled_overhead` on a no-op (median of
        *rounds*), so self times can be corrected for the wrapper work
        they absorb."""
        probe = Recorder()

        def noop(value):
            return value

        wrapped = probe.rolled(noop, "noop")
        node = probe._stack()[0].children
        samples = []
        for _ in range(rounds):
            start = perf()
            for i in range(calls):
                noop(i)
            plain = perf() - start
            wrapped(0)
            before = node["noop"].total
            start = perf()
            for i in range(calls):
                wrapped(i)
            outer = perf() - start
            inner = node["noop"].total - before
            samples.append((outer - inner - plain) / calls)
        self.rolled_overhead = max(sorted(samples)[rounds // 2], 0.0)

    # -- per-thread frame stack ------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            # calls made outside any span roll up under a per-thread root
            root = Agg()
            with self._lock:
                self.orphans.append(root)
            stack = self._tls.stack = [root]
        return stack

    def _parent_span(self, stack) -> Span | None:
        for frame in reversed(stack):
            if isinstance(frame, Span):
                return frame
        return None

    # -- wrappers --------------------------------------------------------------

    def span(self, fn, name, rid=None, info=None):
        """Wrap *fn*: one individual span per call.

        *name* is a string or ``(args, kwargs) -> str``; *rid* returns
        the request id (default: the parent span's); *info* returns
        extra fields to store on the span after the call.
        """
        recorder = self
        rolled = self.rolled(fn, name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = recorder._stack()
            if len(stack) > 1 and isinstance(stack[-1], Agg):
                # below a rolled-up frame everything rolls up
                return rolled(*args, **kwargs)
            label = name if isinstance(name, str) else name(args, kwargs)
            parent = recorder._parent_span(stack)
            request = rid(args, kwargs) if rid is not None else None
            if request is None and parent is not None:
                request = parent.rid
            record = Span(next(recorder._ids),
                          parent.id if parent is not None else None,
                          label, request)
            stack.append(record)
            record.start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                record.end = perf()
                stack.pop()
                with recorder._lock:
                    recorder.spans.append(record)
            if info is not None:
                record.info = info(args, kwargs, result)
            return result

        return wrapper

    def rolled(self, fn, name):
        """Wrap *fn*: calls roll up into count/total under their parent."""
        tls, make_stack = self._tls, self._stack
        constant = isinstance(name, str)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            # kept lean: this runs once per field operation / kernel run
            stack = getattr(tls, "stack", None) or make_stack()
            children = stack[-1].children
            label = name if constant else name(args, kwargs)
            node = children.get(label)
            if node is None:
                node = children[label] = Agg()
            stack.append(node)
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                node.total += perf() - start
                node.count += 1
                stack.pop()

        return wrapper

    def coroutine(self, fn, name, rid):
        """Wrap coroutine function *fn*: one span per call, no nesting
        (concurrent tasks share the loop thread's stack)."""
        recorder = self

        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            label = name if isinstance(name, str) else name(args, kwargs)
            record = Span(next(recorder._ids), None, label,
                          rid(args, kwargs))
            record.start = perf()
            try:
                return await fn(*args, **kwargs)
            finally:
                record.end = perf()
                with recorder._lock:
                    recorder.spans.append(record)

        return wrapper

    # -- installation ------------------------------------------------------------

    def replace(self, owner, attr: str, value) -> None:
        """Set ``owner.attr`` to *value* until :meth:`restore`."""
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, value)

    def patch(self, owner, attr: str, wrapper_factory, *args, **kwargs):
        """Replace ``owner.attr`` by ``wrapper_factory(original, ...)``."""
        self.replace(owner, attr, wrapper_factory(
            getattr(owner, attr), *args, **kwargs))

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def record(self, name: str, start: float, end: float,
               rid: str | None) -> None:
        """Record a span timed by the caller (the wire client)."""
        record = Span(next(self._ids), None, name, rid)
        record.start, record.end = start, end
        with self._lock:
            self.spans.append(record)

    def write(self, path) -> None:
        """Write every span as one JSON line (called once, at exit)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as out:
            for record in self.spans:
                out.write(json.dumps(record.to_dict()) + "\n")
            for root in self.orphans:
                if root.children:
                    out.write(json.dumps({"orphans": root.to_dict()})
                              + "\n")


# -- analysis -------------------------------------------------------------------


def self_time(record: Span, children: list[Span]) -> float:
    """Duration minus child coverage (interval union + rolled totals)."""
    covered = 0.0
    end = record.start
    for child in sorted(children, key=lambda c: c.start):
        lo, hi = max(child.start, end), min(child.end, record.end)
        if hi > lo:
            covered += hi - lo
            end = hi
    covered += sum(node.total for node in record.children.values())
    return max(record.duration - covered, 0.0)


def children_of(spans) -> dict[int, list[Span]]:
    out: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            out.setdefault(s.parent, []).append(s)
    return out


def rolled_total(records, path: tuple[str, ...]) -> tuple[int, float]:
    """(count, seconds) of the rolled-up node at *path* under *records*;
    a path element ending in ``*`` matches by prefix."""
    count, total = 0, 0.0
    frontier = [r.children for r in records]
    for depth, key in enumerate(path):
        nxt = []
        for children in frontier:
            for name, node in children.items():
                if name == key or (key.endswith("*")
                                   and name.startswith(key[:-1])):
                    if depth == len(path) - 1:
                        count += node.count
                        total += node.total
                    else:
                        nxt.append(node.children)
        frontier = nxt
    return count, total


def link_by_rid(spans, child_prefix: str, parent_prefix: str) -> None:
    """Set each *child_prefix* span's parent to the *parent_prefix* span
    with the same request id."""
    parents = {s.rid: s.id for s in spans
               if s.name.startswith(parent_prefix) and s.rid}
    for s in spans:
        if s.name.startswith(child_prefix) and s.parent is None:
            s.parent = parents.get(s.rid)
