"""Machine-readable exporters for spans and metrics.

Two formats, each chosen for a different consumer:

* **JSON document** (:func:`write_json`) — one self-contained object
  with the span tree, the flattened metrics and run metadata; the
  format behind the CLI's ``--telemetry out.json``;
* **JSONL event stream** (:func:`write_jsonl` / :func:`read_jsonl`) —
  one event per line (``meta``, ``span``, ``metric``), append-friendly
  and streamable; ``read_jsonl`` reconstructs the exact in-memory
  span tree (round-trip tested);

plus :func:`write_bench` — the ``BENCH_*.json`` perf-trajectory
artifact: a small summary record appended to a ``runs`` list so CI can
track the benchmark numbers PR over PR.
"""

from __future__ import annotations

import json
import platform
import sys
import time
from typing import Any

from repro.telemetry.metrics import MetricsRegistry, TelemetryError
from repro.telemetry.spans import SpanNode

#: Format version stamped into every export.
SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# Span tree <-> plain dicts
# ---------------------------------------------------------------------------


def span_to_dict(node: SpanNode) -> dict[str, Any]:
    """JSON-friendly recursive dump of one span subtree."""
    data = {
        "name": node.name,
        "labels": {k: v for k, v in node.labels},
        "count": node.count,
        "self_cycles": node.self_cycles,
        "total_cycles": node.total_cycles,
        "wall_s": node.wall_s,
        "children": [
            span_to_dict(child) for child in node.children.values()
        ],
    }
    if node.start_epoch is not None:
        data["start_epoch"] = node.start_epoch
    return data


def span_from_dict(data: dict[str, Any]) -> SpanNode:
    """Inverse of :func:`span_to_dict` (``total_cycles`` is derived and
    ignored on input)."""
    labels = tuple(sorted(
        (k, str(v)) for k, v in data.get("labels", {}).items()
    ))
    node = SpanNode(data["name"], labels)
    node.count = data.get("count", 0)
    node.self_cycles = data.get("self_cycles", 0)
    node.wall_s = data.get("wall_s", 0.0)
    node.start_epoch = data.get("start_epoch")
    for child_data in data.get("children", ()):
        child = span_from_dict(child_data)
        node.children[(child.name, child.labels)] = child
    return node


def _meta() -> dict[str, Any]:
    return {
        "schema": SCHEMA_VERSION,
        "timestamp": time.time(),
        "python": platform.python_version(),
        "platform": sys.platform,
    }


# ---------------------------------------------------------------------------
# JSON document
# ---------------------------------------------------------------------------


def to_json_document(
    root: SpanNode,
    registry: MetricsRegistry,
    *,
    extra: dict[str, Any] | None = None,
) -> dict[str, Any]:
    """The combined export object (see :func:`write_json`)."""
    document = {
        "meta": _meta(),
        "spans": span_to_dict(root),
        "metrics": registry.to_dict(),
    }
    if extra:
        document.update(extra)
    return document


def write_json(
    path: str,
    root: SpanNode,
    registry: MetricsRegistry,
    *,
    extra: dict[str, Any] | None = None,
) -> None:
    """Write the combined JSON document to *path*."""
    document = to_json_document(root, registry, extra=extra)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=False)
        handle.write("\n")


# ---------------------------------------------------------------------------
# JSONL event stream
# ---------------------------------------------------------------------------


def write_jsonl(
    path: str,
    root: SpanNode,
    registry: MetricsRegistry | None = None,
) -> None:
    """Stream the telemetry state as one JSON event per line.

    Span events carry a ``path`` (list of ``[name, labels]`` pairs from
    the root), which makes each line self-describing and lets
    :func:`read_jsonl` rebuild the tree without relying on ordering.
    """
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps({"type": "meta", **_meta()}) + "\n")
        for node, span_path in _walk_with_paths(root, []):
            event = {
                "type": "span",
                "path": span_path,
                "count": node.count,
                "self_cycles": node.self_cycles,
                "wall_s": node.wall_s,
            }
            if node.start_epoch is not None:
                event["start_epoch"] = node.start_epoch
            handle.write(json.dumps(event) + "\n")
        if registry is not None:
            for sample in registry.samples():
                event = {
                    "type": "metric",
                    "name": sample.name,
                    "kind": sample.kind,
                    "labels": dict(sample.labels),
                    "value": sample.value,
                }
                handle.write(json.dumps(event) + "\n")


def _walk_with_paths(node: SpanNode, prefix: list):
    span_path = prefix + [[node.name, {k: v for k, v in node.labels}]]
    yield node, span_path
    for child in node.children.values():
        yield from _walk_with_paths(child, span_path)


def read_jsonl(path: str) -> SpanNode:
    """Rebuild the span tree from a :func:`write_jsonl` stream."""
    root: SpanNode | None = None
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            event = json.loads(line)
            if event.get("type") != "span":
                continue
            span_path = event["path"]
            name, labels = span_path[0]
            key = tuple(sorted((k, str(v)) for k, v in labels.items()))
            if root is None:
                root = SpanNode(name, key)
            node = root
            for name, labels in span_path[1:]:
                key = tuple(sorted(
                    (k, str(v)) for k, v in labels.items()))
                node = node.child(name, key)
            node.count = event.get("count", 0)
            node.self_cycles = event.get("self_cycles", 0)
            node.wall_s = event.get("wall_s", 0.0)
            node.start_epoch = event.get("start_epoch")
    if root is None:
        raise TelemetryError(f"no span events found in {path!r}")
    return root


# ---------------------------------------------------------------------------
# BENCH_*.json perf trajectory
# ---------------------------------------------------------------------------


def write_bench(
    path: str,
    benchmark: str,
    record: dict[str, Any],
) -> dict[str, Any]:
    """Append *record* to the trajectory artifact at *path*.

    The artifact is ``{"benchmark": ..., "schema": ..., "runs": [...]}``;
    an existing file accumulates (the *trajectory*), anything
    unreadable is started afresh.  Returns the written document.
    """
    document: dict[str, Any] = {
        "benchmark": benchmark,
        "schema": SCHEMA_VERSION,
        "runs": [],
    }
    try:
        with open(path, "r", encoding="utf-8") as handle:
            existing = json.load(handle)
        if (isinstance(existing, dict)
                and existing.get("benchmark") == benchmark
                and isinstance(existing.get("runs"), list)):
            document["runs"] = existing["runs"]
    except (OSError, ValueError):
        pass
    document["runs"].append({**_meta(), **record})
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2)
        handle.write("\n")
    return document
