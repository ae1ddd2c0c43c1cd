"""Metrics registry: counters, gauges and histograms with labels.

A :class:`MetricsRegistry` is a named collection of metric families.
Each family owns zero or more *children*, one per distinct label value
combination (the Prometheus data model, scaled down to what a
single-process simulator needs):

* :class:`Counter` — monotonically increasing totals (kernel runs,
  aot demotions, pool hits);
* :class:`Gauge` — last-written values (pool size, configured limits);
* :class:`Histogram` — bucketed distributions with count/sum/min/max
  (per-run cycle counts, span durations).

Built-in families are declared once, as :class:`FamilySpec` rows of
:data:`repro.telemetry.FAMILIES`; a registry binds a declared family's
child per label-value tuple (:meth:`MetricsRegistry.bind`) and caches
it, so recording a known series is one dict lookup.  Registries are
plain objects, so tests and embedders can construct private instances
and pass them wherever a registry is accepted.

Everything here is bookkeeping on plain dicts — no background threads,
no I/O.  Exporters live in :mod:`repro.telemetry.export`.

Since the service layer (:mod:`repro.service`) executes kernel runs on
worker threads, every *family-level* mutation (``Counter.inc``,
``Gauge.set``/``inc``/``dec``, ``Histogram.observe``) and every
get-or-create (family or child) is serialised on one re-entrant module
lock, :data:`MUTATION_LOCK` — concurrent sessions can therefore never
lose a counter update (``tests/service/test_concurrent_sessions.py``
asserts the sums are exact).  The span recorder shares the same lock so
cycle attribution composes with it.  Reads used by exporters
(``samples``/``to_dict``) snapshot under the lock.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Iterator

from repro.errors import ReproError

#: One re-entrant lock for all telemetry mutation (metrics *and* span
#: cycle attribution): uncontended acquisition is ~100ns, far below the
#: enabled-capture budget guarded by
#: ``benchmarks/test_telemetry_overhead.py``.
MUTATION_LOCK = threading.RLock()


class TelemetryError(ReproError):
    """Misuse of the telemetry layer (type clash, bad labels, ...)."""

    code = "telemetry"


LabelKey = tuple[tuple[str, str], ...]


def _label_key(labels: dict[str, object]) -> LabelKey:
    """Canonical, hashable form of a label set (values stringified)."""
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


# ---------------------------------------------------------------------------
# Metric children (one per label combination)
# ---------------------------------------------------------------------------


class CounterChild:
    """A single monotonically increasing series."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise TelemetryError("counters only go up")
        self.value += amount

    record = inc


class GaugeChild:
    """A single last-value-wins series."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount

    record = set


#: Default histogram bucket upper bounds (cycle-count flavoured:
#: generated kernels run tens to thousands of cycles each).
DEFAULT_BUCKETS = (
    10, 50, 100, 500, 1_000, 5_000, 10_000, 50_000, 100_000,
)


class HistogramChild:
    """A single bucketed distribution."""

    __slots__ = ("bounds", "buckets", "count", "sum", "min", "max")

    def __init__(self, bounds: tuple[float, ...]) -> None:
        self.bounds = bounds
        self.buckets = [0] * (len(bounds) + 1)  # +1: the +Inf bucket
        self.count = 0
        self.sum = 0.0
        self.min: float | None = None
        self.max: float | None = None

    def observe(self, value: float) -> None:
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        for index, bound in enumerate(self.bounds):
            if value <= bound:
                self.buckets[index] += 1
                return
        self.buckets[-1] += 1

    record = observe


# ---------------------------------------------------------------------------
# Metric families
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FamilySpec:
    """Declaration of one metric family.

    ``labels`` are the label names in the order recorders pass their
    values; ``buckets`` matter only for histograms.  Every child's
    ``record(value)`` adds to a counter, sets a gauge and observes into
    a histogram.
    """

    name: str
    kind: str  # "counter" | "gauge" | "histogram"
    help: str
    labels: tuple[str, ...] = ()
    buckets: tuple[float, ...] = DEFAULT_BUCKETS


class _Family:
    """Shared get-or-create child bookkeeping for one metric name."""

    kind = "untyped"
    child_cls: type = CounterChild

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._children: dict[LabelKey, object] = {}

    def _make_child(self):
        return self.child_cls()

    def labels(self, **labels: object):
        """Child for one label combination (created on first use)."""
        key = _label_key(labels)
        child = self._children.get(key)
        if child is None:
            with MUTATION_LOCK:
                child = self._children.get(key)
                if child is None:
                    child = self._children[key] = self._make_child()
        return child

    @property
    def unlabeled(self):
        """The no-label child (shorthand for ``labels()``)."""
        return self.labels()

    def children(self) -> Iterator[tuple[LabelKey, object]]:
        yield from self._children.items()


class Counter(_Family):
    kind = "counter"
    child_cls = CounterChild

    def inc(self, amount: int = 1, **labels: object) -> None:
        child = self.labels(**labels)
        with MUTATION_LOCK:
            child.inc(amount)

    def value(self, **labels: object) -> int:
        key = _label_key(labels)
        child = self._children.get(key)
        return child.value if child is not None else 0

    def total(self) -> int:
        """Sum over every label combination."""
        with MUTATION_LOCK:
            return sum(child.value for child in self._children.values())


class Gauge(_Family):
    kind = "gauge"
    child_cls = GaugeChild

    def set(self, value: float, **labels: object) -> None:
        child = self.labels(**labels)
        with MUTATION_LOCK:
            child.set(value)

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        child = self.labels(**labels)
        with MUTATION_LOCK:
            child.inc(amount)

    def dec(self, amount: float = 1.0, **labels: object) -> None:
        child = self.labels(**labels)
        with MUTATION_LOCK:
            child.dec(amount)

    def value(self, **labels: object) -> float:
        key = _label_key(labels)
        child = self._children.get(key)
        return child.value if child is not None else 0.0


class Histogram(_Family):
    kind = "histogram"
    child_cls = HistogramChild

    def __init__(
        self,
        name: str,
        help: str = "",
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> None:
        super().__init__(name, help)
        self.bounds = tuple(sorted(buckets))

    def _make_child(self) -> HistogramChild:
        return HistogramChild(self.bounds)

    def observe(self, value: float, **labels: object) -> None:
        child = self.labels(**labels)
        with MUTATION_LOCK:
            child.observe(value)


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MetricSample:
    """One exported time-series point: ``name{labels} = value``."""

    name: str
    kind: str
    labels: LabelKey
    value: float


class MetricsRegistry:
    """A named collection of metric families.

    ``counter``/``gauge``/``histogram`` are get-or-create: the first
    call for a name fixes its type, and later calls with a clashing
    type raise :class:`TelemetryError` (catching the classic silent
    double-registration bug).
    """

    def __init__(self) -> None:
        self._families: dict[str, _Family] = {}
        #: ``(family name, label values) -> child`` for declared
        #: families, filled by :meth:`bind`
        self.bound: dict[tuple[str, tuple], object] = {}
        #: ``(kernel, engine) -> (runs, cycles, instructions)`` children
        #: of the three ``kernel_*`` families, filled by
        #: :func:`repro.telemetry.record_kernel_run`
        self.kernel_children: dict[tuple[str, str], tuple] = {}

    def _get_or_create(self, cls, name: str, help: str, **kwargs):
        family = self._families.get(name)
        if family is None:
            with MUTATION_LOCK:
                family = self._families.get(name)
                if family is None:
                    family = self._families[name] = cls(
                        name, help, **kwargs)
        if type(family) is not cls:
            raise TelemetryError(
                f"metric {name!r} already registered as "
                f"{family.kind}, not {cls.kind}"
            )
        return family

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(Gauge, name, help)

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> Histogram:
        return self._get_or_create(Histogram, name, help,
                                   buckets=buckets)

    def bind(self, spec: FamilySpec, values: tuple) -> object:
        """The child of the declared family *spec* for label *values*
        (in the declared order), cached in :attr:`bound`."""
        if len(values) != len(spec.labels):
            raise TelemetryError(
                f"metric {spec.name!r} takes labels {spec.labels}, "
                f"got {len(values)} values")
        with MUTATION_LOCK:  # never caches a child a reset dropped
            if spec.kind == "histogram":
                family = self.histogram(spec.name, spec.help,
                                        spec.buckets)
            else:
                family = getattr(self, spec.kind)(spec.name, spec.help)
            child = family.labels(**dict(zip(spec.labels, values)))
            self.bound[(spec.name, values)] = child
        return child

    def families(self) -> Iterator[_Family]:
        yield from self._families.values()

    def reset(self) -> None:
        """Drop every family (fresh registry state)."""
        with MUTATION_LOCK:
            self._families.clear()
            self.bound.clear()
            # a new table, so a resolved KernelBooking sees the reset
            self.kernel_children = {}

    # -- export views --------------------------------------------------------

    def samples(self) -> Iterator[MetricSample]:
        """Flatten every child into exportable samples.

        Histograms flatten to ``_count``/``_sum``/``_bucket`` series,
        mirroring the Prometheus exposition conventions.  The flatten
        runs under :data:`MUTATION_LOCK`, so an export taken while
        worker threads are recording is a consistent snapshot.
        """
        with MUTATION_LOCK:
            return iter(list(self._samples()))

    def _samples(self) -> Iterator[MetricSample]:
        for family in list(self._families.values()):
            if isinstance(family, Histogram):
                for key, child in family.children():
                    assert isinstance(child, HistogramChild)
                    yield MetricSample(f"{family.name}_count",
                                       family.kind, key, child.count)
                    yield MetricSample(f"{family.name}_sum",
                                       family.kind, key, child.sum)
                    cumulative = 0
                    for bound, count in zip(child.bounds, child.buckets):
                        cumulative += count
                        yield MetricSample(
                            f"{family.name}_bucket", family.kind,
                            key + (("le", str(bound)),), cumulative)
                    yield MetricSample(
                        f"{family.name}_bucket", family.kind,
                        key + (("le", "+Inf"),), child.count)
            else:
                for key, child in family.children():
                    yield MetricSample(family.name, family.kind, key,
                                       child.value)  # type: ignore

    def to_dict(self) -> dict[str, list[dict[str, object]]]:
        """JSON-friendly dump: ``name -> [{labels, value}, ...]``."""
        out: dict[str, list[dict[str, object]]] = {}
        for sample in self.samples():
            out.setdefault(sample.name, []).append({
                "labels": dict(sample.labels),
                "value": sample.value,
            })
        return out
