"""Shared plumbing: repository paths, isolation, child processes, stats."""

from __future__ import annotations

import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Scratch space inside the checkout (artifact caches, span files).
WORK = ROOT / ".perfbench"

#: Bound on one setup probe process.
PROBE_TIMEOUT_S = 60
#: Setup probes per run; ``setup_s`` is their median.
SETUP_PROBES = 5


@dataclass
class Outcome:
    """What one run measured: checked outputs, metrics, recorded spans."""

    attempted: int
    failed: int
    metrics: dict
    recorder: object = None


def program_present() -> bool:
    return (SRC / "repro" / "__init__.py").is_file()


def use_program() -> None:
    """Make ``import repro`` resolve to this checkout's sources."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def empty_cache_dir() -> Path:
    """A new, empty aot artifact cache directory inside the checkout."""
    (WORK / "tmp").mkdir(parents=True, exist_ok=True)
    return Path(tempfile.mkdtemp(prefix="aot-", dir=WORK / "tmp"))


def fresh_cache_dir() -> Path:
    """A new, empty aot artifact cache, installed as ``REPRO_AOT_CACHE``."""
    path = empty_cache_dir()
    os.environ["REPRO_AOT_CACHE"] = str(path)
    return path


def remove_dir(path: Path | None) -> None:
    if path is not None:
        shutil.rmtree(path, ignore_errors=True)


def setup_probe(workload: str) -> float:
    """Seconds from spawning a fresh interpreter (with a fresh, empty
    artifact cache) to the workload being ready for its first timed
    call."""
    cache = empty_cache_dir()
    try:
        spawned = time.time()
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"),
             "--workload", workload, "--probe"],
            capture_output=True, text=True, cwd=ROOT,
            env=dict(os.environ, REPRO_AOT_CACHE=str(cache)),
            timeout=PROBE_TIMEOUT_S)
    finally:
        remove_dir(cache)
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed ({proc.returncode}): "
                           f"{proc.stderr[-2000:]}")
    ready = json.loads(proc.stdout.strip().splitlines()[-1])["ready"]
    return ready - spawned


class SetupProbes:
    """``setup_s`` samples taken between units of work, so they spread
    over the run instead of landing in one burst (host speed drifts
    over seconds)."""

    def __init__(self, workload: str, count: int = SETUP_PROBES) -> None:
        self.workload = workload
        self.count = count
        self.samples: list[float] = []

    def catch_up(self, fraction: float) -> None:
        """Take probes until a *fraction* of them is done."""
        while len(self.samples) < round(self.count * min(fraction, 1.0)):
            self.samples.append(setup_probe(self.workload))

    def median(self) -> float:
        self.catch_up(1.0)
        return median(self.samples)


#: Measured seconds between two reference samples of :class:`HostSpeed`.
REFERENCE_EVERY_S = 1.0
#: The reference computation's time on the host ``unit_s`` is scaled
#: to (about its fastest time on a 2-vCPU 2.0 GHz Xeon VM).
REFERENCE_S = 0.05
_MODULUS = (1 << 511) - 187


class _Slot:
    __slots__ = ("key", "items")

    def __init__(self, key, items) -> None:
        self.key = key
        self.items = items


def reference() -> int:
    """Fixed Python work in the three styles the workloads spend their
    time in: a small-integer loop, 512-bit modular multiplications and
    object churn (allocations, attributes, dicts, lists)."""
    total = 0
    for i in range(120_000):
        total += i * i % 7
    x, y = 3 ** 300 % _MODULUS, 5 ** 200 % _MODULUS
    for _ in range(24_000):
        x = x * y % _MODULUS
    table = {}
    for i in range(30_000):
        slot = _Slot(i, [i, i + 1])
        table[i & 1023] = slot
        slot.items.append(slot.key + len(table))
    return total + x + len(table)


class HostSpeed:
    """The host's speed over a run, as the fastest time of
    :func:`reference` sampled between units of work.

    Host speed on a shared machine drifts by tens of percent for
    seconds to minutes, and a whole run can sit in a slow phase; the
    fastest unit of such a run is slow too.  The reference slows with
    it, so ``scaled(t) = t * REFERENCE_S / fastest reference`` is the
    time *t* would have taken on a host where the reference takes
    :data:`REFERENCE_S`."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def catch_up(self, spent: float) -> None:
        """Sample until there is one sample per
        :data:`REFERENCE_EVERY_S` of the *spent* measured time."""
        while len(self.samples) <= spent / REFERENCE_EVERY_S:
            start = time.perf_counter()
            reference()
            self.samples.append(time.perf_counter() - start)

    def scaled(self, seconds: float) -> float:
        return seconds * REFERENCE_S / min(self.samples)


def within_budget(spent: float, seconds: float, last: float,
                  done: int) -> bool:
    """Start another unit unless it would take the measured time past
    *seconds* (at least one unit always runs)."""
    return done == 0 or spent + last <= seconds


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def fastest_total(times_by_item) -> float:
    """The time of one unit of work with the host's interference
    filtered out: *times_by_item* holds, for each item of the unit, the
    times of its repetitions, every repetition doing the same work; the
    result sums each item's fastest time."""
    return sum(min(times) for times in times_by_item)


def median(values) -> float:
    return statistics.median(values)


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
