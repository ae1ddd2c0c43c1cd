"""Golden pipeline-stats regression: pin every counter of the timing
model, not just the cycle total.

``test_golden_cycles.py`` pins each kernel's total; this test pins the
split behind it.  For every kernel of both parameter sets it runs the
interpreter once on seeded sample operands, under the plain Rocket
model and under the cache-enabled one, and diffs every
:class:`~repro.rv64.pipeline.PipelineStats` counter (instructions,
cycles, RAW stalls, control-flush cycles, cache-miss cycles and the
per-kind issue counts) against ``tests/golden_pipeline_stats.json``.
A drift is reported as ``set/config/kernel.field: golden -> current``.
The stall split is what the benchmark reports per Table-4 row, and the
cache-enabled runs are the only oracle for the cache-miss paths.
Regenerate after intentional changes with::

    PYTHONPATH=src python -m tests.differential.generate_golden
"""

from __future__ import annotations

import json

from tests.differential.generate_golden import (
    PARAMETER_SETS,
    PIPELINE_CONFIGS,
    STATS_FIELDS,
    STATS_PATH,
    collect_stats,
)


def test_snapshot_covers_every_set_and_config():
    golden = json.loads(STATS_PATH.read_text())["moduli"]
    assert set(golden) == set(PARAMETER_SETS)
    for set_name, configs in golden.items():
        assert set(configs) == set(PIPELINE_CONFIGS), set_name
        for config_name, kernels in configs.items():
            assert kernels, f"{set_name}/{config_name}: empty snapshot"
            for name, stats in kernels.items():
                assert set(stats) == set(STATS_FIELDS), name
                assert stats["cycles"] >= stats["instructions"] > 0
                assert sum(stats["kind_counts"].values()) == \
                    stats["instructions"]
    # the cache-enabled runs exercise the miss paths, the plain ones
    # never do
    assert any(stats["cache_miss_cycles"] > 0
               for stats in golden["csidh-512"]["rocket+caches"].values())
    assert all(stats["cache_miss_cycles"] == 0
               for stats in golden["csidh-512"]["rocket"].values())


def test_pipeline_stats_match_golden_snapshot():
    golden = json.loads(STATS_PATH.read_text())["moduli"]
    current = collect_stats()["moduli"]

    lines = []
    for set_name in sorted(set(golden) | set(current)):
        for config_name in sorted(PIPELINE_CONFIGS):
            want = golden.get(set_name, {}).get(config_name, {})
            got = current.get(set_name, {}).get(config_name, {})
            where = f"{set_name}/{config_name}"
            for kernel in sorted(set(want) | set(got)):
                if kernel not in got:
                    lines.append(f"  {where}/{kernel}: kernel vanished")
                    continue
                if kernel not in want:
                    lines.append(f"  {where}/{kernel}: new kernel "
                                 f"missing from snapshot")
                    continue
                for name in STATS_FIELDS:
                    if got[kernel][name] != want[kernel][name]:
                        lines.append(
                            f"  {where}/{kernel}.{name}: "
                            f"{want[kernel][name]} -> "
                            f"{got[kernel][name]}")

    assert not lines, (
        "pipeline statistics drifted from "
        "tests/golden_pipeline_stats.json (regenerate via python -m "
        "tests.differential.generate_golden if intentional):\n"
        + "\n".join(lines))
