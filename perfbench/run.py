#!/usr/bin/env python3
"""Repository benchmark: CSIDH-512 and the service, end to end and per layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload action512 --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` makes a traced run that prints the per-layer metrics
(and the tracing overhead against an untraced reference inside the
same run) and writes its spans to ``.perfbench/traces/``.  The last
line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Metric names and units come from ``BENCHMARK.json``; see
``perfbench/README.md`` for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys

import common

#: ``PYTHONHASHSEED`` of every benchmark process.
HASH_SEED = "0"

WORKLOADS = {
    "action512": "w_action",
    "table4-512": "w_table4",
    "service-toy": "w_service",
}


def parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: set the workload up in this fresh process, print when ready
    parser.add_argument("--probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def report(spec: dict, outcome, trace: bool) -> dict:
    """The result line: every metric of the run's kind, by name."""
    declared = spec["per_layer" if trace else "end_to_end"]
    metrics = {}
    for entry in declared:
        name = entry["name"]
        if name in outcome.metrics:
            value = outcome.metrics[name]
        elif trace:
            value = 0.0  # a layer this workload never enters
        else:
            raise KeyError(f"workload did not measure {name!r}")
        metrics[name] = {"value": value, "unit": entry["unit"]}
    return {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    args = parse(argv)
    if not common.program_present():
        print(f"perfbench: no program sources at {common.SRC}",
              file=sys.stderr)
        return 2
    common.use_program()
    workload = importlib.import_module(WORKLOADS[args.workload])
    if args.probe:
        print(json.dumps({"ready": workload.probe()}))
        return 0
    spec = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    cache = common.fresh_cache_dir()
    try:
        outcome = workload.run(args.seed, args.seconds, bool(args.trace))
    finally:
        common.remove_dir(cache)
    if outcome.recorder is not None:
        outcome.recorder.write(
            common.WORK / "traces"
            / f"{args.workload}-seed{args.seed}.jsonl")
    print(json.dumps(report(spec, outcome, bool(args.trace))))
    return 0


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # string hashing is salted per process by default, and the salt
        # moves the program's speed by several percent from one process
        # to the next; run with a fixed one instead
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  dict(os.environ, PYTHONHASHSEED=HASH_SEED))
    sys.exit(main())
