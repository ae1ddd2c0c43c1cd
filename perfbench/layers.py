"""The public calls a traced run wraps, and the per-layer metrics read
from the recorded spans and from the program's own telemetry.

Layers are named by the program's modules: ``csidh``, ``field``,
``kernels``, ``rv64``, ``eval`` and ``service``.
"""

from __future__ import annotations

import importlib
from contextlib import contextmanager

from spans import Recorder, children_of, rolled_total, self_time

FIELD_OPS = ("mul", "sqr", "add", "sub")
VARIANTS = ("full.isa", "full.ise", "reduced.isa", "reduced.ise")
FP_KERNELS = ("fp_mul", "fp_add", "fp_sub")
STALL_ROWS = ("int_mul", "mont_redc", "fp_mul")


def metric_key(variant: str) -> str:
    return variant.replace(".", "_")


# -- installation -----------------------------------------------------------------


def install_kernels(rec: Recorder) -> None:
    """kernels (generation, runner construction, runs) and the rv64
    assembler."""
    from repro.eval import table4
    from repro.kernels import registry, runner

    rec.patch(registry, "cached_kernels", rec.span, "kernels.generate")
    rec.replace(table4, "cached_kernels", registry.cached_kernels)
    rec.patch(runner.KernelRunner, "__init__", rec.span,
              "kernels.runner_init")
    rec.patch(runner, "assemble", rec.span, "rv64.assemble")
    rec.patch(runner.KernelRunner, "run", rec.rolled,
              lambda a, k: "run:" + a[0].kernel.name)
    rec.patch(runner.KernelRunner, "run_batch", rec.span,
              lambda a, k: "kernels.run_batch:" + a[0].kernel.name,
              info=lambda a, k, result: {"items": len(result)})
    rec.patch(table4, "measure_table4", rec.span, "eval.measure_table4")


def install_field(rec: Recorder, cls, *, batches: bool = False) -> None:
    """field: the four counted operations of *cls* (rolled up)."""
    for op in FIELD_OPS:
        rec.patch(cls, op, rec.rolled, f"field.{op}")
    if batches:
        for op in FIELD_OPS:
            rec.patch(cls, f"{op}_batch", rec.span, f"field.{op}_batch",
                      info=lambda a, k, result: {"items": len(result)})


def install_csidh(rec: Recorder) -> None:
    """csidh: group action (with its round statistics), protocol calls
    and peer validation."""
    from repro.csidh import protocol
    from repro.csidh.group_action import ActionStats

    def stats_info(args, kwargs, result):
        stats = kwargs["stats"]
        return {"rounds": stats.rounds, "isogenies": stats.isogenies,
                "wasted": stats.wasted_samples,
                "missed": stats.missed_kernels}

    ga_module = importlib.import_module("repro.csidh.group_action")
    traced = rec.span(ga_module.group_action, "csidh.group_action",
                      info=stats_info)

    def group_action(*args, stats=None, **kwargs):
        # the wrapper supplies the statistics object the caller left out
        return traced(*args, stats=stats if stats is not None
                      else ActionStats(), **kwargs)

    for module in (ga_module, protocol):
        rec.replace(module, "group_action", group_action)
    for method in ("public_key", "shared_secret"):
        rec.patch(protocol.Csidh, method, rec.span, f"csidh.{method}")
    rec.patch(protocol, "is_supersingular", rec.span, "csidh.validate")


def install_engine_tap(rec: Recorder, counts: dict) -> None:
    """Count machine runs per engine and aot demotions through the
    program's own ``record_machine_run`` / ``record_aot_demotion`` hooks,
    without turning telemetry on (its span and label bookkeeping
    serialises the service's worker threads)."""
    import threading

    from repro import telemetry

    lock = threading.Lock()

    def tap(hook: str):
        record = getattr(telemetry, hook)

        def counted(label: str) -> None:
            key = f"{hook}:{label}" if hook == "record_machine_run" \
                else hook
            with lock:
                counts[key] = counts.get(key, 0) + 1
            record(label)

        return counted

    for hook in ("record_machine_run", "record_aot_demotion"):
        rec.replace(telemetry, hook, tap(hook))


@contextmanager
def installed(rec: Recorder, installers):
    for install in installers:
        install(rec)
    try:
        yield rec
    finally:
        rec.restore()


# -- per-layer metrics from spans -------------------------------------------------


def csidh_metrics(spans, units: int, overhead: float) -> dict:
    """csidh.* per unit of work: self time outside field calls (less
    the wrappers' *overhead* per rolled-up call), round statistics and
    field-operation counts."""
    csidh = [s for s in spans if s.name.startswith("csidh.")]
    kids = children_of(spans)
    own = sum(self_time(s, kids.get(s.id, [])) for s in csidh)
    rolled = sum(node.count for s in csidh for node in s.children.values())
    actions = [s for s in csidh if s.name == "csidh.group_action"]
    rounds = sum(s.info.get("rounds", 0) for s in actions)
    wasted = sum(s.info.get("wasted", 0) for s in actions)
    out = {
        "csidh.self_s": (own - rolled * overhead) / units,
        "csidh.isogenies": sum(s.info.get("isogenies", 0)
                               for s in actions) / units,
        "csidh.rounds": rounds / units,
        "csidh.sample_yield": rounds / (rounds + wasted) if rounds else 0.0,
    }
    for op in FIELD_OPS:
        out[f"csidh.field_ops.{op}"] = rolled_total(
            csidh, (f"field.{op}",))[0] / units
    return out


def field_metrics(spans, overhead: float) -> dict:
    """field.op_us.* (mean call time) and field.self_us.* (call time
    minus the kernel runs inside it, less the wrappers' *overhead* per
    run)."""
    out = {}
    for op in FIELD_OPS:
        count, total = rolled_total(spans, (f"field.{op}",))
        if not count:
            continue
        runs, run_s = rolled_total(spans, (f"field.{op}", "run:*"))
        out[f"field.op_us.{op}"] = 1e6 * total / count
        out[f"field.self_us.{op}"] = \
            1e6 * (total - run_s - runs * overhead) / count
    return out


def kernel_metrics(spans) -> dict:
    """kernels.run_us.*, kernels.build_s and rv64.assemble_s."""
    out = {}
    for kernel in FP_KERNELS:
        for variant in VARIANTS:
            name = f"run:{kernel}.{variant}"
            count, total = rolled_total(spans, ("field.*", name))
            direct = rolled_total(spans, (name,))
            count, total = count + direct[0], total + direct[1]
            if count:
                out[f"kernels.run_us.{kernel}.{variant}"] = \
                    1e6 * total / count
    out["kernels.build_s"] = sum(
        s.duration for s in spans
        if s.name in ("kernels.generate", "kernels.runner_init"))
    out["rv64.assemble_s"] = sum(
        s.duration for s in spans if s.name == "rv64.assemble")
    return out


# -- per-layer metrics from the program's telemetry -------------------------------


def _counter(captures, name: str, **labels) -> float:
    total = 0
    for cap in captures:
        family = cap.registry.counter(name)
        total += family.value(**labels) if labels else family.total()
    return total


def telemetry_metrics(captures) -> dict:
    """Counters the program keeps itself (read via ``telemetry.capture``)."""
    hits = _counter(captures, "runner_pool_hits_total")
    misses = _counter(captures, "runner_pool_misses_total")
    runs = _counter(captures, "machine_runs_total")
    compile_s = sum(
        cap.registry.histogram("aot_compile_seconds").unlabeled.sum
        for cap in captures)
    return {
        "kernels.pool_hit_ratio": hits / (hits + misses)
        if hits + misses else 0.0,
        "rv64.aot_run_share":
            _counter(captures, "machine_runs_total", engine="aot") / runs
            if runs else 0.0,
        "rv64.aot_demotions": _counter(captures, "aot_demotions_total"),
        "rv64.aot_compile_s": compile_s,
        "rv64.aot_artifact_misses":
            _counter(captures, "aot_artifact_misses_total"),
    }


def phase_cycles(root) -> dict:
    """Simulated cycles per protocol phase from a captured span tree."""
    out = {}
    for phase in ("sample_point", "cofactor_clear", "isogeny",
                  "recover_affine"):
        out[f"csidh.phase_cycles.{phase}"] = sum(
            node.total_cycles for node in root.walk()
            if node.name == phase)
    return out
