"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``table3`` — regenerate the hardware-cost table;
* ``table4`` — regenerate the cycle table (runs the simulator);
* ``action`` — compose the CSIDH-512 group-action cycles/speedups;
* ``exchange`` — run a key exchange (mini params by default);
* ``report`` — full markdown reproduction report;
* ``kernel`` — dump one generated kernel's assembly;
* ``listings`` — print the MAC listings with instruction counts;
* ``validate`` — run every generated kernel against its golden oracle;
* ``profile`` — run an instrumented group action and print the
  cycle-attribution span tree (see ``docs/OBSERVABILITY.md``); on the
  aot engine this covers the full CSIDH-512 action in one process;
* ``faults`` — run a seeded fault-injection campaign against the
  hardened execution layer and print/export the detection-coverage
  report (see ``docs/ROBUSTNESS.md``); exits 1 if any fault escaped;
* ``bench`` — time one simulated group action per execution engine
  (interpreter / aot), verify the outputs agree, and optionally
  append the comparison to the ``BENCH_protocol.json`` perf
  trajectory;
* ``serve`` / ``load`` — the multi-tenant TCP service and its
  in-process load harness (``load`` traces by default and exits 1 on
  any divergence).  ``serve`` runs with telemetry off: nothing reads
  a served process's traces, and its span tree would grow by two
  nodes per request;
* ``trace`` — record a traced load workload and export the span
  forest as Chrome ``trace_event`` JSON and/or collapsed-stack
  flamegraph text (exit 1 on any divergence, like ``load``);
* ``watchdog`` — perf-regression gate over ``BENCH_*.json``
  trajectories (exit 1 on regression, stable code ``regression``).

``action``, ``table4`` and ``report`` additionally accept
``--telemetry PATH`` to export spans and metrics (JSON, or JSONL when
the path ends in ``.jsonl``).

Any :class:`~repro.errors.ReproError` surfaces as a one-line
``error [<code>]: ...`` message on stderr and exit status 2 — never a
traceback.
"""

from __future__ import annotations

import argparse
import sys

from repro.csidh.parameters import csidh_512, csidh_mini, csidh_toy
from repro.errors import KernelError, ParameterError, ReproError
from repro.rv64.machine import ENGINES

_PARAM_SETS = {
    "csidh-512": csidh_512,
    "mini": csidh_mini,
    "toy": csidh_toy,
}


def _export_telemetry(path: str, root, registry, extra=None) -> None:
    """Write spans+metrics to *path* (JSONL if so named, else JSON)."""
    from repro.telemetry import export

    if path.endswith(".jsonl"):
        export.write_jsonl(path, root, registry)
    else:
        export.write_json(path, root, registry, extra=extra)
    print(f"telemetry written to {path}")


def _cmd_table3(args: argparse.Namespace) -> int:
    from repro.eval.table3 import overhead_summary, render_table3

    print(render_table3(include_paper=not args.no_paper))
    for key, pct in overhead_summary().items():
        print(f"{key:8s} LUTs {pct['luts']:+5.1f}%  "
              f"Regs {pct['regs']:+5.1f}%  CMOS {pct['gates']:+5.1f}%")
    return 0


def _cmd_table4(args: argparse.Namespace) -> int:
    from repro.eval.table4 import measure_table4, render_table4

    params = _PARAM_SETS[args.params]()
    if args.telemetry:
        from repro import telemetry

        with telemetry.capture() as cap:
            table = measure_table4(params.p)
        print(render_table4(table, include_paper=not args.no_paper))
        _export_telemetry(args.telemetry, cap.root, cap.registry)
    else:
        table = measure_table4(params.p)
        print(render_table4(table, include_paper=not args.no_paper))
    return 0


def _cmd_action(args: argparse.Namespace) -> int:
    from repro.eval.groupaction import evaluate_group_action
    from repro.eval.table4 import measure_table4

    params = _PARAM_SETS[args.params]()
    table = measure_table4(csidh_512().p)
    result = evaluate_group_action(table, params=params,
                                   keys=args.keys, seed=args.seed)
    print("\n".join(result.summary_lines(
        include_paper=not args.no_paper)))
    if args.telemetry:
        # the analytic composition above models cycles; the telemetry
        # artifact *measures* them: one fully simulated group action
        # with spans across every protocol phase
        from repro.telemetry.profile import (
            profile_group_action,
            render_profile,
        )

        profile = profile_group_action(params, seed=args.seed)
        print()
        print(render_profile(profile))
        _export_telemetry(args.telemetry, profile.root,
                          profile.registry,
                          extra={"workload": profile.workload_dict()})
    return 0


def _cmd_exchange(args: argparse.Namespace) -> int:
    from repro.csidh.protocol import key_exchange_demo

    params = _PARAM_SETS[args.params]()
    secret_a, secret_b = key_exchange_demo(params, seed=args.seed)
    agreed = secret_a == secret_b
    print(f"{params.name}: shared secret "
          f"{'AGREED' if agreed else 'MISMATCH'}: {secret_a:#x}")
    return 0 if agreed else 1


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.eval.report import generate_report

    if args.telemetry:
        from repro import telemetry

        with telemetry.capture() as cap:
            report = generate_report(keys=args.keys, seed=args.seed)
        _export_telemetry(args.telemetry, cap.root, cap.registry)
    else:
        report = generate_report(keys=args.keys, seed=args.seed)
    text = report.to_markdown()
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"report written to {args.output}")
    else:
        print(text)
    return 0


def _cmd_kernel(args: argparse.Namespace) -> int:
    from repro.kernels.registry import cached_kernels

    kernels = cached_kernels(_PARAM_SETS[args.params]().p)
    if args.name not in kernels:
        raise KernelError(
            f"unknown kernel {args.name!r}; available: "
            + ", ".join(sorted(kernels)))
    kernel = kernels[args.name]
    print(kernel.source)
    total = sum(kernel.static_counts.values())
    print(f"# {total} static instructions "
          f"({dict(kernel.static_counts.most_common(6))} ...)")
    return 0


def _cmd_listings(args: argparse.Namespace) -> int:
    from repro.core.macros import (
        carry_propagate_isa,
        carry_propagate_ise,
        mac_full_radix_isa,
        mac_full_radix_ise,
        mac_reduced_radix_isa,
        mac_reduced_radix_ise,
    )

    sections = [
        ("Listing 1 - ISA-only full-radix MAC",
         mac_full_radix_isa("e", "h", "l", "a", "b", "y", "z")),
        ("Listing 2 - ISA-only reduced-radix MAC",
         mac_reduced_radix_isa("h", "l", "a", "b", "y", "z")),
        ("Listing 3 - ISE-supported full-radix MAC",
         mac_full_radix_ise("e", "h", "l", "a", "b", "z")),
        ("Listing 4 - ISE-supported reduced-radix MAC",
         mac_reduced_radix_ise("h", "l", "a", "b")),
        ("carry propagation, ISA-only",
         carry_propagate_isa("x", "y", "m", "z")),
        ("carry propagation, with sraiadd",
         carry_propagate_ise("x", "y", "m")),
    ]
    for title, lines in sections:
        print(f"{title} ({len(lines)} instructions)")
        for line in lines:
            print(f"    {line}")
        print()
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.telemetry.export import write_bench
    from repro.telemetry.profile import (
        profile_group_action,
        render_profile,
    )

    params = _PARAM_SETS[args.params]()
    result = profile_group_action(
        params, variant=args.variant, seed=args.seed,
        cross_check=args.cross_check,
    )
    print(render_profile(result, top=args.top))
    if args.output:
        _export_telemetry(args.output, result.root, result.registry,
                          extra={"workload": result.workload_dict()})
    if args.bench_out:
        write_bench(args.bench_out, "protocol",
                    result.bench_record())
        print(f"benchmark trajectory appended to {args.bench_out}")
    return 0


def _cmd_faults(args: argparse.Namespace) -> int:
    import json as json_module

    from repro.fault import ALL_SITES, run_campaign
    from repro.fault.campaign import OUTCOMES
    from repro.telemetry.profile import check_simulable

    if args.n < 1:
        raise ParameterError(
            f"--n must be at least 1 (got {args.n}); it is the number "
            f"of faults to inject")
    if args.check_interval < 1:
        raise ParameterError(
            f"--check-interval must be at least 1 (got "
            f"{args.check_interval})")
    if args.quiet and not args.json:
        raise ParameterError(
            "--quiet without --json would produce no output at all; "
            "add --json PATH or drop --quiet")
    params = _PARAM_SETS[args.params]()
    check_simulable(params, args.engine, alternative="use --engine aot")
    sites = (tuple(s.strip() for s in args.sites.split(","))
             if args.sites else ALL_SITES)
    report = run_campaign(
        params.p, seed=args.seed, n=args.n, variant=args.variant,
        sites=sites, check_interval=args.check_interval,
        engine=args.engine,
    )

    if not args.quiet:
        width = max(len(site) for site in report.by_site)
        header = f"{'site':<{width}}  " + "  ".join(
            f"{outcome:>20}" for outcome in OUTCOMES)
        print(f"fault campaign: params={params.name} seed={report.seed} "
              f"n={report.n} variant={report.variant}")
        print(header)
        for site, row in sorted(report.by_site.items()):
            print(f"{site:<{width}}  " + "  ".join(
                f"{row[outcome]:>20}" for outcome in OUTCOMES))
        print(f"detected {report.detected}/{report.n}, recovery rate "
              f"{report.recovery_rate:.0%}, escaped {report.escaped}")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json_module.dump(report.to_dict(), handle, indent=2)
            handle.write("\n")
        if not args.quiet:
            print(f"campaign report written to {args.json}")
    return 1 if report.escaped else 0


def _cmd_bench(args: argparse.Namespace) -> int:
    import random
    import time

    from repro.csidh.group_action import group_action
    from repro.field.simulated import SimulatedFieldContext
    from repro.telemetry.export import write_bench
    from repro.telemetry.profile import check_simulable

    if args.rounds < 1:
        raise ParameterError(
            f"--rounds must be at least 1 (got {args.rounds})")
    params = _PARAM_SETS[args.params]()
    engines = (ENGINES if args.engine == "all"
               else (args.engine,))
    for engine in engines:
        check_simulable(params, engine, alternative="use --engine aot")
    p = params.p
    exponent_rng = random.Random(args.seed)
    exponents = tuple(exponent_rng.choice((-1, 0, 1)) or 1
                      for _ in params.ells)

    results: dict[str, dict] = {}
    outputs: dict[str, int] = {}
    for engine in engines:
        context = SimulatedFieldContext(p, variant=args.variant,
                                        engine=engine)
        best = float("inf")
        for _ in range(args.rounds):
            start = time.perf_counter()
            out = group_action(params, context, 0, exponents,
                               random.Random(args.seed))
            best = min(best, time.perf_counter() - start)
        outputs[engine] = out
        results[engine] = {"wall_s": best, "output": out}
    if len(set(outputs.values())) > 1:
        raise KernelError(
            f"engines disagree on the group-action output: {outputs}")

    baseline = results[engines[0]]["wall_s"]
    for engine in engines:
        row = results[engine]
        row["speedup"] = baseline / row["wall_s"]
        print(f"{engine:12s} {row['wall_s'] * 1e3:8.1f} ms   "
              f"{row['speedup']:5.2f}x vs {engines[0]}")

    if args.bench_out:
        record = {
            "mode": "engine_comparison",
            "params": params.name,
            "variant": args.variant,
            "seed": args.seed,
            "rounds": args.rounds,
            "output": outputs[engines[0]],
            "engines": {
                engine: {"wall_s": row["wall_s"],
                         "speedup": row["speedup"]}
                for engine, row in results.items()
            },
        }
        write_bench(args.bench_out, "protocol", record)
        print(f"benchmark trajectory appended to {args.bench_out}")
    return 0


def _service_configs(args: argparse.Namespace):
    from repro.service import default_tenant_configs
    from repro.telemetry.profile import check_simulable

    params = _PARAM_SETS[args.params]()
    # every tenant ladder ends on the interpreter, whatever --engine says
    check_simulable(params, "interpreter")
    configs = default_tenant_configs(
        args.tenants, engine=args.engine, hardened=args.hardened,
        lanes=args.lanes, max_queue=args.max_queue,
        variant=args.variant)
    return params, configs


def _print_trace_summary(summary: dict) -> None:
    print(f"trace: {summary['span_count']} span(s), "
          f"{summary['requests']} request(s), "
          f"{summary['batches']} batch(es), "
          f"{summary['total_cycles']} simulated cycle(s)")
    for row in summary["top_kernels"]:
        print(f"  {row['kernel']:<28} {row['cycles']:>12} cycles")


def _write_trace_exports(root, chrome_path: str | None,
                         flamegraph_path: str | None) -> None:
    """Chrome ``trace_event`` JSON / collapsed-stack flamegraph text."""
    import json as json_module

    from repro.telemetry import tracing

    if not (chrome_path or flamegraph_path):
        return
    if root is None:
        print("no trace recorded (--no-trace); skipping trace export")
        return
    if chrome_path:
        with open(chrome_path, "w", encoding="utf-8") as handle:
            json_module.dump(tracing.to_chrome_trace(root), handle)
            handle.write("\n")
        print(f"chrome trace written to {chrome_path} "
              f"(load it in about://tracing or ui.perfetto.dev)")
    if flamegraph_path:
        with open(flamegraph_path, "w", encoding="utf-8") as handle:
            handle.write(tracing.to_collapsed(root))
        print(f"collapsed stacks written to {flamegraph_path} "
              f"(feed to flamegraph.pl or speedscope)")


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import signal

    from repro.service import KeyExchangeService, start_server

    params, configs = _service_configs(args)
    if args.grace_s < 0:
        raise ParameterError(
            f"--grace-s must be non-negative (got {args.grace_s})")

    async def serve() -> None:
        service = KeyExchangeService(params, configs)
        server = await start_server(service, args.host, args.port)
        host, port = server.sockets[0].getsockname()[:2]
        print(f"serving {params.name} key exchange on {host}:{port} "
              f"({args.tenants} tenant(s) x {args.lanes} lane(s), "
              f"engine {args.engine}"
              f"{', hardened' if args.hardened else ''})")
        sigterm = asyncio.Event()
        loop = asyncio.get_running_loop()
        try:
            loop.add_signal_handler(signal.SIGTERM, sigterm.set)
            sigterm_wired = True
        except (NotImplementedError, RuntimeError):
            # Platforms without loop signal handlers just skip the
            # graceful-drain path; Ctrl-C still works via the
            # KeyboardInterrupt handler below.
            sigterm_wired = False
        try:
            async with server:
                forever = asyncio.ensure_future(server.serve_forever())
                stop = asyncio.ensure_future(sigterm.wait())
                await asyncio.wait(
                    {forever, stop},
                    return_when=asyncio.FIRST_COMPLETED)
                stop.cancel()
                forever.cancel()
                try:
                    await forever
                except asyncio.CancelledError:
                    pass
                if sigterm.is_set():
                    # Graceful drain: stop accepting, reject new
                    # requests with the stable "service" code, let
                    # in-flight work finish inside the grace budget.
                    print(f"SIGTERM: draining in-flight requests "
                          f"(grace {args.grace_s:g}s)")
                    server.close()
                    service.begin_drain()
                    if await service.wait_idle(grace_s=args.grace_s):
                        print("drained cleanly")
                    else:
                        print("grace period expired with requests "
                              "still in flight")
        finally:
            if sigterm_wired:
                loop.remove_signal_handler(signal.SIGTERM)
            await service.aclose()

    try:
        asyncio.run(serve())
    except KeyboardInterrupt:
        print("shutting down")
    return 0


def _finish_load(report, chrome_path: str | None,
                 flamegraph_path: str | None) -> int:
    """The tail ``load`` and ``trace`` share: summaries, trace
    exports, and exit 1 on any divergence."""
    print(report.summary())
    if report.trace_summary is not None:
        _print_trace_summary(report.trace_summary)
    _write_trace_exports(report.trace_root, chrome_path, flamegraph_path)
    if report.divergences:
        # A divergence is an escape: a wrong result left the service.
        print(f"FAIL: {report.divergences} result(s) diverged from "
              f"the sequential pure-Python reference")
        return 1
    return 0


def _cmd_load(args: argparse.Namespace) -> int:
    import asyncio

    from repro.service import run_load
    from repro.telemetry.export import write_bench

    if args.exchanges < 1:
        raise ParameterError(
            f"--exchanges must be at least 1 (got {args.exchanges})")
    if args.concurrency < 1:
        raise ParameterError(
            f"--concurrency must be at least 1 (got "
            f"{args.concurrency})")
    if args.timeout_s < 0:
        raise ParameterError(
            f"--timeout-s must be non-negative (got {args.timeout_s}; "
            f"0 disables the per-request deadline)")

    params, configs = _service_configs(args)
    report = asyncio.run(run_load(
        params,
        exchanges=args.exchanges,
        concurrency=args.concurrency,
        tenant_configs=configs,
        engine=args.engine,
        hardened=args.hardened,
        seed=args.seed,
        trace=not args.no_trace,
        timeout_s=args.timeout_s if args.timeout_s > 0 else None,
    ))
    if args.bench_out:
        write_bench(args.bench_out, "protocol", report.to_record())
        print(f"benchmark trajectory appended to {args.bench_out}")
    return _finish_load(report, args.chrome_out, args.flamegraph_out)


def _cmd_trace(args: argparse.Namespace) -> int:
    import asyncio
    import json as json_module

    from repro.service import run_load
    from repro.telemetry.export import span_to_dict

    if args.exchanges < 1:
        raise ParameterError(
            f"--exchanges must be at least 1 (got {args.exchanges})")
    params, configs = _service_configs(args)
    report = asyncio.run(run_load(
        params,
        exchanges=args.exchanges,
        concurrency=args.concurrency,
        tenant_configs=configs,
        engine=args.engine,
        hardened=args.hardened,
        seed=args.seed,
        trace=True,
    ))
    if args.json:
        payload = {"spans": span_to_dict(report.trace_root),
                   "summary": report.trace_summary}
        with open(args.json, "w", encoding="utf-8") as handle:
            json_module.dump(payload, handle, indent=2)
            handle.write("\n")
        print(f"trace document written to {args.json}")
    return _finish_load(report, args.chrome, args.flamegraph)


def _cmd_watchdog(args: argparse.Namespace) -> int:
    import json as json_module

    from repro.telemetry import watchdog

    overrides = {
        name: value for name, value in (
            ("latency", args.latency_tolerance),
            ("throughput", args.throughput_tolerance),
            ("cycles", args.cycles_tolerance),
        ) if value is not None
    }
    tolerances = watchdog.Tolerances(**overrides)
    report = watchdog.check_paths(args.paths, tolerances=tolerances)
    print(report.summary())
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json_module.dump(report.to_dict(), handle, indent=2)
            handle.write("\n")
        print(f"watchdog report written to {args.json}")
    if not report.ok:
        # Exit 1, not 2: a regression is a *finding*, distinct from
        # usage/environment errors (which raise ReproError -> 2).
        print(f"error [regression]: {len(report.findings)} perf "
              f"regression(s) beyond tolerance", file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DAC'24 RISC-V MPI-ISE / CSIDH-512 reproduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, *, params: bool = True) -> None:
        if params:
            p.add_argument("--params", choices=sorted(_PARAM_SETS),
                           default="csidh-512")
        p.add_argument("--no-paper", action="store_true",
                       help="omit the paper's reference numbers")
        p.add_argument("--seed", type=int, default=7)

    p = sub.add_parser("table3", help="hardware cost table")
    p.add_argument("--no-paper", action="store_true")
    p.set_defaults(func=_cmd_table3)

    def telemetry_flag(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--telemetry", metavar="PATH", default=None,
            help="export spans+metrics to PATH "
                 "(JSON, or JSONL for *.jsonl)")

    p = sub.add_parser("table4", help="operation cycle table")
    common(p)
    telemetry_flag(p)
    p.set_defaults(func=_cmd_table4)

    p = sub.add_parser("action", help="group-action cycles/speedups")
    common(p)
    telemetry_flag(p)
    p.add_argument("--keys", type=int, default=2)
    p.set_defaults(func=_cmd_action)

    p = sub.add_parser("exchange", help="run a key exchange")
    common(p)
    p.set_defaults(func=_cmd_exchange, params="mini")

    p = sub.add_parser("report", help="full markdown report")
    p.add_argument("--output", "-o", default=None)
    p.add_argument("--keys", type=int, default=2)
    p.add_argument("--seed", type=int, default=7)
    telemetry_flag(p)
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser(
        "profile",
        help="instrumented group action: cycle-attribution span tree")
    p.add_argument("--params", choices=sorted(_PARAM_SETS),
                   default="toy")
    p.add_argument("--variant", default="reduced.ise",
                   help="kernel variant (e.g. reduced.ise, full.isa)")
    p.add_argument("--seed", type=int, default=3)
    p.add_argument("--top", type=int, default=8,
                   help="hot kernels to list")
    p.add_argument("--cross-check", action="store_true",
                   help="interpreter path with golden verification")
    p.add_argument("--output", "-o", default=None,
                   help="telemetry export path (JSON/JSONL)")
    p.add_argument("--bench-out", default=None, metavar="PATH",
                   help="append a run record to the BENCH_*.json "
                        "perf trajectory")
    p.set_defaults(func=_cmd_profile)

    p = sub.add_parser(
        "faults",
        help="seeded fault-injection campaign with coverage report")
    p.add_argument("--params", choices=sorted(_PARAM_SETS),
                   default="toy")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--n", type=int, default=25,
                   help="faults to inject")
    p.add_argument("--variant", default="reduced.ise")
    p.add_argument("--check-interval", type=int, default=1,
                   help="verify one in N operations (campaign default "
                        "1: every operation)")
    p.add_argument("--sites", default=None,
                   help="comma-separated fault sites (default: all)")
    p.add_argument("--engine", default="aot", choices=ENGINES,
                   help="execution engine the checked contexts run on "
                        "(default: aot)")
    p.add_argument("--json", default=None, metavar="PATH",
                   help="write the full coverage report as JSON")
    p.add_argument("--quiet", action="store_true",
                   help="suppress the table (requires --json)")
    p.set_defaults(func=_cmd_faults)

    p = sub.add_parser(
        "bench",
        help="time a group action per execution engine")
    p.add_argument("--params", choices=sorted(_PARAM_SETS),
                   default="toy")
    p.add_argument("--engine", choices=ENGINES + ("all",),
                   default="all")
    p.add_argument("--variant", default="reduced.ise")
    p.add_argument("--rounds", type=int, default=3,
                   help="timing repetitions per engine (best-of)")
    p.add_argument("--seed", type=int, default=3)
    p.add_argument("--bench-out", default=None, metavar="PATH",
                   help="append the engine comparison to the "
                        "BENCH_*.json perf trajectory")
    p.set_defaults(func=_cmd_bench)

    def service_knobs(p: argparse.ArgumentParser) -> None:
        p.add_argument("--params", choices=sorted(_PARAM_SETS),
                       default="toy")
        p.add_argument("--tenants", type=int, default=4,
                       help="number of isolated tenants")
        p.add_argument("--engine", choices=ENGINES, default="aot",
                       help="preferred (fastest) execution engine")
        p.add_argument("--hardened", action="store_true",
                       help="checked contexts + output validation on "
                            "every tenant")
        p.add_argument("--lanes", type=int, default=2,
                       help="concurrent sessions per tenant")
        p.add_argument("--max-queue", type=int, default=16,
                       help="queued requests per tenant beyond its "
                            "lanes")
        p.add_argument("--variant", default="reduced.ise")

    p = sub.add_parser(
        "serve",
        help="run the multi-tenant key-exchange service over TCP")
    service_knobs(p)
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=0,
                   help="0 picks a free port (printed at startup)")
    p.add_argument("--grace-s", type=float, default=5.0, metavar="S",
                   help="graceful-drain budget on SIGTERM: stop "
                        "accepting, let in-flight requests finish")
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser(
        "load",
        help="drive concurrent exchanges through the service and "
             "check every result against the sequential reference")
    service_knobs(p)
    p.add_argument("--exchanges", type=int, default=100,
                   help="full handshakes to run")
    p.add_argument("--concurrency", type=int, default=16,
                   help="handshakes in flight at once")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--no-trace", action="store_true",
                   help="skip request tracing (and the "
                        "cycle-conservation assertion)")
    p.add_argument("--chrome-out", default=None, metavar="PATH",
                   help="write the traced run as Chrome trace_event "
                        "JSON")
    p.add_argument("--flamegraph-out", default=None, metavar="PATH",
                   help="write the traced run as collapsed stacks "
                        "(flamegraph.pl / speedscope input)")
    p.add_argument("--bench-out", default=None, metavar="PATH",
                   help="append a service_load record to the "
                        "BENCH_*.json perf trajectory")
    p.add_argument("--timeout-s", type=float, default=30.0,
                   metavar="S",
                   help="per-request deadline budget (0 disables; "
                        "expired requests are retried and counted "
                        "as deadline rejections)")
    p.set_defaults(func=_cmd_load)

    p = sub.add_parser(
        "trace",
        help="record a traced workload and export Chrome trace / "
             "flamegraph artifacts")
    service_knobs(p)
    p.add_argument("--exchanges", type=int, default=10,
                   help="handshakes for the recorded workload")
    p.add_argument("--concurrency", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", default=None, metavar="PATH",
                   help="write the span forest and its summary as "
                        "JSON")
    p.add_argument("--chrome", default=None, metavar="PATH",
                   help="write Chrome trace_event JSON")
    p.add_argument("--flamegraph", default=None, metavar="PATH",
                   help="write collapsed stacks")
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser(
        "watchdog",
        help="perf-regression gate over BENCH_*.json trajectories "
             "(exit 1 on regression)")
    p.add_argument("paths", nargs="+", metavar="BENCH_JSON",
                   help="trajectory files (e.g. BENCH_protocol.json "
                        "BENCH_service.json)")
    p.add_argument("--latency-tolerance", type=float, default=None,
                   help="allowed relative growth of wall-clock "
                        "metrics (default 0.5)")
    p.add_argument("--throughput-tolerance", type=float, default=None,
                   help="allowed relative drop of throughput "
                        "(default 0.35)")
    p.add_argument("--cycles-tolerance", type=float, default=None,
                   help="allowed relative growth of simulated cycle "
                        "counts (default 0.0: any increase fails)")
    p.add_argument("--json", default=None, metavar="PATH",
                   help="write the full report as JSON")
    p.set_defaults(func=_cmd_watchdog)

    p = sub.add_parser("kernel", help="dump a generated kernel")
    p.add_argument("name", help="e.g. fp_mul.reduced.ise")
    p.add_argument("--params", choices=sorted(_PARAM_SETS),
                   default="csidh-512")
    p.set_defaults(func=_cmd_kernel)

    p = sub.add_parser("listings", help="print Listings 1-4")
    p.set_defaults(func=_cmd_listings)

    p = sub.add_parser("validate",
                       help="validate every kernel against its oracle")
    p.add_argument("--params", choices=sorted(_PARAM_SETS),
                   default="toy")
    p.add_argument("--trials", type=int, default=3)
    p.add_argument("--constant-time", action="store_true",
                   help="also verify constant-time traces")
    p.set_defaults(func=_cmd_validate)

    return parser


def _cmd_validate(args: argparse.Namespace) -> int:
    from repro.kernels.validation import validate_kernels

    params = _PARAM_SETS[args.params]()
    report = validate_kernels(
        params.p, trials=args.trials,
        check_constant_time=args.constant_time)
    print(report.summary())
    return 0 if report.passed else 1


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        # one actionable line, never a traceback (tests/test_cli.py)
        message = " ".join(str(exc).split())
        print(f"error [{exc.code}]: {message}", file=sys.stderr)
        return 2
    except BrokenPipeError:  # e.g. piped into `head`
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
