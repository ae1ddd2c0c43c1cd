"""Live service dashboard: render ``stats()`` snapshots as text.

``repro top`` polls a running service's ``stats`` wire op and redraws
one compact screen per interval — per-tenant throughput, the rolling
p50/p95/p99 request latency, engine-ladder occupancy, admission
rejections and fault recoveries.  The renderer is a **pure function**
over two snapshots (:func:`render_dashboard`), so tests feed it
hand-built dictionaries and never open a socket; only
:func:`poll_dashboard` talks to the wire.

Rates are derived client-side from snapshot deltas: the service keeps
monotonic counters (``requests``, ``rejections`` ...) and the
dashboard divides the delta by the poll interval, so a restarted
dashboard converges within one tick and needs no server support.
"""

from __future__ import annotations

import asyncio
import sys
from typing import Callable, TextIO

from repro.errors import ServiceError
from repro.service.tenancy import ENGINE_LADDER


def _rate(current: float, previous: float | None,
          dt: float | None) -> float:
    if previous is None or not dt or dt <= 0:
        return 0.0
    return max(0.0, (current - previous) / dt)


def _fmt_rate(value: float) -> str:
    return f"{value:8.1f}/s"


def render_dashboard(
    stats: dict,
    previous: dict | None = None,
    dt: float | None = None,
    *,
    clear: bool = False,
) -> str:
    """One dashboard frame from a ``stats()`` snapshot.

    *previous* (the prior snapshot) and *dt* (seconds between the
    two) turn monotonic counters into rates; without them the rate
    columns read 0.  With ``clear=True`` the frame is prefixed with
    the ANSI clear-screen sequence for in-place terminal redraws.
    """
    tenants = stats.get("tenants", {})
    previous_tenants = (previous or {}).get("tenants", {})
    latency = stats.get("latency_ms", {})

    ladder = dict.fromkeys(ENGINE_LADDER, 0)
    for row in tenants.values():
        engine = row.get("engine")
        ladder[engine] = ladder.get(engine, 0) + 1

    uptime = stats.get("uptime_s", 0.0)
    lines = [
        f"repro service · {stats.get('modulus_bits', '?')}-bit modulus"
        f" · up {uptime:7.1f}s · inflight "
        f"{stats.get('total_inflight', 0)}",
        f"requests {stats.get('requests_total', 0)} "
        f"({_fmt_rate(_rate(stats.get('requests_total', 0), (previous or {}).get('requests_total'), dt)).strip()})"
        f" · errors {stats.get('errors_total', 0)}"
        f" · rejections {stats.get('rejections_total', 0)}",
        f"latency ms p50 {latency.get('p50', 0.0):8.2f}  "
        f"p95 {latency.get('p95', 0.0):8.2f}  "
        f"p99 {latency.get('p99', 0.0):8.2f}  "
        f"(window {latency.get('window', 0)})",
        "ladder   " + "  ".join(
            f"{tier}:{ladder.get(tier, 0)}" for tier in ENGINE_LADDER
            ) + "   (tenants per active tier)",
        "",
        f"{'tenant':<12} {'engine':<12} {'infl':>4} {'cap':>4} "
        f"{'req/s':>8} {'requests':>9} {'rej':>5} {'demo':>5} "
        f"{'promo':>5} {'faults':>10}",
    ]
    for name in sorted(tenants):
        row = tenants[name]
        prior = previous_tenants.get(name, {})
        engine = row.get("engine", "?")
        if engine != row.get("preferred_engine", engine):
            engine = f"{engine}*"  # demoted below its preferred tier
        if row.get("hardened"):
            engine += "+h"
        faults = (f"{row.get('fault_detections', 0)}det/"
                  f"{row.get('fault_recoveries', 0)}rec")
        lines.append(
            f"{name:<12} {engine:<12} "
            f"{row.get('inflight', 0):>4} "
            f"{row.get('capacity', 0):>4} "
            f"{_rate(row.get('requests', 0), prior.get('requests'), dt):>8.1f} "
            f"{row.get('requests', 0):>9} "
            f"{row.get('rejections', 0):>5} "
            f"{row.get('demotions', 0):>5} "
            f"{row.get('promotions', 0):>5} "
            f"{faults:>10}")

    coalesced = stats.get("coalesced", {})
    batches = sum(row.get("batches", 0) for row in coalesced.values())
    items = sum(row.get("items", 0) for row in coalesced.values())
    if batches:
        lines.append("")
        lines.append(
            f"coalesced {items} field op(s) into {batches} batch(es) "
            f"({items / batches:.1f}/batch)")

    frame = "\n".join(lines) + "\n"
    if clear:
        frame = "\x1b[2J\x1b[H" + frame
    return frame


async def poll_dashboard(
    host: str,
    port: int,
    *,
    interval_s: float = 1.0,
    iterations: int | None = None,
    plain: bool = False,
    out: TextIO | None = None,
    clock: Callable[[], float] | None = None,
) -> int:
    """Poll ``stats`` over the wire and redraw the dashboard.

    ``iterations=None`` runs until cancelled (ctrl-C in the CLI);
    tests pass a small count.  Returns the number of frames drawn.
    """
    from repro.service.wire import ServiceClient  # avoid import cycle

    if interval_s <= 0:
        raise ServiceError(
            f"poll interval must be positive (got {interval_s})")
    out = out if out is not None else sys.stdout
    clock = clock or asyncio.get_event_loop().time
    frames = 0
    previous: dict | None = None
    previous_at: float | None = None
    async with await ServiceClient().connect(host, port) as client:
        while iterations is None or frames < iterations:
            stats = await client.stats()
            now = clock()
            dt = (now - previous_at) if previous_at is not None else None
            out.write(render_dashboard(
                stats, previous, dt, clear=not plain))
            out.flush()
            frames += 1
            previous, previous_at = stats, now
            if iterations is not None and frames >= iterations:
                break
            await asyncio.sleep(interval_s)
    return frames
