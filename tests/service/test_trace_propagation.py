"""End-to-end trace propagation: wire -> service -> batch -> kernels.

The PR 7 acceptance path: a request's trace_id travels over the
JSON-lines protocol, out-of-order responses echo the right id, the
coalescer's batches are reachable from every member trace, demoted
retries stay under one trace, and a traced load's span forest passes
the cycle-conservation gate and lands a summary in the BENCH record.
"""

from __future__ import annotations

import asyncio
import threading
from functools import partial

import pytest

from repro import telemetry
from repro.csidh.parameters import csidh_toy
from repro.errors import FaultDetectedError, ServiceError
from repro.service import (
    KeyExchangeService,
    ServiceClient,
    TenantConfig,
    default_tenant_configs,
    run_load,
    run_load_remote,
    start_server,
)
from repro.telemetry import tracing
from repro.telemetry.dashboard import poll_dashboard, render_dashboard


@pytest.fixture(scope="module")
def toy():
    return csidh_toy()


@pytest.fixture(autouse=True)
def _clean_global_telemetry():
    telemetry.disable()
    telemetry.reset()
    yield
    telemetry.disable()
    telemetry.reset()


def _run(coro):
    return asyncio.run(coro)


class TestWireTracePropagation:
    def test_out_of_order_responses_carry_their_trace(self, toy):
        """A slow exchange and fast field ops interleave on one
        connection; each response must echo the trace id its own
        request carried, not the one that happened to finish first."""
        async def main():
            telemetry.enable()
            config = TenantConfig("t", engine="aot", lanes=2)
            service = KeyExchangeService(toy, [config])
            server = await start_server(service)
            port = server.sockets[0].getsockname()[1]
            async with ServiceClient() as client:
                await client.connect("127.0.0.1", port)
                public = await client.keygen("t", 11)
                slow = asyncio.ensure_future(client.request_traced(
                    "exchange", tenant="t", seed=12, peer=public,
                    trace="slow000000000001"))
                fasts = [
                    asyncio.ensure_future(client.request_traced(
                        "field_op", tenant="t", field_op="mul",
                        operands=[3, n], trace=f"fast{n:012d}"))
                    for n in range(4)
                ]
                fast_results = await asyncio.gather(*fasts)
                _, slow_trace = await slow
                document = await client.trace_export()
            server.close()
            await server.wait_closed()
            await service.aclose()
            return fast_results, slow_trace, document

        fast_results, slow_trace, document = _run(main())
        assert slow_trace == "slow000000000001"
        for n, (value, trace_id) in enumerate(fast_results):
            assert value == (3 * n) % toy.p
            assert trace_id == f"fast{n:012d}"
        exported = {t["trace_id"] for t in document["traces"]}
        assert "slow000000000001" in exported
        assert {f"fast{n:012d}" for n in range(4)} <= exported

    def test_server_generates_trace_when_client_omits(self, toy):
        async def main():
            telemetry.enable()
            config = TenantConfig("t", engine="aot")
            service = KeyExchangeService(toy, [config])
            server = await start_server(service)
            port = server.sockets[0].getsockname()[1]
            async with ServiceClient() as client:
                await client.connect("127.0.0.1", port)
                # The convenience verbs auto-generate ids client-side;
                # go below them to send a bare request.
                response = await client._request_response(
                    "keygen", {"tenant": "t", "seed": 5})
                ping = await client._request_response("ping", {})
            server.close()
            await server.wait_closed()
            await service.aclose()
            return response, ping

        response, ping = _run(main())
        assert len(response["trace"]) == 16
        assert "trace" not in ping  # untraced op stays untraced

    def test_client_verbs_generate_and_echo_ids(self, toy):
        async def main():
            config = TenantConfig("t", engine="aot")
            service = KeyExchangeService(toy, [config])
            server = await start_server(service)
            port = server.sockets[0].getsockname()[1]
            async with ServiceClient() as client:
                await client.connect("127.0.0.1", port)
                value, trace_id = await client.request_traced(
                    "field_op", tenant="t", field_op="add",
                    operands=[1, 2])
            server.close()
            await server.wait_closed()
            await service.aclose()
            return value, trace_id

        value, trace_id = _run(main())
        assert value == 3
        assert len(trace_id) == 16

    def test_error_responses_echo_the_trace(self, toy):
        async def main():
            config = TenantConfig("t", engine="aot")
            service = KeyExchangeService(toy, [config])
            server = await start_server(service)
            port = server.sockets[0].getsockname()[1]
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", port)
            import json
            writer.write(json.dumps(
                {"id": 1, "op": "keygen", "tenant": "ghost",
                 "seed": 1, "trace": "deadbeefdeadbeef"}
            ).encode() + b"\n")
            await writer.drain()
            response = json.loads(await reader.readline())
            writer.close()
            await writer.wait_closed()
            server.close()
            await server.wait_closed()
            await service.aclose()
            return response

        response = _run(main())
        assert response["ok"] is False
        assert response["trace"] == "deadbeefdeadbeef"


class TestBatchTracePropagation:
    def test_coalesced_batch_reachable_from_every_member(self, toy):
        async def main():
            with telemetry.capture() as cap:
                configs = default_tenant_configs(1, engine="aot")
                async with KeyExchangeService(toy, configs) as svc:
                    values = await asyncio.gather(*(
                        svc.field_op("tenant-0", "mul", [5, n])
                        for n in range(8)))
                    await svc.drain()
                return cap, values

        cap, values = _run(main())
        assert values == [(5 * n) % toy.p for n in range(8)]
        tracer = cap.tracer
        assert len(tracer.traces) == 8
        assert tracer.batches  # at least one flush happened
        for ctx in tracer.traces.values():
            assert ctx.status == "ok"
            assert ctx.batch_ids, "member trace lost its batch link"
            for batch_id in ctx.batch_ids:
                batch = tracer.batches[batch_id]
                assert ctx.trace_id in batch.member_ids
                link = ctx.node.find("coalesced", batch=batch_id)
                assert link.count == 1
            assert ctx.node.find("coalesce.wait").count >= 1
        # Batch cycles booked once on the batch, zero per member.
        batch_cycles = sum(b.node.total_cycles
                           for b in tracer.batches.values())
        member_cycles = sum(t.node.total_cycles
                            for t in tracer.traces.values())
        assert batch_cycles > 0
        assert member_cycles == 0
        assert cap.root.total_cycles == batch_cycles


class TestLadderTracePropagation:
    def test_demoted_retry_stays_under_one_trace(self, toy):
        """An aot fault mid-request demotes to the interpreter and
        retries:
        both attempts must appear as sibling execute spans under the
        *same* request node."""
        async def main():
            with telemetry.capture() as cap:
                config = TenantConfig("t", engine="aot")
                async with KeyExchangeService(toy, [config]) as svc:
                    attempts = []

                    def flaky(engine, lane):
                        attempts.append(engine)
                        if len(attempts) == 1:
                            raise FaultDetectedError("injected")
                        return 42

                    result = await svc._run_op(
                        "t", "exchange", partial(svc._on_lane, flaky),
                        trace_id="feedface00000001")
                return cap, attempts, result

        cap, attempts, result = _run(main())
        assert result == 42
        assert attempts == ["aot", "interpreter"]
        ctx = cap.tracer.traces["feedface00000001"]
        assert ctx.status == "ok"
        engines = sorted(
            dict(n.labels)["engine"]
            for n in ctx.node.children.values()
            if n.name == "execute")
        assert engines == ["aot", "interpreter"]
        # One request, one node: the retry did not fork a new trace.
        assert ctx.node.count == 1
        assert len(cap.tracer.traces) == 1

    def test_failed_request_marks_trace_error(self, toy):
        async def main():
            with telemetry.capture() as cap:
                config = TenantConfig("t", engine="aot")
                async with KeyExchangeService(toy, [config]) as svc:
                    def boom(engine, lane):
                        raise ServiceError("wedged mid-request")

                    with pytest.raises(ServiceError):
                        await svc._run_op(
                            "t", "exchange", partial(svc._on_lane, boom))
                return cap

        cap = _run(main())
        (ctx,) = cap.tracer.traces.values()
        assert ctx.status == "error"
        assert ctx.error_code == "service"


class TestTracedLoad:
    def test_traced_load_conserves_cycles_and_summarises(self, toy):
        report = _run(run_load(
            toy, exchanges=2, concurrency=2, tenants=1,
            engine="aot", trace=True))
        assert report.divergences == 0
        # run_load(trace=True) itself asserts conservation; pin the
        # artifacts it derived from the surviving forest.
        assert report.trace_root is not None
        summary = report.trace_summary
        assert summary["requests"] == 8  # 2 sessions x 4 requests
        assert summary["total_cycles"] \
            == report.trace_root.total_cycles > 0
        assert summary["top_kernels"]
        assert summary["top_kernels"][0]["kernel"].startswith("fp_mul")
        record = report.to_record()
        assert record["trace"] == summary
        collapsed = tracing.to_collapsed(report.trace_root)
        total = sum(int(line.rsplit(" ", 1)[1])
                    for line in collapsed.strip().splitlines())
        assert total == summary["total_cycles"]

    def test_untraced_load_has_no_trace_record(self, toy):
        report = _run(run_load(
            toy, exchanges=1, concurrency=1, tenants=1,
            engine="aot"))
        assert report.trace_summary is None
        assert "trace" not in report.to_record()

    def test_trace_with_foreign_service_refused(self, toy):
        async def main():
            configs = default_tenant_configs(1, engine="aot")
            async with KeyExchangeService(toy, configs) as svc:
                with pytest.raises(ServiceError):
                    await run_load(toy, exchanges=1, service=svc,
                                   trace=True)

        _run(main())


class TestRemoteLoad:
    def test_remote_load_fetches_trace_over_the_wire(self, toy):
        async def main():
            telemetry.enable()
            configs = default_tenant_configs(2, engine="aot")
            service = KeyExchangeService(toy, configs)
            server = await start_server(service)
            port = server.sockets[0].getsockname()[1]
            try:
                report = await run_load_remote(
                    toy, "127.0.0.1", port, exchanges=2,
                    concurrency=2)
            finally:
                server.close()
                await server.wait_closed()
                await service.aclose()
            return report

        report = _run(main())
        assert report.divergences == 0
        assert report.engine == "aot"
        assert report.requests == 8
        assert report.trace_root is not None
        assert report.trace_summary["requests"] == 8
        assert report.trace_summary["total_cycles"] > 0
        # The rebuilt forest feeds both exporters.
        chrome = tracing.to_chrome_trace(report.trace_root)
        assert any(e["ph"] == "X" for e in chrome["traceEvents"])
        assert tracing.to_collapsed(report.trace_root)

    def test_remote_load_rejects_modulus_mismatch(self, toy):
        from repro.csidh.parameters import csidh_mini

        async def main():
            configs = default_tenant_configs(1, engine="aot")
            service = KeyExchangeService(toy, configs)
            server = await start_server(service)
            port = server.sockets[0].getsockname()[1]
            try:
                with pytest.raises(ServiceError):
                    await run_load_remote(
                        csidh_mini(), "127.0.0.1", port, exchanges=1)
            finally:
                server.close()
                await server.wait_closed()
                await service.aclose()

        _run(main())


class TestDashboardOverWire:
    def test_poll_dashboard_draws_frames(self, toy, capsys):
        import io

        async def main():
            configs = default_tenant_configs(1, engine="aot")
            service = KeyExchangeService(toy, configs)
            server = await start_server(service)
            port = server.sockets[0].getsockname()[1]
            out = io.StringIO()
            try:
                await service.field_op("tenant-0", "add", [1, 2])
                frames = await poll_dashboard(
                    "127.0.0.1", port, interval_s=0.01,
                    iterations=2, plain=True, out=out)
            finally:
                server.close()
                await server.wait_closed()
                await service.aclose()
            return frames, out.getvalue()

        frames, text = _run(main())
        assert frames == 2
        assert text.count("repro service") == 2
        assert "tenant-0" in text
        assert "latency ms p50" in text

    def test_render_dashboard_is_pure_and_complete(self):
        stats = {
            "modulus_bits": 9, "uptime_s": 3.5, "total_inflight": 1,
            "requests_total": 10, "errors_total": 0,
            "rejections_total": 2,
            "latency_ms": {"p50": 1.0, "p95": 2.0, "p99": 3.0,
                           "window": 10},
            "tenants": {"t": {
                "engine": "interpreter", "preferred_engine": "aot",
                "hardened": True, "lanes": 2, "capacity": 18,
                "inflight": 1, "requests": 10, "errors": 0,
                "rejections": 2, "demotions": 1, "promotions": 0,
                "fault_detections": 3, "fault_recoveries": 3,
            }, "a": {
                "engine": "aot", "preferred_engine": "aot",
                "hardened": False, "lanes": 1, "capacity": 17,
                "inflight": 0, "requests": 0, "errors": 0,
                "rejections": 0, "demotions": 0, "promotions": 0,
                "fault_detections": 0, "fault_recoveries": 0,
            }},
            "coalesced": {"t": {"batches": 2, "items": 10}},
        }
        previous = {"requests_total": 0,
                    "tenants": {"t": {"requests": 0}}}
        frame = render_dashboard(stats, previous, 2.0)
        assert "interpreter*+h" in frame  # demoted + hardened marker
        ladder = next(line for line in frame.splitlines()
                      if line.startswith("ladder"))
        # tenants on the fastest tier are printed, not just counted
        assert "aot:1" in ladder
        assert "interpreter:1" in ladder
        assert "5.0" in frame  # 10 requests / 2 s
        assert "coalesced 10 field op(s) into 2 batch(es)" in frame
        # Identical inputs, identical frame: no hidden state.
        assert frame == render_dashboard(stats, previous, 2.0)
        # plain=False screens clear
        assert render_dashboard(stats, clear=True).startswith("\x1b[2J")
