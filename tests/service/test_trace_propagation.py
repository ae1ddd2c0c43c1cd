"""End-to-end trace propagation: wire -> service -> batch -> kernels.

The PR 7 acceptance path: a request's trace_id travels over the
JSON-lines protocol, out-of-order responses echo the right id, the
coalescer's batches are reachable from every member trace, demoted
retries stay under one trace, and a traced load's span forest passes
the cycle-conservation gate and lands a summary in the BENCH record.
"""

from __future__ import annotations

import asyncio
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
    start_server,
)
from repro.telemetry import tracing
from tests.helpers import assert_batch_links


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
            with telemetry.capture() as cap:
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
                server.close()
                await server.wait_closed()
                await service.aclose()
            return fast_results, slow_trace, cap.root

        fast_results, slow_trace, root = _run(main())
        assert slow_trace == "slow000000000001"
        for n, (value, trace_id) in enumerate(fast_results):
            assert value == (3 * n) % toy.p
            assert trace_id == f"fast{n:012d}"
        # The server labelled each request's span node with the id its
        # request carried.
        recorded = {dict(node.labels)["trace"]
                    for node in root.children.values()
                    if node.name == "request"}
        assert "slow000000000001" in recorded
        assert {f"fast{n:012d}" for n in range(4)} <= recorded

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
        requests, batches = assert_batch_links(cap.root)
        assert len(requests) == 8
        assert batches  # at least one flush happened
        for request in requests:
            for link in request.children.values():
                if link.name == "coalesced":
                    assert link.count == 1
            assert request.find("coalesce.wait").count >= 1
        # Batch cycles booked once on the batch, zero per member.
        assert cap.root.total_cycles > 0


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
        # One request, one node: the retry did not fork a new trace.
        (request,) = [node for node in cap.root.children.values()
                      if node.name == "request"]
        assert dict(request.labels)["trace"] == "feedface00000001"
        assert request.count == 1
        engines = sorted(
            dict(n.labels)["engine"]
            for n in request.children.values()
            if n.name == "execute")
        assert engines == ["aot", "interpreter"]


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
