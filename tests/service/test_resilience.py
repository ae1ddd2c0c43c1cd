"""The resilience stack: deadlines and idempotent retries — plus the
wire-layer regression fixes (internal errors and unknown ops must
answer in-band, oversized lines must not tear down the connection).

Everything here runs against real in-process services and, where the
contract is about the wire, over real TCP sockets.
"""

from __future__ import annotations

import asyncio
import json
import threading
import zlib

import pytest

from repro import telemetry
from repro.errors import (
    DeadlineError,
    ServiceError,
)
from repro.service import (
    KeyExchangeService,
    ServiceClient,
    TenantConfig,
    start_server,
)
from repro.service.load import expected_handshakes
from repro.service.wire import (
    MAX_LINE_BYTES,
    WIRE_BUFFER_LIMIT,
    frame_decode,
    frame_encode,
)


def run(coroutine_factory, timeout=30):
    async def wrapped():
        return await asyncio.wait_for(coroutine_factory(), timeout)

    return asyncio.run(wrapped())


def make_service(params, **kwargs):
    kwargs.setdefault("lanes", 2)
    kwargs.setdefault("max_queue", 8)
    config = TenantConfig("t", engine="aot",
                          variant="reduced.ise", **kwargs)
    return KeyExchangeService(params, [config])


async def raw_connect(server):
    port = server.sockets[0].getsockname()[1]
    return await asyncio.open_connection("127.0.0.1", port)


async def send_frame(writer, payload):
    writer.write(frame_encode(payload))
    await writer.drain()


async def read_frame(reader):
    return frame_decode(await reader.readline())


class TestDeadlines:
    def test_expired_deadline_rejected_with_stable_code(
            self, toy_params):
        async def scenario():
            service = make_service(toy_params)
            try:
                with pytest.raises(DeadlineError) as err:
                    await service.keygen("t", 1, deadline_s=1e-9)
                assert err.value.code == "deadline"
                stats = service.stats()
                assert stats["deadline_exceeded_total"] == 1
                assert stats["tenants"]["t"]["deadline_exceeded"] == 1
            finally:
                await service.aclose()

        run(scenario)

    def test_late_work_drains_and_lane_recovers(self, toy_params):
        async def scenario():
            service = make_service(toy_params, lanes=1)
            oracle = expected_handshakes(toy_params, 1, seed=0)
            try:
                # Deadline far too tight for a real keygen: the
                # request fails, but its late work must drain and
                # hand the lane back.
                with pytest.raises(DeadlineError):
                    await service.keygen("t", 1, deadline_s=1e-6)
                pub = await service.keygen("t", 0)
                assert pub == oracle[0][0]
            finally:
                await service.aclose()

        run(scenario)

    def test_expired_field_op_deadline_never_queues(self, toy_params):
        async def scenario():
            service = make_service(toy_params)
            try:
                with pytest.raises(DeadlineError, match="queued"):
                    await service.field_op("t", "mul", [3, 5],
                                           deadline_s=1e-9)
                stats = service.stats()
                assert stats["tenants"]["t"]["deadline_exceeded"] == 1
                assert stats["coalesced"]["t"]["items"] == 0
            finally:
                await service.aclose()

        run(scenario)

    def test_late_field_op_withholds_only_its_response(self, toy_params):
        """A deadline that passes while the op's batch runs fails that
        one request; the batch finishes in the background, its other
        member resolves, and the tenant keeps serving."""
        p = toy_params.p
        release = threading.Event()

        async def scenario():
            service = make_service(toy_params)
            for lane in service.tenants["t"].lanes:
                context = lane.context("aot")

                def blocking(pairs, original=context.mul_batch):
                    release.wait(10)  # holds the executor thread
                    return original(pairs)

                context.mul_batch = blocking
            try:
                late = asyncio.ensure_future(service.field_op(
                    "t", "mul", [3, 5], deadline_s=0.05))
                other = asyncio.ensure_future(service.field_op(
                    "t", "mul", [7, 11]))
                with pytest.raises(DeadlineError, match="running"):
                    await late
                assert not other.done()
                release.set()
                assert await other == 77 % p
                stats = service.stats()
                assert stats["coalesced"]["t"] == {"batches": 1,
                                                   "items": 2}
                assert stats["tenants"]["t"]["deadline_exceeded"] == 1
                assert await service.field_op("t", "mul", [2, 3]) == 6
            finally:
                release.set()
                await service.aclose()

        run(scenario)

    def test_bad_deadline_type_rejected(self, toy_params):
        async def scenario():
            service = make_service(toy_params)
            try:
                with pytest.raises(ServiceError):
                    await service.keygen("t", 1, deadline_s="soon")
                with pytest.raises(ServiceError):
                    await service.keygen("t", 1, deadline_s=-1.0)
            finally:
                await service.aclose()

        run(scenario)

    def test_deadline_enforced_over_the_wire(self, toy_params):
        async def scenario():
            service = make_service(toy_params)
            server = await start_server(service)
            try:
                reader, writer = await raw_connect(server)
                await send_frame(writer, {
                    "id": 1, "op": "keygen", "tenant": "t",
                    "seed": 1, "deadline": 1e-9})
                response = await read_frame(reader)
                assert response["ok"] is False
                assert response["code"] == "deadline"
                writer.close()
            finally:
                server.close()
                await server.wait_closed()
                await service.aclose()

        run(scenario)


class TestIdempotency:
    def test_lost_response_retry_does_not_double_execute(
            self, toy_params):
        async def scenario():
            service = make_service(toy_params)
            server = await start_server(service)
            oracle = expected_handshakes(toy_params, 1, seed=0)
            try:
                reader, writer = await raw_connect(server)
                request = {"id": 1, "op": "keygen", "tenant": "t",
                           "seed": 0, "idem": "retry-key-1"}
                await send_frame(writer, request)
                first = await read_frame(reader)
                # The client never saw the response: same idempotency
                # key, new wire id.
                await send_frame(writer, dict(request, id=2))
                second = await read_frame(reader)
                assert first["ok"] and second["ok"]
                assert first["result"] == second["result"]
                assert first["result"] == oracle[0][0]
                assert second.get("cached") is True
                assert service.stats()["requests_total"] == 1
                writer.close()
            finally:
                server.close()
                await server.wait_closed()
                await service.aclose()

        run(scenario)

    def test_concurrent_duplicates_share_one_execution(
            self, toy_params):
        async def scenario():
            service = make_service(toy_params)
            server = await start_server(service)
            try:
                reader, writer = await raw_connect(server)
                request = {"op": "keygen", "tenant": "t", "seed": 3,
                           "idem": "dup"}
                await send_frame(writer, dict(request, id=1))
                await send_frame(writer, dict(request, id=2))
                responses = [await read_frame(reader)
                             for _ in range(2)]
                assert all(r["ok"] for r in responses)
                assert (responses[0]["result"]
                        == responses[1]["result"])
                assert service.stats()["requests_total"] == 1
                writer.close()
            finally:
                server.close()
                await server.wait_closed()
                await service.aclose()

        run(scenario)

    def test_client_retries_through_a_dropped_connection(
            self, toy_params):
        async def scenario():
            service = make_service(toy_params)
            server = await start_server(service)
            port = server.sockets[0].getsockname()[1]
            oracle = expected_handshakes(toy_params, 1, seed=0)
            client = ServiceClient(timeout_s=5.0)
            try:
                await client.connect("127.0.0.1", port)
                assert await client.ping()
                # Sever the transport under the client's feet; the
                # next request must reconnect and retry.
                client._writer.close()
                pub = await client.keygen("t", 0)
                assert pub == oracle[0][0]
                assert client.reconnects_total >= 1
            finally:
                await client.aclose()
                server.close()
                await server.wait_closed()
                await service.aclose()

        run(scenario)


class OneShotRelay:
    """A loopback relay in front of a wire server that misbehaves on
    the first response frame only, then passes every frame through.

    ``mode`` is ``"flip"`` (the first bit of the result value is
    flipped), ``"duplicate"`` (the frame is sent twice) or ``"delay"``
    (the frame is held for ``delay_s`` while later frames pass).
    """

    def __init__(self, upstream_port, mode, delay_s=0.0):
        self.upstream_port = upstream_port
        self.mode = mode
        self.delay_s = delay_s
        self.requests = []  # decoded client frames, in arrival order
        self.fired = False
        self.delivered = asyncio.Event()  # the mangled frame is out
        self._tasks = set()

    async def start(self):
        self._server = await asyncio.start_server(
            self._relay, "127.0.0.1", 0)
        return self._server.sockets[0].getsockname()[1]

    async def aclose(self):
        self._server.close()
        for task in self._tasks:
            task.cancel()
        await asyncio.gather(*self._tasks, return_exceptions=True)
        await self._server.wait_closed()

    async def _relay(self, reader, writer):
        up_reader, up_writer = await asyncio.open_connection(
            "127.0.0.1", self.upstream_port)
        self._tasks.add(asyncio.ensure_future(
            self._forward_requests(reader, up_writer)))
        try:
            while line := await up_reader.readline():
                self._respond(writer, line)
                await writer.drain()
        finally:
            writer.close()

    async def _forward_requests(self, reader, up_writer):
        try:
            while line := await reader.readline():
                self.requests.append(frame_decode(line))
                up_writer.write(line)
                await up_writer.drain()
        finally:
            up_writer.close()

    def _respond(self, writer, line):
        if self.fired:
            writer.write(line)
            return
        self.fired = True
        if self.mode == "flip":
            at = line.index(b'"result": ') + len(b'"result": ')
            writer.write(line[:at] + bytes([line[at] ^ 1])
                         + line[at + 1:])
        elif self.mode == "duplicate":
            writer.write(line)
            writer.write(line)
        else:
            self._tasks.add(asyncio.ensure_future(
                self._late(writer, line)))
            return
        self.delivered.set()

    async def _late(self, writer, line):
        await asyncio.sleep(self.delay_s)
        writer.write(line)
        self.delivered.set()


class TestMisbehavingWire:
    """The client's recovery from a mangled, duplicated or late
    response, end to end through :class:`OneShotRelay`."""

    @staticmethod
    async def _through_relay(params, mode, check, *, timeout_s,
                             delay_s=0.0):
        service = make_service(params)
        await service.keygen("t", 99)  # warm the lanes
        server = await start_server(service)
        relay = OneShotRelay(server.sockets[0].getsockname()[1], mode,
                             delay_s=delay_s)
        client = ServiceClient(timeout_s=timeout_s)
        try:
            await client.connect("127.0.0.1", await relay.start())
            await check(service, relay, client)
        finally:
            await client.aclose()
            await relay.aclose()
            server.close()
            await server.wait_closed()
            await service.aclose()

    def test_flipped_bit_is_dropped_and_retried(self, toy_params):
        oracle = expected_handshakes(toy_params, 1, seed=0)

        async def check(service, relay, client):
            executed = service.stats()["requests_total"]
            assert await client.keygen("t", 0) == oracle[0][0]
            assert relay.fired
            assert client.dropped_frames_total == 1
            assert client.retries_total == 1
            assert service.stats()["requests_total"] == executed + 1

        run(lambda: self._through_relay(toy_params, "flip", check,
                                        timeout_s=0.5))

    def test_duplicated_response_resolves_once(self, toy_params):
        oracle = expected_handshakes(toy_params, 1, seed=0)

        async def check(service, relay, client):
            assert await client.keygen("t", 0) == oracle[0][0]
            await relay.delivered.wait()
            # The ping's response follows the duplicate on the wire, so
            # the client has read (and ignored) the second copy.
            assert await client.ping()
            assert client._waiters == {}
            assert client.dropped_frames_total == 0
            assert client.retries_total == 0
            assert client.reconnects_total == 0

        run(lambda: self._through_relay(toy_params, "duplicate", check,
                                        timeout_s=5.0))

    def test_late_response_retries_under_the_same_key(self, toy_params):
        oracle = expected_handshakes(toy_params, 1, seed=0)

        async def check(service, relay, client):
            executed = service.stats()["requests_total"]
            assert await client.keygen("t", 0) == oracle[0][0]
            assert client.retries_total == 1
            keygens = [r for r in relay.requests if r["op"] == "keygen"]
            assert len(keygens) == 2
            assert keygens[0]["idem"] == keygens[1]["idem"]
            assert keygens[0]["id"] != keygens[1]["id"]
            assert service.stats()["requests_total"] == executed + 1
            # The late original finds no waiter and resolves nothing.
            await relay.delivered.wait()
            assert await client.ping()
            assert client._waiters == {}
            assert client.reconnects_total == 0

        run(lambda: self._through_relay(toy_params, "delay", check,
                                        timeout_s=0.4, delay_s=1.0))


class TestRetiredOps:
    """``ping`` is the only liveness probe: ``health`` and ``ready``
    get the unknown-op answer on a connection that keeps serving."""

    def test_health_and_ready_are_unknown_ops(self, toy_params):
        async def scenario():
            service = make_service(toy_params)
            server = await start_server(service)
            try:
                reader, writer = await raw_connect(server)
                for ident, op in ((1, "health"), (3, "ready")):
                    await send_frame(writer, {"id": ident, "op": op})
                    response = await read_frame(reader)
                    assert response["id"] == ident
                    assert response["ok"] is False
                    assert response["code"] == "service"
                    assert "unknown op" in response["error"]
                    await send_frame(writer, {"id": ident + 1,
                                              "op": "ping"})
                    pong = await read_frame(reader)
                    assert pong["ok"] is True
                    assert pong["result"] == "pong"
                writer.close()
            finally:
                server.close()
                await server.wait_closed()
                await service.aclose()

        run(scenario)


class TestInternalErrorContainment:
    """Satellite fix 1: a non-ReproError out of a dispatched handler
    must answer in-band with the stable ``service`` code, not kill the
    connection task and strand the waiter."""

    @staticmethod
    def _broken_keygen(service):
        """Make the service's keygen handler raise a non-ReproError."""
        async def keygen(*args, **kwargs):
            raise RuntimeError("handler bug")

        service.keygen = keygen

    def test_hostile_payload_answers_in_band(self, toy_params):
        async def scenario():
            service = make_service(toy_params)
            self._broken_keygen(service)
            server = await start_server(service)
            try:
                reader, writer = await raw_connect(server)
                # The handler raises RuntimeError inside dispatch —
                # not a ReproError.
                await send_frame(writer, {
                    "id": 1, "op": "keygen", "tenant": "t", "seed": 1})
                response = await read_frame(reader)
                assert response["id"] == 1
                assert response["ok"] is False
                assert response["code"] == "service"
                assert "internal error" in response["error"]
                # The connection keeps serving.
                await send_frame(writer, {"id": 2, "op": "ping"})
                pong = await read_frame(reader)
                assert pong["ok"] is True
                writer.close()
            finally:
                server.close()
                await server.wait_closed()
                await service.aclose()

        run(scenario)

    def test_internal_errors_are_counted(self, toy_params):
        async def scenario():
            service = make_service(toy_params)
            self._broken_keygen(service)
            server = await start_server(service)
            try:
                with telemetry.capture() as cap:
                    reader, writer = await raw_connect(server)
                    await send_frame(writer, {
                        "id": 1, "op": "keygen", "tenant": "t", "seed": 1})
                    await read_frame(reader)
                    assert cap.registry.counter(
                        "service_internal_errors_total").total() == 1
                    writer.close()
            finally:
                server.close()
                await server.wait_closed()
                await service.aclose()

        run(scenario)


class TestOversizedLines:
    """Satellite fix 2: an oversized request line is answered with a
    malformed-request error and drained; the connection keeps
    serving."""

    @staticmethod
    def _padded_request(total_len: int) -> bytes:
        base = {"id": 1, "op": "ping", "pad": ""}
        overhead = len(frame_encode(base))
        base["pad"] = "x" * (total_len - overhead)
        line = frame_encode(base)
        assert len(line) == total_len
        return line

    def test_exactly_max_line_bytes_is_served(self, toy_params):
        async def scenario():
            service = make_service(toy_params)
            server = await start_server(service)
            try:
                reader, writer = await raw_connect(server)
                writer.write(self._padded_request(MAX_LINE_BYTES))
                await writer.drain()
                response = await read_frame(reader)
                assert response["ok"] is True
                assert response["id"] == 1
                writer.close()
            finally:
                server.close()
                await server.wait_closed()
                await service.aclose()

        run(scenario)

    def test_one_byte_over_is_rejected_not_fatal(self, toy_params):
        async def scenario():
            service = make_service(toy_params)
            server = await start_server(service)
            try:
                reader, writer = await raw_connect(server)
                writer.write(self._padded_request(MAX_LINE_BYTES + 1))
                await writer.drain()
                response = await read_frame(reader)
                assert response["ok"] is False
                assert response["code"] == "service"
                assert "malformed request" in response["error"]
                # The connection survives and serves the next frame.
                await send_frame(writer, {"id": 2, "op": "ping"})
                pong = await read_frame(reader)
                assert pong["id"] == 2 and pong["ok"] is True
                writer.close()
            finally:
                server.close()
                await server.wait_closed()
                await service.aclose()

        run(scenario)

    def test_line_beyond_buffer_limit_is_drained(self, toy_params):
        async def scenario():
            service = make_service(toy_params)
            server = await start_server(service)
            try:
                reader, writer = await raw_connect(server)
                writer.write(b"j" * (WIRE_BUFFER_LIMIT + 100) + b"\n")
                await writer.drain()
                response = await read_frame(reader)
                assert response["ok"] is False
                assert "malformed request" in response["error"]
                await send_frame(writer, {"id": 2, "op": "ping"})
                pong = await read_frame(reader)
                assert pong["ok"] is True
                writer.close()
            finally:
                server.close()
                await server.wait_closed()
                await service.aclose()

        run(scenario)


class TestFrameChecksums:
    def test_corrupted_frame_rejected_with_transport_code(
            self, toy_params):
        async def scenario():
            service = make_service(toy_params)
            server = await start_server(service)
            try:
                reader, writer = await raw_connect(server)
                line = bytearray(frame_encode(
                    {"id": 5, "op": "ping"}))
                # Flip one bit inside the op string: still valid
                # JSON, but the checksum no longer matches.
                pos = line.index(b"ping")
                line[pos] ^= 0x01
                writer.write(bytes(line))
                await writer.drain()
                response = await read_frame(reader)
                assert response["ok"] is False
                assert response["code"] == "transport"
                writer.close()
            finally:
                server.close()
                await server.wait_closed()
                await service.aclose()

        run(scenario)

    def test_checksum_covers_canonical_payload(self):
        frame = frame_encode({"id": 1, "op": "ping"})
        decoded = json.loads(frame)
        body = {k: v for k, v in decoded.items() if k != "ck"}
        want = zlib.crc32(
            json.dumps(body, sort_keys=True).encode("utf-8"))
        assert decoded["ck"] == want
