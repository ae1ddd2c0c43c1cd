"""Hypothesis fuzzing of the wire protocol over real TCP sockets.

The server-side contract under arbitrary client behavior: every line
gets an in-band answer (or is a clean close), every error carries a
stable lowercase code, the connection keeps serving afterwards, and a
retried idempotent request never executes twice.  The run counter in
``service.stats()`` is the double-execution oracle.
"""

from __future__ import annotations

import asyncio
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.service import KeyExchangeService, TenantConfig, start_server
from repro.service.wire import frame_decode, frame_encode

#: Wire ids used by the liveness probe, far above anything the fuzz
#: strategies generate.
_PROBE_ID = 10**9


@pytest.fixture()
def wire_env(toy_params):
    """One live service + TCP server shared by a test's examples."""
    loop = asyncio.new_event_loop()

    async def setup():
        service = KeyExchangeService(toy_params, [TenantConfig(
            "t", engine="aot", lanes=2, max_queue=8,
            variant="reduced.ise")])
        server = await start_server(service)
        return service, server

    service, server = loop.run_until_complete(setup())
    env = SimpleNamespace(
        loop=loop, service=service,
        port=server.sockets[0].getsockname()[1])
    yield env

    async def teardown():
        server.close()
        await server.wait_closed()
        await service.aclose()

    loop.run_until_complete(teardown())
    loop.close()


async def _read_response(reader, rid):
    """Read frames until the one answering *rid* (others may be the
    error responses provoked by the fuzzed payload)."""
    for _ in range(400):
        line = await asyncio.wait_for(reader.readline(), 10)
        assert line, "server closed the connection"
        try:
            response = frame_decode(line)
        except ValueError:
            continue
        if response.get("id") == rid:
            return response
    raise AssertionError(f"no response for id {rid}")


async def _poke(env, payload: bytes):
    """Send *payload*, then prove the connection still serves."""
    reader, writer = await asyncio.open_connection(
        "127.0.0.1", env.port)
    try:
        writer.write(payload)
        writer.write(frame_encode({"id": _PROBE_ID, "op": "ping"}))
        await writer.drain()
        probe = await _read_response(reader, _PROBE_ID)
        assert probe["ok"] is True
        assert probe["result"] == "pong"
    finally:
        writer.close()


def drive(env, coroutine):
    return env.loop.run_until_complete(
        asyncio.wait_for(coroutine, 30))


class TestArbitraryBytes:
    @given(junk=st.binary(max_size=200))
    @settings(max_examples=30, deadline=None)
    def test_junk_never_kills_the_connection(self, wire_env, junk):
        drive(wire_env, _poke(wire_env, junk + b"\n"))

    @given(cut=st.integers(min_value=1, max_value=60))
    @settings(max_examples=20, deadline=None)
    def test_truncated_request_fails_clean(self, wire_env, cut):
        frame = frame_encode({"id": 1, "op": "keygen", "tenant": "t",
                              "seed": 1})
        truncated = frame[:min(cut, len(frame) - 2)] + b"\n"
        drive(wire_env, _poke(wire_env, truncated))

    @given(junk=st.binary(max_size=120),
           frames=st.integers(min_value=1, max_value=4))
    @settings(max_examples=15, deadline=None)
    def test_interleaved_junk_and_valid_frames(self, wire_env, junk,
                                               frames):
        async def scenario():
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", wire_env.port)
            try:
                for index in range(frames):
                    writer.write(junk + b"\n")
                    writer.write(frame_encode(
                        {"id": 1000 + index, "op": "ping"}))
                await writer.drain()
                for index in range(frames):
                    response = await _read_response(
                        reader, 1000 + index)
                    assert response["ok"] is True
            finally:
                writer.close()

        drive(wire_env, scenario())


_WEIRD = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(),
    st.text(max_size=8), st.lists(st.integers(), max_size=3),
    st.dictionaries(st.text(max_size=4), st.integers(), max_size=2),
)


class TestWrongTypes:
    @given(op=_WEIRD, tenant=_WEIRD, seed=_WEIRD)
    @settings(max_examples=30, deadline=None)
    def test_wrong_typed_fields_get_stable_codes(self, wire_env, op,
                                                 tenant, seed):
        async def scenario():
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", wire_env.port)
            try:
                writer.write(frame_encode({
                    "id": 1, "op": op, "tenant": tenant,
                    "seed": seed}))
                await writer.drain()
                response = await _read_response(reader, 1)
                if not response.get("ok"):
                    code = response["code"]
                    assert isinstance(code, str)
                    assert code == code.lower() and " " not in code
                # and the connection keeps serving:
                writer.write(frame_encode(
                    {"id": _PROBE_ID, "op": "ping"}))
                await writer.drain()
                probe = await _read_response(reader, _PROBE_ID)
                assert probe["ok"] is True
            finally:
                writer.close()

        drive(wire_env, scenario())

    @given(rid=_WEIRD)
    @settings(max_examples=20, deadline=None)
    def test_any_id_type_is_echoed_back(self, wire_env, rid):
        async def scenario():
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", wire_env.port)
            try:
                writer.write(frame_encode({"id": rid, "op": "ping"}))
                await writer.drain()
                for _ in range(10):
                    response = frame_decode(
                        await asyncio.wait_for(reader.readline(), 10))
                    if response.get("id") == rid or (
                            isinstance(rid, float)
                            and response.get("id") is not None):
                        break
                assert response["ok"] is True
            finally:
                writer.close()

        drive(wire_env, scenario())

    def test_duplicate_wire_ids_both_answered(self, wire_env):
        async def scenario():
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", wire_env.port)
            try:
                writer.write(frame_encode({"id": 1, "op": "ping"}))
                writer.write(frame_encode({"id": 1, "op": "ping"}))
                await writer.drain()
                for _ in range(2):
                    response = frame_decode(
                        await asyncio.wait_for(reader.readline(), 10))
                    assert response["id"] == 1
                    assert response["ok"] is True
            finally:
                writer.close()

        drive(wire_env, scenario())


class TestIdempotentRetries:
    @given(seed=st.integers(min_value=0, max_value=2**16),
           dups=st.integers(min_value=1, max_value=3))
    @settings(max_examples=15, deadline=None)
    def test_retries_never_double_execute(self, wire_env, seed, dups):
        async def scenario():
            before = wire_env.service.stats()["requests_total"]
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", wire_env.port)
            try:
                request = {"op": "keygen", "tenant": "t",
                           "seed": seed, "idem": f"fuzz-{seed}"}
                for index in range(dups + 1):
                    writer.write(frame_encode(
                        dict(request, id=index + 1)))
                await writer.drain()
                results = set()
                for index in range(dups + 1):
                    response = await _read_response(
                        reader, index + 1)
                    assert response["ok"] is True
                    results.add(response["result"])
                # Every duplicate saw the same bits, and the service
                # ran the operation exactly once.
                assert len(results) == 1
                after = wire_env.service.stats()["requests_total"]
                assert after - before == 1
            finally:
                writer.close()

        drive(wire_env, scenario())
