"""Per-kind behavior of the chaos proxy against a plain echo server.

Each scenario arms one site, pushes framed lines through the proxy,
and asserts the injected network fault — and that the proxy degrades
to exact pass-through afterwards (the one-shot contract the campaign's
recovery guarantee rests on).
"""

from __future__ import annotations

import asyncio

import pytest

from repro.chaos import ChaosProxy, ChaosSite, corrupt_line
from repro.errors import ChaosError


def make_site(kind, *, nth=0, byte=3, mask=0, delay=1, direction=1):
    return ChaosSite(index=0, kind=kind, nth=nth, byte=byte,
                     mask=mask, delay=delay, direction=direction)


async def _echo_env():
    """An upstream that echoes every line and records what it saw."""
    seen: list[bytes] = []

    async def handle(reader, writer):
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                seen.append(line)
                writer.write(line)
                await writer.drain()
        except (ConnectionError, OSError):
            pass
        finally:
            writer.close()

    server = await asyncio.start_server(handle, "127.0.0.1", 0)
    port = server.sockets[0].getsockname()[1]
    proxy = ChaosProxy("127.0.0.1", port)
    proxy_port = await proxy.start()
    return server, proxy, proxy_port, seen


def run(scenario):
    async def wrapped():
        server, proxy, port, seen = await _echo_env()
        try:
            return await asyncio.wait_for(
                scenario(proxy, port, seen), 10)
        finally:
            await proxy.aclose()
            server.close()
            await server.wait_closed()

    return asyncio.run(wrapped())


class TestDrops:
    def test_drop_pre_never_reaches_upstream(self):
        async def scenario(proxy, port, seen):
            proxy.arm(make_site("drop_pre"))
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", port)
            writer.write(b'{"id": 1}\n')
            await writer.drain()
            assert await reader.read() == b""
            writer.close()
            assert seen == []
            assert proxy.fired
            assert proxy.injections == {"drop_pre": 1}

        run(scenario)

    def test_drop_mid_forwards_then_drops_response(self):
        async def scenario(proxy, port, seen):
            proxy.arm(make_site("drop_mid"))
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", port)
            writer.write(b'{"id": 1}\n')
            await writer.drain()
            assert await reader.read() == b""
            writer.close()
            # The request DID execute upstream — exactly the lost-
            # response case idempotency keys protect against.
            assert seen == [b'{"id": 1}\n']

        run(scenario)

    def test_drop_post_relays_then_drops(self):
        async def scenario(proxy, port, seen):
            proxy.arm(make_site("drop_post"))
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", port)
            writer.write(b'{"id": 1}\n')
            await writer.drain()
            assert await reader.readline() == b'{"id": 1}\n'
            assert await reader.read() == b""
            writer.close()

        run(scenario)

    def test_one_shot_then_pass_through(self):
        async def scenario(proxy, port, seen):
            proxy.arm(make_site("drop_pre"))
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", port)
            writer.write(b'{"id": 1}\n')
            await writer.drain()
            assert await reader.read() == b""
            writer.close()
            # Reconnect: the site has fired, traffic must pass clean.
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", port)
            writer.write(b'{"id": 2}\n')
            await writer.drain()
            assert await reader.readline() == b'{"id": 2}\n'
            writer.close()
            assert proxy.injections == {"drop_pre": 1}

        run(scenario)


class TestMangling:
    def test_corrupt_c2s_changes_exactly_one_byte(self):
        async def scenario(proxy, port, seen):
            site = make_site("corrupt", byte=4, mask=17, direction=0)
            proxy.arm(site)
            sent = b'{"id": 1, "pad": "xxxx"}\n'
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", port)
            writer.write(sent)
            await writer.drain()
            echoed = await reader.readline()
            writer.close()
            assert echoed != sent
            assert echoed == corrupt_line(sent, site.byte, site.mask)
            assert seen == [echoed]

        run(scenario)

    def test_corrupt_s2c_leaves_request_intact(self):
        async def scenario(proxy, port, seen):
            site = make_site("corrupt", byte=2, mask=5, direction=1)
            proxy.arm(site)
            sent = b'{"id": 7}\n'
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", port)
            writer.write(sent)
            await writer.drain()
            echoed = await reader.readline()
            writer.close()
            assert seen == [sent]
            assert echoed == corrupt_line(sent, site.byte, site.mask)

        run(scenario)

    def test_partial_write_sends_strict_prefix(self):
        async def scenario(proxy, port, seen):
            proxy.arm(make_site("partial_write", byte=6))
            sent = b'{"id": 1, "pad": "yyyyyyyy"}\n'
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", port)
            writer.write(sent)
            await writer.drain()
            got = await reader.read()
            writer.close()
            assert 0 < len(got) < len(sent)
            assert sent.startswith(got)

        run(scenario)

    def test_duplicate_sends_the_line_twice(self):
        async def scenario(proxy, port, seen):
            proxy.arm(make_site("duplicate"))
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", port)
            writer.write(b'{"id": 1}\n')
            await writer.drain()
            assert await reader.readline() == b'{"id": 1}\n'
            assert await reader.readline() == b'{"id": 1}\n'
            writer.close()

        run(scenario)


class TestTiming:
    def test_latency_below_delays_but_delivers(self):
        async def scenario(proxy, port, seen):
            # delay=1 is odd: the below-timeout branch.
            proxy.arm(make_site("latency", delay=1),
                      latency_below_s=0.02)
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", port)
            writer.write(b'{"id": 1}\n')
            await writer.drain()
            assert await reader.readline() == b'{"id": 1}\n'
            writer.close()

        run(scenario)

    def test_latency_above_holds_past_the_bound(self):
        async def scenario(proxy, port, seen):
            # delay=0 is even: the above-timeout branch.
            proxy.arm(make_site("latency", delay=0),
                      latency_above_s=0.3)
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", port)
            writer.write(b'{"id": 1}\n')
            await writer.drain()
            with pytest.raises(asyncio.TimeoutError):
                await asyncio.wait_for(reader.readline(), 0.1)
            assert await asyncio.wait_for(
                reader.readline(), 2) == b'{"id": 1}\n'
            writer.close()

        run(scenario)

    def test_reorder_swaps_adjacent_responses(self):
        async def scenario(proxy, port, seen):
            proxy.arm(make_site("reorder"), hold_s=1.0)
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", port)
            writer.write(b'{"id": 1}\n')
            await writer.drain()
            writer.write(b'{"id": 2}\n')
            await writer.drain()
            assert await reader.readline() == b'{"id": 2}\n'
            assert await reader.readline() == b'{"id": 1}\n'
            writer.close()

        run(scenario)

    def test_reorder_flushes_when_nothing_overtakes(self):
        async def scenario(proxy, port, seen):
            proxy.arm(make_site("reorder"), hold_s=0.05)
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", port)
            writer.write(b'{"id": 1}\n')
            await writer.drain()
            assert await asyncio.wait_for(
                reader.readline(), 2) == b'{"id": 1}\n'
            writer.close()

        run(scenario)

    def test_stale_reorder_flush_leaves_the_next_trials_line(self):
        """A trial's fallback flush outlives its held line (an
        overtaking response released it); when it wakes during the
        next trial it must not steal that trial's held line."""
        async def scenario(proxy, port, seen):
            proxy.arm(make_site("reorder"), hold_s=0.2)
            reader_a, writer_a = await asyncio.open_connection(
                "127.0.0.1", port)
            writer_a.write(b'{"id": 1}\n{"id": 2}\n')
            await writer_a.drain()
            assert await reader_a.readline() == b'{"id": 2}\n'
            assert await reader_a.readline() == b'{"id": 1}\n'

            proxy.arm(make_site("reorder"), hold_s=0.6)
            reader_b, writer_b = await asyncio.open_connection(
                "127.0.0.1", port)
            writer_b.write(b'{"id": 3}\n')
            await writer_b.drain()
            assert await asyncio.wait_for(
                reader_b.readline(), 2) == b'{"id": 3}\n'
            with pytest.raises(asyncio.TimeoutError):
                await asyncio.wait_for(reader_a.readline(), 0.1)
            writer_a.close()
            writer_b.close()

        run(scenario)


class TestArming:
    def test_nth_wraps_modulo_lines_per_trial(self):
        async def scenario(proxy, port, seen):
            proxy.arm(make_site("drop_pre", nth=4), lines_per_trial=4)
            assert proxy.armed.nth == 0

        run(scenario)

    def test_corrupt_is_never_a_noop(self):
        line = b'{"id": 1}\n'
        for mask in range(0, 256, 17):
            assert corrupt_line(line, 3, mask) != line

    def test_double_start_rejected(self):
        async def scenario(proxy, port, seen):
            with pytest.raises(ChaosError, match="already started"):
                await proxy.start()

        run(scenario)
