"""An in-process TCP chaos proxy for the JSON-lines wire protocol.

:class:`ChaosProxy` sits between a :class:`~repro.service.ServiceClient`
and a wire server, relaying newline-delimited frames in both
directions.  One :class:`~repro.chaos.plan.ChaosSite` may be *armed* at
a time; the armed fault fires **exactly once** (on the Nth line of the
relevant direction) and the proxy then degrades to pure pass-through —
so a client with at least one retry must always be able to complete,
which is precisely the property the campaign checks.

Raw site selectors are resolved at arm time:

* ``nth``       -> ``nth % lines_per_trial`` (line index within the trial;
  counting continues across reconnects, so a fault never re-fires on
  the retry connection);
* ``byte``      -> byte position modulo the actual line length;
* ``mask``      -> XOR mask ``1 + mask % 255`` (never a no-op);
* ``delay``     -> even selects ``latency_above_s`` (client must time out
  and retry), odd selects ``latency_below_s`` (absorbed by the caller);
* ``direction`` -> for ``corrupt`` only: even mangles a request
  (client-to-server), odd mangles a response.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass

from repro import telemetry
from repro.chaos.plan import (
    KIND_CORRUPT,
    KIND_DROP_MID,
    KIND_DROP_POST,
    KIND_DROP_PRE,
    KIND_DUPLICATE,
    KIND_LATENCY,
    KIND_PARTIAL_WRITE,
    KIND_REORDER,
    LINES_PER_HANDSHAKE,
    ChaosSite,
)
from repro.errors import ChaosError
from repro.service.wire import MAX_RESPONSE_BYTES

C2S = "c2s"
S2C = "s2c"


def corrupt_line(line: bytes, byte: int, mask: int) -> bytes:
    """XOR one payload byte of a newline-terminated frame."""
    body = line[:-1] if line.endswith(b"\n") else line
    if not body:
        return line
    pos = byte % len(body)
    flip = 1 + mask % 255
    return body[:pos] + bytes([body[pos] ^ flip]) + body[pos + 1:] + b"\n"


@dataclass(frozen=True)
class _Armed:
    """A site with its raw selectors resolved against the trial shape."""

    site: ChaosSite
    direction: str
    nth: int
    delay_s: float
    hold_s: float


class ChaosProxy:
    """Relay client<->server traffic, injecting one fault per trial."""

    def __init__(self, upstream_host: str, upstream_port: int, *,
                 host: str = "127.0.0.1") -> None:
        self._upstream = (upstream_host, upstream_port)
        self._host = host
        self._server: asyncio.AbstractServer | None = None
        self._armed: _Armed | None = None
        self._fired = False
        self._count = {C2S: 0, S2C: 0}
        #: the reordered line and the writer it belongs to
        self._held: tuple[asyncio.StreamWriter, bytes] | None = None
        self._side_tasks: set[asyncio.Task] = set()
        self._conn_tasks: set[asyncio.Task] = set()
        #: injections fired since construction, keyed by site kind
        self.injections: dict[str, int] = {}

    # -- lifecycle ----------------------------------------------------

    async def start(self) -> int:
        """Start listening; returns the bound port."""
        if self._server is not None:
            raise ChaosError("chaos proxy is already started")
        self._server = await asyncio.start_server(
            self._handle, self._host, 0)
        return self._server.sockets[0].getsockname()[1]

    @property
    def port(self) -> int:
        if self._server is None:
            raise ChaosError("chaos proxy is not started")
        return self._server.sockets[0].getsockname()[1]

    async def aclose(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for task in [*self._conn_tasks, *self._side_tasks]:
            task.cancel()
        for task in [*self._conn_tasks, *self._side_tasks]:
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass
        self._conn_tasks.clear()
        self._side_tasks.clear()

    # -- arming -------------------------------------------------------

    def arm(self, site: ChaosSite, *,
            lines_per_trial: int = LINES_PER_HANDSHAKE,
            latency_above_s: float = 3.0,
            latency_below_s: float = 0.05,
            hold_s: float = 0.05) -> None:
        """Resolve *site* against the trial shape and make it live."""
        if site.kind == KIND_DROP_PRE:
            direction = C2S
        elif site.kind == KIND_CORRUPT:
            direction = C2S if site.direction % 2 == 0 else S2C
        else:
            direction = S2C
        self._armed = _Armed(
            site=site,
            direction=direction,
            nth=site.nth % lines_per_trial,
            delay_s=(latency_above_s if site.delay % 2 == 0
                     else latency_below_s),
            hold_s=hold_s,
        )
        self._fired = False
        self._count = {C2S: 0, S2C: 0}
        self._held = None

    def disarm(self) -> None:
        self._armed = None
        self._held = None

    @property
    def fired(self) -> bool:
        """Whether the currently/last armed site has injected its fault."""
        return self._fired

    @property
    def armed(self) -> _Armed | None:
        """The resolved armed site (None between trials)."""
        return self._armed

    # -- relaying -----------------------------------------------------

    def _take(self, direction: str) -> bool:
        """Count one line in *direction*; True iff the armed site fires."""
        idx = self._count[direction]
        self._count[direction] = idx + 1
        armed = self._armed
        if (armed is None or self._fired or armed.direction != direction
                or idx != armed.nth):
            return False
        self._fired = True
        kind = armed.site.kind
        self.injections[kind] = self.injections.get(kind, 0) + 1
        telemetry.record("chaos_injections_total", kind)
        return True

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        try:
            up_reader, up_writer = await asyncio.open_connection(
                *self._upstream, limit=MAX_RESPONSE_BYTES)
        except OSError:
            writer.close()
            return
        lock = asyncio.Lock()
        pumps = [
            asyncio.ensure_future(self._pump(C2S, reader, up_writer, lock)),
            asyncio.ensure_future(self._pump(S2C, up_reader, writer, lock)),
        ]
        self._conn_tasks.update(pumps)
        try:
            # Either direction ending (EOF, error, or an injected drop)
            # tears down the whole relayed connection, mirroring what a
            # real broken TCP path looks like to both peers.
            await asyncio.wait(pumps, return_when=asyncio.FIRST_COMPLETED)
        finally:
            for task in pumps:
                task.cancel()
            for task in pumps:
                try:
                    await task
                except (asyncio.CancelledError, Exception):
                    pass
            self._conn_tasks.difference_update(pumps)
            for closing in (writer, up_writer):
                try:
                    closing.close()
                except OSError:
                    pass

    async def _pump(self, direction: str, reader: asyncio.StreamReader,
                    writer: asyncio.StreamWriter,
                    lock: asyncio.Lock) -> None:
        while True:
            try:
                line = await reader.readuntil(b"\n")
            except asyncio.IncompleteReadError as exc:
                # Forward a trailing partial write verbatim before EOF.
                if exc.partial:
                    await self._write(writer, lock, exc.partial)
                return
            except (asyncio.LimitOverrunError, ConnectionError, OSError):
                return
            armed = self._armed
            if self._take(direction):
                kind = armed.site.kind
                if kind in (KIND_DROP_PRE, KIND_DROP_MID):
                    return
                if kind == KIND_CORRUPT:
                    line = corrupt_line(line, armed.site.byte,
                                        armed.site.mask)
                elif kind == KIND_PARTIAL_WRITE:
                    cut = 1 + armed.site.byte % max(len(line) - 2, 1)
                    await self._write(writer, lock, line[:cut])
                    return
                elif kind == KIND_LATENCY:
                    self._spawn(self._delayed_write(
                        writer, lock, line, armed.delay_s))
                    continue
                elif kind == KIND_DUPLICATE:
                    await self._write(writer, lock, line + line)
                    continue
                elif kind == KIND_REORDER:
                    self._held = (writer, line)
                    self._spawn(self._flush_held(lock, self._held,
                                                 armed.hold_s))
                    continue
                elif kind == KIND_DROP_POST:
                    await self._write(writer, lock, line)
                    return
            await self._write(writer, lock, line, release_held=True)

    async def _write(self, writer: asyncio.StreamWriter, lock: asyncio.Lock,
                     data: bytes, *, release_held: bool = False) -> None:
        async with lock:
            try:
                writer.write(data)
                if (release_held and self._held is not None
                        and self._held[0] is writer):
                    _writer, held = self._held
                    self._held = None
                    writer.write(held)
                await writer.drain()
            except (ConnectionError, OSError):
                pass

    def _spawn(self, coro) -> None:
        task = asyncio.ensure_future(coro)
        self._side_tasks.add(task)
        task.add_done_callback(self._side_tasks.discard)

    async def _delayed_write(self, writer: asyncio.StreamWriter,
                             lock: asyncio.Lock, line: bytes,
                             delay_s: float) -> None:
        await asyncio.sleep(delay_s)
        await self._write(writer, lock, line)

    async def _flush_held(self, lock: asyncio.Lock, held: tuple,
                          hold_s: float) -> None:
        # Fallback: if no later response ever overtakes the held one
        # (it was the last line of the handshake), release it anyway —
        # but only *this* task's line: a stale task from an earlier
        # trial must not steal the line a later trial is holding.
        await asyncio.sleep(hold_s)
        async with lock:
            if self._held is not held:
                return  # already released by an overtaking write
            self._held = None
            writer, line = held
            try:
                writer.write(line)
                await writer.drain()
            except (ConnectionError, OSError):
                pass
