"""JSON-lines wire protocol: TCP server glue and the async client.

One request per line, one response per line, UTF-8 JSON:

.. code-block:: json

    {"id": 7, "op": "exchange", "tenant": "tenant-0",
     "seed": 123, "peer": 218, "deadline": 30.0,
     "idem": "8c2f41d29e77b013", "ck": 2186837083}
    {"id": 7, "ok": true, "result": 140, "ck": 3412470245}

Errors come back in-band with the package's **stable error codes**
(``tests/test_errors.py``): an admission rejection is
``{"id": 7, "ok": false, "code": "admission", "error": "..."}`` — the
client re-raises it as the matching
:class:`~repro.errors.ReproError` subclass, so a caller's
``except AdmissionError`` works identically in-process and over TCP.
Responses may arrive out of order (requests run concurrently); the
``id`` is the correlator.

Ops: ``keygen`` (seed), ``exchange`` (seed, peer, validate?),
``verify`` (public), ``field_op`` (field_op, operands), ``stats``,
``ping``.  Any other op is answered in-band with the stable code
``service`` and the connection keeps serving.

**Resilience fields** (all optional; see ``docs/ROBUSTNESS.md``):

* ``deadline`` — a per-request budget in seconds, enforced
  server-side from receipt (clock-skew free).  Expiry answers with the
  stable code ``deadline``; late work drains in the background.
* ``idem`` — an idempotency key.  Keys are stateless (private keys
  re-derive from the request seed), so ``keygen``/``exchange``/
  ``verify``/``field_op`` are safely re-executable; the server
  additionally keeps a bounded per-connection response cache keyed on
  ``idem`` so a retry after a lost *response* returns the cached
  answer (marked ``"cached": true``) instead of recomputing.
* ``ck`` — a CRC-32 frame checksum over the frame's canonical JSON
  (sorted keys, ``ck`` excluded).  Optional on receive, always sent by
  this module: a corrupted frame is detected instead of silently
  delivering a wrong integer to a key-exchange caller.

**Request tracing.**  Every traced op (:data:`tracing.TRACED_OPS`)
carries a ``trace`` field: the client generates one if the caller did
not supply it, the server threads it through the service as the
request's trace context, and the response echoes it.  When the
serving process has telemetry on, the id labels the request's span
subtree; ``repro serve`` runs with telemetry off, so there the ids
are correlators only (see ``docs/OBSERVABILITY.md``).
"""

from __future__ import annotations

import asyncio
import itertools
import json
import random
import zlib
from collections import OrderedDict

from repro import telemetry
from repro.errors import (
    DeadlineError,
    ReproError,
    ServiceError,
    TransportError,
)
from repro.service.server import KeyExchangeService
from repro.telemetry import tracing

#: Line length guard: a request is a few integers, never megabytes.
MAX_LINE_BYTES = 1 << 16

#: Server read-buffer limit.  Larger than :data:`MAX_LINE_BYTES` so an
#: oversized-but-bounded request line can still be *fully consumed* and
#: answered in-band (the connection keeps serving); only lines beyond
#: this are drained blind.
WIRE_BUFFER_LIMIT = 4 * MAX_LINE_BYTES

#: Ops that are safe to re-execute (stateless seed-derived keys) and
#: therefore eligible for idempotency keys and automatic client retry.
IDEMPOTENT_OPS = frozenset({"keygen", "exchange", "verify", "field_op"})

#: Read-only ops the client also retries (no idempotency key needed).
READONLY_OPS = frozenset({"ping", "stats"})

#: Per-connection idempotency-cache bound (LRU beyond this).
IDEM_CACHE_SIZE = 256

#: Default per-request budget for :meth:`ServiceClient.request` — the
#: client-side wait bound *and* the wire ``deadline`` sent with it.
DEFAULT_REQUEST_TIMEOUT_S = 30.0

#: Default automatic retry budget for idempotent/read-only requests.
DEFAULT_RETRIES = 2

#: Exponential-backoff base and cap for client retries (jittered).
DEFAULT_BACKOFF_S = 0.05
DEFAULT_BACKOFF_CAP_S = 1.0

_UNSET = object()


class FrameCorruptionError(TransportError, ValueError):
    """A frame parsed as JSON but failed its ``ck`` checksum.

    Both a :class:`~repro.errors.TransportError` (it is transport
    damage, and retryable) and a :class:`ValueError` (codec-level
    catches treat it like any other undecodable line).  ``frame``
    carries the decoded object so the server can still answer on the
    frame's claimed ``id``.
    """

    code = "frame_corruption"

    def __init__(self, message: str, frame: dict | None = None) -> None:
        super().__init__(message)
        self.frame = frame


def _checksum(payload: dict) -> int:
    """CRC-32 over the canonical (sorted-keys) JSON of *payload*."""
    return zlib.crc32(json.dumps(payload, sort_keys=True).encode())


def frame_encode(payload: dict) -> bytes:
    """Serialize *payload* as one checksummed wire line."""
    return json.dumps(
        {**payload, "ck": _checksum(payload)}, sort_keys=True,
    ).encode() + b"\n"


def frame_decode(line: bytes) -> dict:
    """Parse one wire line, verifying ``ck`` when present.

    Raises :class:`ValueError` on malformed JSON or a non-object
    frame, and :class:`FrameCorruptionError` (a ``ValueError``
    subclass carrying the decoded frame) on a checksum mismatch.
    """
    message = json.loads(line)
    if not isinstance(message, dict):
        raise ValueError("frame must be a JSON object")
    ck = message.pop("ck", None)
    if ck is not None and _checksum(message) != ck:
        raise FrameCorruptionError(
            "frame checksum mismatch (corrupted in transit)", message)
    return message


def _error_class(code: str) -> type[ReproError]:
    """The :class:`ReproError` subclass registered for *code* (depth-
    first over the hierarchy), so wire errors re-raise natively."""
    stack: list[type[ReproError]] = [ReproError]
    while stack:
        cls = stack.pop()
        if cls.code == code:
            return cls
        stack.extend(cls.__subclasses__())
    return ServiceError


async def _dispatch(service: KeyExchangeService, request: dict,
                    trace_id: str | None):
    op = request.get("op")
    tenant = request.get("tenant", "")
    deadline = request.get("deadline")
    if op == "ping":
        return "pong"
    if op == "stats":
        return service.stats()
    if op == "keygen":
        return await service.keygen(tenant, request.get("seed", 0),
                                    trace_id=trace_id,
                                    deadline_s=deadline)
    if op == "exchange":
        return await service.exchange(
            tenant, request.get("seed", 0),
            request.get("peer"),
            validate=bool(request.get("validate", True)),
            trace_id=trace_id, deadline_s=deadline)
    if op == "verify":
        return await service.verify(tenant, request.get("public"),
                                    trace_id=trace_id,
                                    deadline_s=deadline)
    if op == "field_op":
        return await service.field_op(
            tenant, request.get("field_op", ""),
            request.get("operands", ()), trace_id=trace_id,
            deadline_s=deadline)
    raise ServiceError(f"unknown op {op!r}")


class _Oversized:
    """Internal marker: a request line exceeded :data:`MAX_LINE_BYTES`
    (a plain object, not an exception — the package's exception
    contract reserves those for :class:`ReproError` descendants)."""

    __slots__ = ("nbytes",)

    def __init__(self, nbytes: int) -> None:
        self.nbytes = nbytes


async def _read_request_line(reader: asyncio.StreamReader):
    """The next request line, ``None`` at EOF, or :class:`_Oversized`.

    Oversized lines are reported **after being fully consumed**, so
    the caller can answer in-band and keep serving the connection.
    Lines within the stream buffer (:data:`WIRE_BUFFER_LIMIT`) are
    consumed exactly; a hostile line beyond even that is drained blind
    up to its terminating newline (pipelined bytes in the drained
    chunks are lost — the peer is already out of contract).
    """
    try:
        line = await reader.readuntil(b"\n")
    except asyncio.IncompleteReadError as exc:
        # EOF without a trailing newline: serve the partial line.
        if not exc.partial:
            return None
        line = exc.partial
    except asyncio.LimitOverrunError:
        dropped = 0
        while True:
            chunk = await reader.read(WIRE_BUFFER_LIMIT)
            if not chunk:
                break
            dropped += len(chunk)
            if b"\n" in chunk:
                break
        return _Oversized(dropped)
    if len(line) > MAX_LINE_BYTES:
        return _Oversized(len(line))
    return line


async def handle_connection(service: KeyExchangeService,
                            reader: asyncio.StreamReader,
                            writer: asyncio.StreamWriter) -> None:
    """Serve one client: each line becomes a concurrent task, so one
    slow exchange never head-of-line-blocks the connection."""
    pending: set[asyncio.Task] = set()
    write_lock = asyncio.Lock()
    # Per-connection idempotency cache: key -> future resolving to the
    # response body.  Futures (not bodies) so a duplicate arriving
    # while the original is still executing awaits that execution
    # instead of starting a second one.
    idem_cache: OrderedDict[str, asyncio.Future] = OrderedDict()

    async def respond(payload: dict) -> None:
        async with write_lock:  # one line at a time, interleaving-safe
            try:
                writer.write(frame_encode(payload))
                await writer.drain()
            except OSError:
                # Peer vanished mid-response; the read side is about
                # to see EOF and tear the connection down.
                pass

    async def serve_one(request: dict) -> None:
        request_id = request.get("id")
        op = request.get("op")
        trace_id = request.get("trace")
        if trace_id is None and op in tracing.TRACED_OPS:
            # Server-generated: every traced request has an id even
            # when the client doesn't care, so server-side traces are
            # always addressable.
            trace_id = tracing.new_trace_id()
        trace_field = {} if trace_id is None else {"trace": trace_id}

        idem = request.get("idem")
        slot: asyncio.Future | None = None
        if isinstance(idem, str) and idem and op in IDEMPOTENT_OPS:
            cached = idem_cache.get(idem)
            if cached is not None:
                idem_cache.move_to_end(idem)
                body = await cached
                await respond({"id": request_id, "cached": True, **body})
                return
            slot = asyncio.get_running_loop().create_future()
            idem_cache[idem] = slot
            while len(idem_cache) > IDEM_CACHE_SIZE:
                idem_cache.popitem(last=False)

        try:
            result = await _dispatch(service, request, trace_id)
        except ReproError as exc:
            ok = False
            body = {"ok": False, "code": exc.code, "error": str(exc),
                    **trace_field}
        except Exception as exc:  # noqa: BLE001 — the wire boundary
            # A non-ReproError escaping _dispatch used to kill this
            # task silently, hanging the client's waiter forever.
            ok = False
            telemetry.record("service_internal_errors_total", str(op))
            body = {"ok": False, "code": "service",
                    "error": ("internal error: "
                              f"{type(exc).__name__}: {exc}"),
                    **trace_field}
        else:
            ok = True
            body = {"ok": True, "result": result, **trace_field}
        if slot is not None:
            slot.set_result(body)
            if not ok:
                # Errors resolve in-flight duplicates but are not
                # cached: a later retry re-executes.
                idem_cache.pop(idem, None)
        await respond({"id": request_id, **body})

    try:
        while True:
            try:
                line = await _read_request_line(reader)
            except (ConnectionError, asyncio.CancelledError):
                break
            if line is None:
                break
            if isinstance(line, _Oversized):
                await respond({
                    "id": None, "ok": False, "code": "service",
                    "error": (f"malformed request: line of "
                              f"{line.nbytes} bytes exceeds the "
                              f"{MAX_LINE_BYTES}-byte limit")})
                continue
            line = line.strip()
            if not line:
                continue
            try:
                request = frame_decode(line)
            except FrameCorruptionError as exc:
                frame = exc.frame if isinstance(exc.frame, dict) else {}
                await respond({"id": frame.get("id"), "ok": False,
                               "code": "transport",
                               "error": str(exc)})
                continue
            except ValueError as exc:
                await respond({"id": None, "ok": False,
                               "code": "service",
                               "error": f"malformed request: {exc}"})
                continue
            task = asyncio.ensure_future(serve_one(request))
            pending.add(task)
            task.add_done_callback(pending.discard)
    finally:
        for task in list(pending):
            task.cancel()
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, asyncio.CancelledError):
            # Server shutdown cancels handlers mid-close; finishing
            # normally keeps asyncio's task-exception logger quiet.
            pass


async def start_server(service: KeyExchangeService,
                       host: str = "127.0.0.1",
                       port: int = 0) -> asyncio.AbstractServer:
    """Bind a TCP server for *service*; ``port=0`` picks a free port
    (``server.sockets[0].getsockname()[1]`` reveals it)."""
    return await asyncio.start_server(
        lambda r, w: handle_connection(service, r, w),
        host, port, limit=WIRE_BUFFER_LIMIT)


class ServiceClient:
    """Async JSON-lines client with out-of-order response correlation
    and built-in resilience.

    Every request is bounded by a **timeout** (sent to the server as
    its wire ``deadline`` and enforced locally as the wait bound) and
    idempotent/read-only requests are **retried** with exponential
    backoff + jitter across transport faults, timeouts and dropped
    connections — reconnecting as needed.  Idempotency keys make the
    retries exactly-once observable: a retry after a lost response is
    answered from the server's response cache.  ``timeout=None``
    restores the old unbounded wait.  The retry budget and backoff are
    the module constants :data:`DEFAULT_RETRIES`,
    :data:`DEFAULT_BACKOFF_S` and :data:`DEFAULT_BACKOFF_CAP_S`.
    """

    def __init__(self, *,
                 timeout_s: float | None = DEFAULT_REQUEST_TIMEOUT_S,
                 rng: random.Random | None = None) -> None:
        self.timeout_s = timeout_s
        self._rng = rng if rng is not None else random.Random()
        self._host: str | None = None
        self._port: int | None = None
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None
        self._ids = itertools.count(1)
        self._waiters: dict[int, asyncio.Future] = {}
        self._pump: asyncio.Task | None = None
        self._conn_lock = asyncio.Lock()
        #: Observability counters (also exported via telemetry).
        self.retries_total = 0
        self.reconnects_total = 0
        self.dropped_frames_total = 0

    async def connect(self, host: str, port: int) -> "ServiceClient":
        self._host, self._port = host, port
        await self._open()
        return self

    async def _open(self) -> None:
        assert self._host is not None and self._port is not None
        self._reader, self._writer = await asyncio.open_connection(
            self._host, self._port, limit=WIRE_BUFFER_LIMIT)
        self._pump = asyncio.ensure_future(self._read_loop())

    def _connected(self) -> bool:
        return (self._writer is not None
                and not self._writer.is_closing()
                and self._pump is not None
                and not self._pump.done())

    async def _ensure_connection(self) -> None:
        if self._connected():
            return
        if self._host is None:
            raise ServiceError("client is not connected")
        async with self._conn_lock:
            if self._connected():
                return
            await self._teardown()
            try:
                await self._open()
            except OSError as exc:
                raise TransportError(
                    f"reconnect to {self._host}:{self._port} failed: "
                    f"{exc}") from None
            self.reconnects_total += 1
            telemetry.record("service_reconnects_total")

    async def _read_loop(self) -> None:
        assert self._reader is not None
        try:
            while True:
                line = await self._reader.readline()
                if not line:
                    break
                try:
                    response = frame_decode(line)
                except ValueError:
                    # Corrupt or malformed frame: drop it.  The
                    # affected request times out and retries — a
                    # garbled line must never resolve a waiter.
                    self.dropped_frames_total += 1
                    continue
                waiter = self._waiters.pop(response.get("id"), None)
                if waiter is None or waiter.done():
                    continue
                if response.get("ok"):
                    # Resolve with the whole response: request()
                    # unwraps the result, request_traced() also wants
                    # the echoed trace id.
                    waiter.set_result(response)
                else:
                    error_cls = _error_class(
                        response.get("code", "service"))
                    waiter.set_exception(
                        error_cls(response.get("error", "request failed")))
        except (OSError, ValueError, asyncio.CancelledError):
            # Connection loss or an over-limit response line: treat
            # both as transport teardown.
            pass
        finally:
            for waiter in self._waiters.values():
                if not waiter.done():
                    waiter.set_exception(
                        TransportError("connection closed"))
            self._waiters.clear()

    async def _attempt(self, op: str, fields: dict,
                       timeout_s: float | None):
        """One wire round-trip (no retry).

        Transport faults raise :class:`TransportError`; a local wait
        timeout raises :class:`DeadlineError` — both retryable.
        """
        await self._ensure_connection()
        assert self._writer is not None
        request_id = next(self._ids)
        future = asyncio.get_running_loop().create_future()
        self._waiters[request_id] = future
        payload = {"id": request_id, "op": op, **fields}
        if timeout_s is not None and "deadline" not in payload:
            payload["deadline"] = timeout_s
        try:
            self._writer.write(frame_encode(payload))
            await self._writer.drain()
        except OSError as exc:
            self._waiters.pop(request_id, None)
            raise TransportError(f"send failed: {exc}") from None
        if timeout_s is None:
            return await future
        try:
            return await asyncio.wait_for(future, timeout_s)
        except asyncio.TimeoutError:
            self._waiters.pop(request_id, None)
            raise DeadlineError(
                f"{op} got no response within its {timeout_s:g}s "
                f"timeout") from None

    async def _request_response(self, op: str, fields: dict, *,
                                timeout=_UNSET) -> dict:
        timeout_s = self.timeout_s if timeout is _UNSET else timeout
        fields = dict(fields)
        if op in tracing.TRACED_OPS and "trace" not in fields:
            fields["trace"] = tracing.new_trace_id()
        retryable = op in IDEMPOTENT_OPS or op in READONLY_OPS
        if op in IDEMPOTENT_OPS and "idem" not in fields:
            # One key per *logical* request: every retry attempt
            # reuses it, so the server can deduplicate.
            fields["idem"] = tracing.new_trace_id()
        attempts = (DEFAULT_RETRIES if retryable else 0) + 1
        delay = DEFAULT_BACKOFF_S
        last: ReproError | None = None
        for attempt in range(attempts):
            if attempt:
                self.retries_total += 1
                telemetry.record("service_retries_total", op, last.code)
                await asyncio.sleep(delay * (0.5 + self._rng.random()))
                delay = min(delay * 2, DEFAULT_BACKOFF_CAP_S)
            try:
                return await self._attempt(op, fields, timeout_s)
            except (TransportError, DeadlineError) as exc:
                last = exc
        assert last is not None
        raise last

    async def request(self, op: str, *, timeout=_UNSET, **fields):
        response = await self._request_response(
            op, fields, timeout=timeout)
        return response.get("result")

    async def request_traced(self, op: str, *, timeout=_UNSET,
                             **fields):
        """Like :meth:`request` but returns ``(result, trace_id)``.

        The trace id is the server's echo — generated client-side when
        the caller supplied none.
        """
        response = await self._request_response(
            op, fields, timeout=timeout)
        return response.get("result"), response.get("trace")

    # Convenience verbs mirroring KeyExchangeService's API.

    async def keygen(self, tenant: str, seed, *, timeout=_UNSET) -> int:
        return await self.request("keygen", tenant=tenant, seed=seed,
                                  timeout=timeout)

    async def exchange(self, tenant: str, seed, peer: int,
                       *, validate: bool = True,
                       timeout=_UNSET) -> int:
        return await self.request("exchange", tenant=tenant, seed=seed,
                                  peer=peer, validate=validate,
                                  timeout=timeout)

    async def verify(self, tenant: str, public: int, *,
                     timeout=_UNSET) -> bool:
        return await self.request("verify", tenant=tenant,
                                  public=public, timeout=timeout)

    async def field_op(self, tenant: str, op: str, operands, *,
                       timeout=_UNSET) -> int:
        return await self.request("field_op", tenant=tenant,
                                  field_op=op, operands=list(operands),
                                  timeout=timeout)

    async def stats(self) -> dict:
        return await self.request("stats")

    async def ping(self) -> str:
        return await self.request("ping")

    async def _teardown(self) -> None:
        if self._pump is not None:
            self._pump.cancel()
            try:
                await self._pump
            except asyncio.CancelledError:
                pass
            self._pump = None
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except OSError:
                pass
            self._writer = None
        self._reader = None

    async def aclose(self) -> None:
        await self._teardown()
        self._host = self._port = None

    async def __aenter__(self) -> "ServiceClient":
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.aclose()
