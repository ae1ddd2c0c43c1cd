"""Admission control: bounded per-tenant queues, stateless rejection.

The controller is the service's backpressure valve.  Every request
must acquire a :class:`Ticket` before it may wait for a lane; a tenant
whose ``lanes + max_queue`` bound is full gets an immediate
:class:`~repro.errors.AdmissionError` — stable error code
``"admission"`` — and leaves **no** state behind, so clients can retry
after backoff without leaking queue slots.

The bookkeeping is deliberately synchronous and lock-protected (plain
integers under one mutex) rather than asyncio-native: the service
calls it from the event loop, tests hammer it from threads and
Hypothesis drives it with random interleavings
(``tests/service/test_admission.py``), and the same object serves all
three.  Two invariants hold at every instant:

* ``0 <= inflight(tenant) <= capacity(tenant)`` — admissions beyond
  the bound are rejected, releases below zero are impossible;
* every admit is balanced by exactly one release (the ticket is a
  context manager and ``release()`` is idempotent), so a crashed
  request cannot strand capacity.
"""

from __future__ import annotations

import threading
import time
from typing import Callable

from repro import telemetry
from repro.errors import AdmissionError, CircuitOpenError, ServiceError

#: ``circuit_state`` gauge encoding of the breaker states.
CIRCUIT_STATES = {"closed": 0, "open": 1, "half_open": 2}


class Ticket:
    """One admitted request's claim on queue capacity."""

    __slots__ = ("_controller", "_tenant", "_released")

    def __init__(self, controller: "AdmissionController",
                 tenant: str) -> None:
        self._controller = controller
        self._tenant = tenant
        self._released = False

    @property
    def tenant(self) -> str:
        return self._tenant

    def release(self) -> None:
        """Give the capacity back (idempotent)."""
        if self._released:
            return
        self._released = True
        self._controller._release(self._tenant)

    def __enter__(self) -> "Ticket":
        return self

    def __exit__(self, *exc_info: object) -> bool:
        self.release()
        return False


class AdmissionController:
    """Bounded in-flight counters, one per tenant."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._capacity: dict[str, int] = {}
        self._inflight: dict[str, int] = {}
        self._rejected: dict[str, int] = {}

    def configure(self, tenant: str, capacity: int) -> None:
        """Set (or re-set) *tenant*'s admission capacity."""
        if capacity < 1:
            raise ServiceError(
                f"tenant {tenant!r}: capacity must be positive "
                f"(got {capacity})")
        with self._lock:
            self._capacity[tenant] = capacity
            self._inflight.setdefault(tenant, 0)

    def admit(self, tenant: str) -> Ticket:
        """Claim one slot for *tenant* or raise :class:`AdmissionError`.

        The raised error's ``code`` is the stable ``"admission"``.
        """
        with self._lock:
            capacity = self._capacity.get(tenant)
            if capacity is None:
                raise ServiceError(f"unknown tenant {tenant!r}")
            inflight = self._inflight[tenant]
            if inflight < capacity:
                self._inflight[tenant] = inflight + 1
                telemetry.record("service_inflight", tenant,
                                 value=inflight + 1)
                return Ticket(self, tenant)
            self._rejected[tenant] = self._rejected.get(tenant, 0) + 1
        telemetry.record("service_rejections_total", tenant,
                         "tenant_queue_full")
        raise AdmissionError(
            f"request for tenant {tenant!r} rejected "
            f"(tenant_queue_full): {inflight}/{capacity} tenant slots "
            f"in use")

    def _release(self, tenant: str) -> None:
        with self._lock:
            inflight = self._inflight.get(tenant, 0)
            if inflight <= 0:  # defensive: double release is a bug
                raise ServiceError(
                    f"release without admit for tenant {tenant!r}")
            self._inflight[tenant] = inflight - 1
            telemetry.record("service_inflight", tenant,
                             value=inflight - 1)

    # -- introspection -------------------------------------------------------

    def inflight(self, tenant: str) -> int:
        with self._lock:
            return self._inflight.get(tenant, 0)

    def total_inflight(self) -> int:
        with self._lock:
            return sum(self._inflight.values())

    def rejected(self, tenant: str) -> int:
        """Total admission rejections for *tenant* (for ``stats``)."""
        with self._lock:
            return self._rejected.get(tenant, 0)

    def total_rejected(self) -> int:
        with self._lock:
            return sum(self._rejected.values())

    def capacity(self, tenant: str) -> int:
        with self._lock:
            capacity = self._capacity.get(tenant)
        if capacity is None:
            raise ServiceError(f"unknown tenant {tenant!r}")
        return capacity


class CircuitBreaker:
    """Per-tenant circuit breaker layered above admission control.

    The admission controller bounds *queued* work; the breaker bounds
    *doomed* work.  A run of ``failure_threshold`` consecutive
    execution failures opens a tenant's circuit, and until
    ``reset_timeout_s`` elapses every request is rejected immediately
    with :class:`~repro.errors.CircuitOpenError` (stable code
    ``circuit_open``) — the tenant's backlog stops absorbing lanes a
    broken backend cannot serve.  After the cool-down the circuit goes
    ``half_open``: exactly one probe request is admitted, and its
    outcome closes the circuit (success) or re-opens it for another
    cool-down (failure).  Concurrent requests during the probe are
    rejected like the open state.

    Same concurrency contract as :class:`AdmissionController`: plain
    state under one mutex, callable from the event loop and from
    threads.  The clock is injectable so tests never sleep.
    """

    STATES = ("closed", "open", "half_open")

    def __init__(self, *, failure_threshold: int = 5,
                 reset_timeout_s: float = 30.0,
                 clock: Callable[[], float] = time.monotonic) -> None:
        if failure_threshold < 1:
            raise ServiceError(
                "failure_threshold must be positive "
                f"(got {failure_threshold})")
        if reset_timeout_s <= 0:
            raise ServiceError(
                f"reset_timeout_s must be positive (got {reset_timeout_s})")
        self._lock = threading.Lock()
        self._clock = clock
        self._threshold = failure_threshold
        self._reset_timeout_s = reset_timeout_s
        self._state: dict[str, str] = {}
        self._failures: dict[str, int] = {}
        self._opened_at: dict[str, float] = {}
        self._probing: dict[str, bool] = {}
        self._rejected: dict[str, int] = {}

    def configure(self, tenant: str) -> None:
        """Register *tenant* with a closed circuit."""
        with self._lock:
            self._state.setdefault(tenant, "closed")
            self._failures.setdefault(tenant, 0)
        telemetry.record("circuit_state", tenant,
                         value=CIRCUIT_STATES[self.state(tenant)])

    def _set_state(self, tenant: str, state: str) -> None:
        # caller holds self._lock
        self._state[tenant] = state
        if state == "open":
            self._opened_at[tenant] = self._clock()
        if state != "half_open":
            self._probing[tenant] = False

    def check(self, tenant: str) -> None:
        """Admit one request or raise :class:`CircuitOpenError`.

        In the ``open`` state requests are rejected until the reset
        timeout has elapsed, at which point the circuit transitions to
        ``half_open`` and this call admits the single probe.  While the
        probe is outstanding, further requests are rejected.
        """
        transition = None
        with self._lock:
            state = self._state.get(tenant, "closed")
            if state == "open":
                elapsed = self._clock() - self._opened_at.get(tenant, 0.0)
                if elapsed >= self._reset_timeout_s:
                    self._set_state(tenant, "half_open")
                    self._probing[tenant] = True
                    transition = "half_open"
                    state = "half_open"
                else:
                    self._rejected[tenant] = (
                        self._rejected.get(tenant, 0) + 1)
                    state = "rejected"
            elif state == "half_open":
                if self._probing.get(tenant, False):
                    self._rejected[tenant] = (
                        self._rejected.get(tenant, 0) + 1)
                    state = "rejected"
                else:
                    self._probing[tenant] = True
        if transition is not None:
            telemetry.record("circuit_state", tenant,
                             value=CIRCUIT_STATES[transition])
        if state == "rejected":
            telemetry.record("service_rejections_total", tenant,
                             "circuit_open")
            raise CircuitOpenError(
                f"circuit for tenant {tenant!r} is open; retry after "
                f"{self._reset_timeout_s:g}s cool-down")

    def record(self, tenant: str, ok: bool | None) -> None:
        """Feed one execution outcome back into the state machine.

        ``ok=None`` is **neutral** evidence (an admission rejection or
        a caller-fault validation error says nothing about backend
        health): it releases a half-open probe so the next request can
        probe again, and leaves the failure streak untouched.
        """
        transition = None
        with self._lock:
            state = self._state.get(tenant, "closed")
            if state == "half_open":
                # the probe's outcome decides the circuit's fate
                self._probing[tenant] = False
                if ok is None:
                    pass  # next request becomes the new probe
                elif ok:
                    self._failures[tenant] = 0
                    self._set_state(tenant, "closed")
                    transition = "closed"
                else:
                    self._set_state(tenant, "open")
                    transition = "open"
            elif state == "closed":
                if ok is None:
                    pass
                elif ok:
                    self._failures[tenant] = 0
                else:
                    failures = self._failures.get(tenant, 0) + 1
                    self._failures[tenant] = failures
                    if failures >= self._threshold:
                        self._set_state(tenant, "open")
                        transition = "open"
            # outcomes arriving while open (late work from before the
            # trip) carry no information: the circuit waits its timer.
        if transition is not None:
            telemetry.record("circuit_state", tenant,
                             value=CIRCUIT_STATES[transition])

    # -- introspection -------------------------------------------------------

    def state(self, tenant: str) -> str:
        with self._lock:
            return self._state.get(tenant, "closed")

    def states(self) -> dict[str, str]:
        with self._lock:
            return dict(self._state)

    def rejected(self, tenant: str) -> int:
        with self._lock:
            return self._rejected.get(tenant, 0)

    def consecutive_failures(self, tenant: str) -> int:
        with self._lock:
            return self._failures.get(tenant, 0)
