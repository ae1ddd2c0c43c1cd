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

from repro import telemetry
from repro.errors import AdmissionError, ServiceError


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

