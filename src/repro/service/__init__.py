"""Async multi-tenant key-exchange service layer (``docs/SERVICE.md``).

Public surface:

* :class:`KeyExchangeService` — concurrent keygen/exchange/verify
  sessions and coalesced field ops over the simulated kernel stack,
  all through one request pipeline: per-tenant runner isolation,
  admission control and the ``aot -> interpreter`` degradation
  ladder;
* :class:`TenantConfig` / :func:`default_tenant_configs` — tenant
  policy (engine preference, hardening, lanes, queue bounds);
* :class:`AdmissionController` — bounded-queue backpressure with the
  stable ``"admission"`` rejection code;
* :class:`RequestCoalescer` — one batch per operation per event-loop
  turn;
* :func:`start_server` / :class:`ServiceClient` — the JSON-lines TCP
  wire layer;
* :func:`run_load` / :func:`run_load_remote` / :class:`LoadReport` —
  the load harness behind ``repro load`` and the CI ``service-load``
  job (in-process, or over the wire against a live server).
"""

from repro.service.admission import (
    AdmissionController,
    CircuitBreaker,
    Ticket,
)
from repro.service.coalesce import RequestCoalescer
from repro.service.load import (
    LoadReport,
    expected_handshakes,
    run_load,
    run_load_remote,
)
from repro.service.server import FIELD_OPS, KeyExchangeService
from repro.service.tenancy import (
    ENGINE_LADDER,
    Lane,
    Tenant,
    TenantConfig,
    default_tenant_configs,
)
from repro.service.wire import ServiceClient, handle_connection, start_server

__all__ = [
    "ENGINE_LADDER",
    "FIELD_OPS",
    "AdmissionController",
    "CircuitBreaker",
    "KeyExchangeService",
    "Lane",
    "LoadReport",
    "RequestCoalescer",
    "ServiceClient",
    "Tenant",
    "TenantConfig",
    "Ticket",
    "default_tenant_configs",
    "expected_handshakes",
    "handle_connection",
    "run_load",
    "run_load_remote",
    "start_server",
]
