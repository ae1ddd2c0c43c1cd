"""Exception hierarchy for the repro package.

Every subsystem raises exceptions derived from :class:`ReproError`, so
callers can catch a single base class at the API boundary while tests can
assert on the precise failure mode.  Each class carries a stable,
machine-readable ``code`` string — CLI error reporting, telemetry labels
and the campaign report all key on ``code`` rather than on class names,
so renames stay non-breaking.  ``tests/test_errors.py`` asserts that
every exception defined anywhere in the package derives from
:class:`ReproError` and has a unique code: new subsystems extend this
hierarchy, they do not fork their own bases.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this package."""

    #: Stable machine-readable identifier for this failure mode.
    code = "repro"


class EncodingError(ReproError):
    """An instruction could not be encoded or decoded."""

    code = "encoding"


class AssemblerError(ReproError):
    """Malformed assembly source (bad mnemonic, operand, or label)."""

    code = "assembler"


class SimulationError(ReproError):
    """The simulator reached an illegal state (bad fetch, trap, limits)."""

    code = "simulation"


class MemoryAccessError(SimulationError):
    """An out-of-range, misaligned, or otherwise invalid memory access."""

    code = "memory_access"


class KernelError(ReproError):
    """A generated assembly kernel was misused or failed verification."""

    code = "kernel"


class ParameterError(ReproError):
    """Invalid cryptographic or micro-architectural parameters."""

    code = "parameter"


class ProtocolError(ReproError):
    """A CSIDH protocol-level failure (invalid public key, etc.)."""

    code = "protocol"


class FaultError(ReproError):
    """Misuse of the fault-injection subsystem (bad site, bad plan)."""

    code = "fault"


class FaultDetectedError(FaultError):
    """A checked execution diverged from its pure-Python reference.

    Raised by the ``checked`` mode of
    :class:`~repro.kernels.runner.KernelRunner` /
    :class:`~repro.field.simulated.SimulatedFieldContext` when a
    sampled cross-validation observes a wrong value or an impossible
    cycle count.  Catching it and re-executing on the interpreter is
    the recovery protocol (see ``docs/ROBUSTNESS.md``).
    """

    code = "fault_detected"


class ServiceError(ReproError):
    """A key-exchange service failure (unknown tenant, bad request,
    malformed wire message; see ``docs/SERVICE.md``)."""

    code = "service"


class AdmissionError(ServiceError):
    """A request was rejected by admission control.

    Raised (and reported over the wire with this stable ``code``) when
    a tenant's bounded queue — or the service-wide in-flight bound —
    is full.  Rejection is immediate and stateless: the request was
    never enqueued, so the client may safely retry after backoff.
    """

    code = "admission"


class DeadlineError(ServiceError):
    """A request ran out of its deadline budget.

    Raised (and reported over the wire with this stable ``code``) when
    a request's ``deadline`` budget expires — while still queued for a
    lane (the work is never started) or while executing (the response
    is withheld and the late work drains in the background).  The
    operations are stateless and idempotent, so the client may safely
    retry with the same idempotency key.
    """

    code = "deadline"


class TransportError(ServiceError):
    """A wire-level transport fault (client side, retryable).

    Raised by :class:`~repro.service.wire.ServiceClient` when the
    connection drops mid-request, a response frame fails its checksum,
    or no response arrives within the attempt budget.  Unlike the
    in-band service errors, a transport fault says nothing about the
    request's validity — the client retries it (same idempotency key)
    up to its retry budget before letting this error surface.
    """

    code = "transport"


class RegressionError(ReproError):
    """A benchmark trajectory regressed beyond the watchdog tolerance.

    Raised by :func:`repro.telemetry.watchdog.enforce` (and reported by
    ``repro watchdog`` with this stable ``code`` and exit status 1)
    when the latest run of a ``BENCH_*.json`` trajectory is slower, less
    throughput-y, or more cycle-hungry than its own baseline by more
    than the configured tolerance.
    """

    code = "regression"


class RecoveryExhaustedError(FaultError):
    """Bounded retry-with-fallback failed to restore a correct result.

    After a :class:`FaultDetectedError` the hardened execution layer
    evicts the poisoned runner, invalidates its static trace and
    re-executes on the interpreter; this error means every permitted
    attempt still diverged from the reference — state corruption is not
    transient, and the caller must treat the computation as lost.
    """

    code = "recovery_exhausted"
