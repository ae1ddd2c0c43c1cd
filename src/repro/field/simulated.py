"""A FieldContext whose arithmetic executes on the RV64 simulator.

Every ``mul``/``sqr``/``add``/``sub`` is carried out by the generated
assembly kernels of one implementation variant on the functional
simulator — turning a CSIDH run into an actual execution on the
(extended) core.  By default the kernels run on the aot engine
(:mod:`repro.rv64.aot`): each kernel's static trace is fused once into
limb-level wide-int arithmetic over the operand values — no
per-instruction statements, no memory marshalling — with its
precomputed cycle cost attached, and the fused thunk warm-starts from
the persistent on-disk artifact cache (:mod:`repro.rv64.artifacts`)
without re-tracing.  The aot engine is bit- and cycle-identical to the
interpreter (proven operand-by-operand by ``tests/differential/``);
pass ``cross_check=True`` (or ``engine="interpreter"``) to route every
operation through the full interpreter and pipeline model instead —
``cross_check`` adds per-run golden-reference verification, the slow,
belt-and-braces mode for debugging new kernels or pipelines.

On aot, a field op calls its runner's entry thunk directly (the
*direct path*): it adds the ``(value, cycles, instructions)`` the
thunk returns to the context and builds no
:class:`~repro.kernels.runner.KernelRun`; ``mul``/``sqr`` book their
two ``fp_mul`` runs as one telemetry event
(``record_kernel_run(..., runs=2)``).  :meth:`KernelRunner.run` is the
one fallback and serves any run the thunk cannot: the interpreter
engine (and so ``cross_check``), trace hooks on the machine, a fault
hook on the runner, a thunk that is missing, returns ``None``
(invalidated, operand out of range) or reports no cycle count.  A
checked runner's sampled verification (``KernelRunner._sample``) runs
on both paths, so which run gets sampled does not depend on the path.

Callers can hand over whole vectors of operands at once:
``mul_batch`` / ``sqr_batch`` / ``add_batch`` / ``sub_batch`` are
loops over the scalar field ops, so a batch takes the direct path (and
a hardened context's checks) element by element, with the same
values, counters and cycle accounting as looping the scalar calls.

``checked=True`` selects the production hardening mode in between
(see ``docs/ROBUSTNESS.md``): execution stays on the aot engine,
but one in ``check_interval`` operations is cross-validated against a
pure-Python :class:`~repro.field.fp.FieldContext` reference (and each
runner additionally validates sampled kernel runs).  A divergence —
a bit flip, a poisoned trace, a corrupted runner — raises
:class:`~repro.errors.FaultDetectedError` and triggers *recovery*:
the poisoned runner is evicted from the registry pool, its static
trace and fused entry thunk invalidated, and the operation re-executed
on the interpreter
from a freshly assembled runner, bounded by ``max_recovery_attempts``.
If every attempt still diverges,
:class:`~repro.errors.RecoveryExhaustedError` is raised.

The kernels implement *Montgomery* multiplication (``a*b*R^-1``), while
the :class:`FieldContext` API is plain modular arithmetic; the adapter
hides the domain conversion by folding in ``R^2`` per multiplication.
That conversion is a second ``fp_mul`` run, so every ``mul`` *and*
every ``sqr`` costs two ``fp_mul`` runs (``fp_sqr`` never runs here):
it doubles the multiplier's share of host time, and the context's
simulated cycles obey ``2·(mul+sqr)·fp_mul + add·fp_add + sub·fp_sub``
to the cycle.

Runners are pooled per (modulus, kernel, pipeline, checked, engine) via
:func:`repro.kernels.registry.cached_runner`, so constructing many
contexts — one per benchmark round, say — assembles and fuses each
kernel only once per process.
"""

from __future__ import annotations

from repro import telemetry
from repro.errors import (
    FaultDetectedError,
    KernelError,
    RecoveryExhaustedError,
    SimulationError,
)
from repro.field.counters import OpCounter
from repro.field.fp import FieldContext
from repro.kernels import registry
from repro.kernels.runner import DEFAULT_CHECK_INTERVAL, KernelRunner
from repro.kernels.spec import (
    OP_FP_ADD,
    OP_FP_MUL,
    OP_FP_SUB,
)
from repro.rv64.machine import ENGINES
from repro.rv64.pipeline import PipelineConfig, ROCKET_CONFIG

#: Default bound on interpreter re-executions after a detected fault.
DEFAULT_RECOVERY_ATTEMPTS = 2


class _CheckedConfig:
    """Sampling and retry knobs of a hardened context."""

    __slots__ = ("interval", "clock", "max_attempts")

    def __init__(self, interval: int, max_attempts: int) -> None:
        self.interval = max(1, int(interval))
        self.clock = 0
        self.max_attempts = max(1, int(max_attempts))


class SimulatedFieldContext(FieldContext):
    """F_p arithmetic executed by simulator-hosted assembly kernels."""

    def __init__(
        self,
        p: int,
        *,
        variant: str = "reduced.ise",
        counter: OpCounter | None = None,
        pipeline_config: PipelineConfig = ROCKET_CONFIG,
        cross_check: bool = False,
        engine: str | None = None,
        checked: bool = False,
        check_interval: int = DEFAULT_CHECK_INTERVAL,
        max_recovery_attempts: int = DEFAULT_RECOVERY_ATTEMPTS,
        scope: str = "",
    ) -> None:
        super().__init__(p, counter)
        self.variant = variant
        self.cross_check = cross_check
        #: Runner-pool confinement tag (see
        #: :func:`repro.kernels.registry.cached_runner`): contexts with
        #: different scopes never share simulator machines, which is
        #: what makes concurrent sessions on worker threads safe.
        self.scope = scope
        self._pipeline_config = pipeline_config
        # cross_check escapes to the interpreter and verifies every run
        # against the kernel's golden reference; the default runs fused
        # aot entry thunks (equivalence is covered by the differential
        # suite, so per-run re-verification would only re-prove it)
        if engine is None:
            engine = "interpreter" if cross_check else "aot"
        elif engine not in ENGINES:
            raise KernelError(
                f"unknown engine {engine!r}; expected one of {ENGINES}"
            )
        elif cross_check and engine != "interpreter":
            raise KernelError(
                "cross_check routes every operation through the "
                f"interpreter; engine={engine!r} conflicts"
            )
        self.engine = engine
        self._checked = (
            _CheckedConfig(check_interval, max_recovery_attempts)
            if checked else None
        )
        # pure-Python ground truth for sampled cross-validation and for
        # deciding whether a recovery attempt actually recovered
        self._reference = FieldContext(p) if checked else None

        self._mul = self._pooled_runner(OP_FP_MUL)
        self._add = self._pooled_runner(OP_FP_ADD)
        self._sub = self._pooled_runner(OP_FP_SUB)
        ctx = self._mul.kernel.context
        self._r2 = ctx.r2_mod_p
        self.simulated_instructions = 0
        self.simulated_cycles = 0
        #: Faults caught (and recoveries completed) by this context —
        #: the campaign layer classifies trial outcomes from these.
        self.fault_detections = 0
        self.fault_recoveries = 0

    @property
    def checked(self) -> bool:
        return self._checked is not None

    def _pooled_runner(self, operation: str) -> KernelRunner:
        cfg = self._checked
        return registry.cached_runner(
            self.p, f"{operation}.{self.variant}", self._pipeline_config,
            checked=cfg is not None,
            check_interval=cfg.interval if cfg is not None else None,
            engine=self.engine,
            scope=self.scope,
        )

    # -- kernel dispatch -----------------------------------------------------

    def _run(self, runner: KernelRunner, a: int, b: int,
             engine: str | None = None) -> int:
        """One kernel run ``(a, b)``, booked to this context and to
        telemetry: the direct call of the runner's thunk, or
        :meth:`KernelRunner.run` when the thunk cannot serve it."""
        if engine is None:
            engine = self.engine
        thunk = runner.direct_thunk(engine)
        if thunk is not None:
            out = thunk(a, b)
            if out is not None and out[1] is not None:
                value, cycles, instructions = out
                hardening = runner._hardening
                if hardening is not None:
                    runner._sample(hardening, (a, b), value, cycles, "aot")
                self.simulated_cycles += cycles
                self.simulated_instructions += instructions
                telemetry.record_kernel_run(runner.kernel.name, "aot", cycles,
                                            instructions)
                return value
        run = runner.run(a, b, check=self.cross_check, engine=engine)
        self.simulated_instructions += run.instructions
        self.simulated_cycles += run.cycles
        return run.value

    def _product(self, a: int, b: int, engine: str | None = None) -> int:
        """``a*b mod p`` as ``mont(a, mont(b, R^2))``: two ``fp_mul``
        runs, booked as one event when the thunk serves both.  When it
        serves only the first (the second returns no value or cycle
        count, or fails its sampled check), the first run is booked
        alone and the second goes to :meth:`_run` or raises."""
        runner = self._mul
        if engine is None:
            engine = self.engine
        thunk = runner.direct_thunk(engine)
        if thunk is not None:
            r2 = self._r2
            first = thunk(b, r2)
            if first is not None and first[1] is not None:
                b_mont, cycles, instructions = first
                hardening = runner._hardening
                if hardening is not None:
                    runner._sample(hardening, (b, r2), b_mont, cycles,
                                   "aot")
                second = thunk(a, b_mont)
                runs = 1
                try:
                    if second is not None and second[1] is not None:
                        if hardening is not None:
                            runner._sample(hardening, (a, b_mont),
                                           second[0], second[1], "aot")
                        cycles += second[1]
                        instructions += second[2]
                        runs = 2
                finally:
                    self.simulated_cycles += cycles
                    self.simulated_instructions += instructions
                    telemetry.record_kernel_run(runner.kernel.name, "aot",
                                                cycles, instructions, runs)
                if runs == 2:
                    return second[0]
                return self._run(runner, a, b_mont, engine)
        return self._run(runner, a, self._run(runner, b, self._r2, engine),
                         engine)

    # -- the hardened execution path ----------------------------------------

    def _guarded(self, operation, slots, compute, reference):
        """Run *compute*; sample-check it; recover on divergence.

        ``compute(engine)`` performs the kernel runs (re-reading the
        runner slots, so a recovery swap takes effect), ``reference()``
        is the pure-Python ground truth.  Detection comes either from a
        runner's own checked mode (:class:`FaultDetectedError`, or a
        :class:`SimulationError` crash mid-kernel) or from this
        context-level sampled comparison.
        """
        cfg = self._checked
        try:
            value = compute(self.engine)
        except (FaultDetectedError, SimulationError) as exc:
            self.fault_detections += 1
            return self._recover(operation, slots, compute, reference,
                                 exc)
        cfg.clock += 1
        if cfg.clock >= cfg.interval:
            cfg.clock = 0
            if value != reference():
                self.fault_detections += 1
                telemetry.record("faults_detected_total", operation, "context")
                return self._recover(operation, slots, compute,
                                     reference, None)
        return value

    def _rebuild(self, slots) -> None:
        """Replace the runners behind *slots* with pristine ones."""
        cfg = self._checked
        for slot in slots:
            runner = getattr(self, slot)
            name = runner.kernel.name
            # drops the cached trace, the fused entry thunk and the
            # entry's on-disk aot artifact
            runner.machine.invalidate_trace(runner.entry)
            registry.evict_runner(self.p, name, self._pipeline_config,
                                  checked=True, engine=self.engine,
                                  scope=self.scope)
            fresh = registry.cached_runner(
                self.p, name, self._pipeline_config,
                checked=True, check_interval=cfg.interval,
                engine=self.engine, scope=self.scope,
            )
            setattr(self, slot, fresh)

    def _recover(self, operation, slots, compute, reference, cause):
        """Bounded retry-with-fallback after a detected fault."""
        cfg = self._checked
        for _attempt in range(cfg.max_attempts):
            self._rebuild(slots)
            try:
                value = compute("interpreter")  # full re-execution
            except (FaultDetectedError, SimulationError):
                continue
            if value == reference():
                self.fault_recoveries += 1
                telemetry.record("fault_recoveries_total", operation,
                                 "recovered")
                return value
        telemetry.record("fault_recoveries_total", operation, "exhausted")
        raise RecoveryExhaustedError(
            f"{operation} still diverged from the pure-Python "
            f"reference after {cfg.max_attempts} interpreter "
            f"re-executions on freshly assembled runners"
        ) from cause

    # -- field operations ----------------------------------------------------

    def mul(self, a: int, b: int) -> int:
        self.counter.mul += 1
        a %= self.p
        b %= self.p
        if self._checked is None:
            return self._product(a, b)
        return self._guarded(
            "mul", ("_mul",),
            lambda engine: self._product(a, b, engine),
            lambda: self._reference.mul(a, b),
        )

    def sqr(self, a: int) -> int:
        self.counter.sqr += 1
        a %= self.p
        if self._checked is None:
            return self._product(a, a)
        return self._guarded(
            "sqr", ("_mul",),
            lambda engine: self._product(a, a, engine),
            lambda: self._reference.sqr(a),
        )

    def add(self, a: int, b: int) -> int:
        self.counter.add += 1
        a %= self.p
        b %= self.p
        if self._checked is None:
            return self._run(self._add, a, b)
        return self._guarded(
            "add", ("_add",),
            lambda engine: self._run(self._add, a, b, engine=engine),
            lambda: self._reference.add(a, b),
        )

    def sub(self, a: int, b: int) -> int:
        self.counter.sub += 1
        a %= self.p
        b %= self.p
        if self._checked is None:
            return self._run(self._sub, a, b)
        return self._guarded(
            "sub", ("_sub",),
            lambda engine: self._run(self._sub, a, b, engine=engine),
            lambda: self._reference.sub(a, b),
        )

    # -- batched field operations (the service's coalesced batches) ---------

    def mul_batch(self, pairs) -> list[int]:
        """Element-wise :meth:`mul` over ``[(a, b), ...]``."""
        return [self.mul(a, b) for a, b in pairs]

    def sqr_batch(self, values) -> list[int]:
        """Element-wise :meth:`sqr` over ``[a, ...]``."""
        return [self.sqr(a) for a in values]

    def add_batch(self, pairs) -> list[int]:
        """Element-wise :meth:`add` over ``[(a, b), ...]``."""
        return [self.add(a, b) for a, b in pairs]

    def sub_batch(self, pairs) -> list[int]:
        """Element-wise :meth:`sub` over ``[(a, b), ...]``."""
        return [self.sub(a, b) for a, b in pairs]
