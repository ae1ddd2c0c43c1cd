"""A FieldContext whose arithmetic executes on the RV64 simulator.

Every ``mul``/``sqr``/``add``/``sub`` is carried out by the generated
assembly kernels of one implementation variant on the functional
simulator — turning a CSIDH run into an actual execution on the
(extended) core.  By default the kernels run on the aot engine
(:mod:`repro.rv64.aot`): each kernel's static trace is fused once into
limb-level wide-int arithmetic over the operand values — no
per-instruction statements, no memory marshalling — with its
precomputed cycle cost attached; each runner fuses its own thunk when it
is built, so that cost is always the current timing model's.  The aot
engine is bit- and cycle-identical to the interpreter (proven
operand-by-operand by ``tests/differential/``);
pass ``cross_check=True`` (or ``engine="interpreter"``) to route every
operation through the full interpreter and pipeline model instead —
``cross_check`` adds per-run golden-reference verification, the slow,
belt-and-braces mode for debugging new kernels or pipelines.

On aot, a field op calls its runner's entry thunk directly (the
*direct path*).  Every kernel is straight-line, so each run costs the
fused entry's static cost (:attr:`KernelRunner.static_cost`): the
context binds each runner's thunk with that cost
(:meth:`KernelRunner.direct_entry`), and a run the thunk serves is one
inlined call, which returns the value alone, and one added to the
slot's run count.  ``simulated_cycles`` and ``simulated_instructions``
are the runs times their static cost plus the measured cost of the
runs :meth:`KernelRunner.run` served; no
:class:`~repro.kernels.runner.KernelRun` is built.  An op reduces its
operands modulo ``p`` only when one lies outside ``[0, p)``: a
comparison costs less than the division, and operands almost always
arrive reduced.  While telemetry is on, an op books its runs like
``record_kernel_run`` (``mul``/``sqr`` their two ``fp_mul`` runs as one
event, ``runs=2``), through the slot's
:class:`~repro.telemetry.KernelBooking`, which resolves the span node
and counters once and reuses them until the span, trace, thread,
tracer or registry changes; while it is off, it calls
``telemetry.record_machine_run("aot")`` once per run.
:meth:`KernelRunner.run` is the one fallback and serves any run the
bound thunk cannot: the interpreter engine (and so ``cross_check``),
trace hooks on the machine or a fault hook on the runner (checked on
every run, so a hook attached mid-action takes effect at once), a
runner without a thunk or static cost, and a thunk that returns
``None`` (invalidated, operand out of range).  A runner whose thunk
was swapped (fault injection, recovery) is rebound at its next run.
Checked contexts take :meth:`_guarded`, where a checked runner's
sampled verification (``KernelRunner._sample``) runs on both paths, so
which run gets sampled does not depend on the path.

Callers can hand over whole vectors of operands at once:
``mul_batch`` / ``sqr_batch`` / ``add_batch`` / ``sub_batch`` are
loops over the scalar field ops, so a batch takes the direct path (and
a hardened context's checks) element by element, with the same
values, counters and cycle accounting as looping the scalar calls.

``checked=True`` selects the production hardening mode in between
(see ``docs/ROBUSTNESS.md``): execution stays on the aot engine
(without the inlined path),
but one in ``check_interval`` operations is cross-validated against a
pure-Python :class:`~repro.field.fp.FieldContext` reference (and each
runner additionally validates sampled kernel runs).  A divergence —
a bit flip, a poisoned trace, a corrupted runner — raises
:class:`~repro.errors.FaultDetectedError` and triggers *recovery*:
the poisoned runner is evicted from the registry pool, its static
trace and fused entry thunk invalidated, and the operation re-executed
on the interpreter
from a freshly built runner, bounded by ``max_recovery_attempts``.
If every attempt still diverges,
:class:`~repro.errors.RecoveryExhaustedError` is raised.

The kernels implement *Montgomery* multiplication (``a*b*R^-1``), while
the :class:`FieldContext` API is plain modular arithmetic; the adapter
hides the domain conversion by folding in ``R^2`` per multiplication.
That conversion is a second ``fp_mul`` run, so every ``mul`` *and*
every ``sqr`` costs two ``fp_mul`` runs (``fp_sqr`` never runs here):
it doubles the multiplier's share of host time, and the context's
simulated cycles obey ``2·(mul+sqr)·fp_mul + add·fp_add + sub·fp_sub``
to the cycle (``tests/differential/test_dynamic_equals_composed.py``).

Runners are pooled per (modulus, kernel, pipeline, checked, engine) via
:func:`repro.kernels.registry.cached_runner`, so constructing many
contexts — one per benchmark round, say — builds and fuses each
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


#: The runner slot of a context that each field operation runs on.
RUNNER_SLOTS = {"mul": "_mul", "sqr": "_mul", "add": "_add", "sub": "_sub"}

#: A bound slot's thunk while no direct call is allowed: never the
#: runner's thunk, so every run leaves the inlined path.
_REFUSED = object()


class _Bound:
    """A runner slot's direct path: the thunk bound to it (``seen`` is
    the runner's thunk when it was bound, ``thunk`` the one the ops may
    call, or :data:`_REFUSED`), the static cost of each run, the runs
    it served since it was bound, and where telemetry books them."""

    __slots__ = ("seen", "thunk", "cycles", "instructions", "runs",
                 "booking")

    def __init__(self) -> None:
        self.seen = None
        self.thunk = _REFUSED
        self.cycles = 0
        self.instructions = 0
        self.runs = 0
        self.booking = None


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
        # measured cost of the runs KernelRunner.run served, plus the
        # bound thunks' runs flushed at a rebind
        self._cycles = 0
        self._instructions = 0
        self._mul_bound = _Bound()
        self._add_bound = _Bound()
        self._sub_bound = _Bound()
        self._bounds = (self._mul_bound, self._add_bound, self._sub_bound)
        for runner, bound in zip((self._mul, self._add, self._sub),
                                 self._bounds):
            self._bind(runner, bound)
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

    def _bind(self, runner: KernelRunner, bound: _Bound) -> None:
        """Bind *runner*'s current thunk and static cost to *bound*,
        first booking the runs counted at the old cost."""
        self._cycles += bound.runs * bound.cycles
        self._instructions += bound.runs * bound.instructions
        bound.runs = 0
        bound.seen = runner._aot_thunk
        bound.booking = telemetry.KernelBooking(runner.kernel.name, "aot")
        entry = runner.direct_entry(self.engine)
        if entry is None:
            bound.thunk, bound.cycles, bound.instructions = _REFUSED, 0, 0
        else:
            bound.thunk, bound.cycles, bound.instructions = entry

    def _served(self, runner: KernelRunner, a: int, b: int,
                engine: str) -> int:
        """One kernel run ``(a, b)`` served by :meth:`KernelRunner.run`,
        its measured cost added to this context."""
        run = runner.run(a, b, check=self.cross_check, engine=engine)
        self._cycles += run.cycles
        self._instructions += run.instructions
        return run.value

    def _run(self, runner: KernelRunner, bound: _Bound, a: int, b: int,
             engine: str) -> int:
        """One kernel run ``(a, b)`` on *engine*, booked to this context
        and to telemetry: a counted call of the bound thunk (rebound
        first if the runner's thunk changed), or :meth:`_served` when
        the thunk cannot serve it."""
        if engine == "aot":
            if runner._aot_thunk is not bound.seen:
                self._bind(runner, bound)
            thunk = bound.thunk
            hardening = runner._hardening
            if (thunk is runner._aot_thunk and not runner.machine._trace_hooks
                    and (hardening is None or hardening.fault_hook is None)):
                value = thunk(a, b)
                if value is not None:
                    if hardening is not None:
                        runner._sample(hardening, (a, b), value,
                                       bound.cycles, "aot")
                    self._count(bound)
                    return value
        return self._served(runner, a, b, engine)

    @staticmethod
    def _count(bound: _Bound) -> None:
        """Count one run of *bound*'s thunk and book it to telemetry
        (the inlined ops do the same in place)."""
        bound.runs += 1
        if telemetry.TRACER.enabled:
            bound.booking.book(bound.cycles, bound.instructions)
        else:
            telemetry.record_machine_run("aot")

    def _product(self, a: int, b: int, engine: str) -> int:
        """``a*b mod p`` as ``mont(a, mont(b, R^2))``: two ``fp_mul``
        runs through :meth:`_run`."""
        runner = self._mul
        bound = self._mul_bound
        return self._run(runner, bound, a,
                         self._run(runner, bound, b, self._r2, engine),
                         engine)

    def _second_product_run(self, a: int, b_mont: int) -> int:
        """The unchecked product's second run when the thunk served the
        first but returned ``None`` for it: the first is booked alone
        and the second goes to :meth:`_served`."""
        self._count(self._mul_bound)
        return self._served(self._mul, a, b_mont, self.engine)

    @property
    def simulated_cycles(self) -> int:
        """Simulated cycles of every kernel run so far: the bound
        thunks' runs at their static cost plus the measured cycles of
        the runs :meth:`KernelRunner.run` served."""
        return self._cycles + sum(bound.runs * bound.cycles
                                  for bound in self._bounds)

    @property
    def simulated_instructions(self) -> int:
        """Retired instructions, accounted as :attr:`simulated_cycles`."""
        return self._instructions + sum(bound.runs * bound.instructions
                                        for bound in self._bounds)

    # -- the hardened execution path ----------------------------------------

    def _compute(self, operation: str, a: int, b: int, engine: str) -> int:
        """The kernel runs of one field *operation* (re-reading the
        runner slots, so a recovery swap takes effect)."""
        if operation == "add":
            return self._run(self._add, self._add_bound, a, b, engine)
        if operation == "sub":
            return self._run(self._sub, self._sub_bound, a, b, engine)
        return self._product(a, b, engine)

    def _expected(self, operation: str, a: int, b: int) -> int:
        """The pure-Python ground truth of one field *operation*."""
        reference = self._reference
        if operation == "add":
            return reference.add(a, b)
        if operation == "sub":
            return reference.sub(a, b)
        return reference.mul(a, b)

    def _guarded(self, operation: str, a: int, b: int) -> int:
        """Run *operation*; sample-check it; recover on divergence.

        Detection comes either from a runner's own checked mode
        (:class:`FaultDetectedError`, or a :class:`SimulationError`
        crash mid-kernel) or from this context-level sampled comparison
        with the pure-Python reference.
        """
        cfg = self._checked
        try:
            value = self._compute(operation, a, b, self.engine)
        except (FaultDetectedError, SimulationError) as exc:
            self.fault_detections += 1
            return self._recover(operation, a, b, exc)
        cfg.clock += 1
        if cfg.clock >= cfg.interval:
            cfg.clock = 0
            if value != self._expected(operation, a, b):
                self.fault_detections += 1
                telemetry.record("faults_detected_total", operation, "context")
                return self._recover(operation, a, b, None)
        return value

    def _rebuild(self, slot: str) -> None:
        """Replace the runner behind *slot* with a pristine one."""
        cfg = self._checked
        runner = getattr(self, slot)
        name = runner.kernel.name
        # drops the cached trace and the fused entry thunk
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

    def _recover(self, operation: str, a: int, b: int, cause):
        """Bounded retry-with-fallback after a detected fault."""
        cfg = self._checked
        for _attempt in range(cfg.max_attempts):
            self._rebuild(RUNNER_SLOTS[operation])
            try:
                # full re-execution
                value = self._compute(operation, a, b, "interpreter")
            except (FaultDetectedError, SimulationError):
                continue
            if value == self._expected(operation, a, b):
                self.fault_recoveries += 1
                telemetry.record("fault_recoveries_total", operation,
                                 "recovered")
                return value
        telemetry.record("fault_recoveries_total", operation, "exhausted")
        raise RecoveryExhaustedError(
            f"{operation} still diverged from the pure-Python "
            f"reference after {cfg.max_attempts} interpreter "
            f"re-executions on freshly built runners"
        ) from cause

    # -- field operations ----------------------------------------------------
    # On an unchecked context each op inlines its thunk calls: a run the
    # bound thunk serves costs one call and one count.  Anything else
    # (checked mode, the interpreter, hooks, a changed or refused thunk,
    # a ``None`` return) leaves through _guarded, _run or _served.

    def mul(self, a: int, b: int) -> int:
        self.counter.mul += 1
        p = self.p
        if not (0 <= a < p and 0 <= b < p):
            a %= p
            b %= p
        if self._checked is not None:
            return self._guarded("mul", a, b)
        runner = self._mul
        bound = self._mul_bound
        thunk = bound.thunk
        if (thunk is runner._aot_thunk and runner._hardening is None
                and not runner.machine._trace_hooks):
            b_mont = thunk(b, self._r2)
            if b_mont is not None:
                value = thunk(a, b_mont)
                if value is None:
                    return self._second_product_run(a, b_mont)
                bound.runs += 2
                if telemetry.TRACER.enabled:
                    bound.booking.book(2 * bound.cycles,
                                       2 * bound.instructions, 2)
                else:
                    telemetry.record_machine_run("aot")
                    telemetry.record_machine_run("aot")
                return value
        return self._product(a, b, self.engine)

    def sqr(self, a: int) -> int:
        self.counter.sqr += 1
        if not 0 <= a < self.p:
            a %= self.p
        if self._checked is not None:
            return self._guarded("sqr", a, a)
        runner = self._mul
        bound = self._mul_bound
        thunk = bound.thunk
        if (thunk is runner._aot_thunk and runner._hardening is None
                and not runner.machine._trace_hooks):
            a_mont = thunk(a, self._r2)
            if a_mont is not None:
                value = thunk(a, a_mont)
                if value is None:
                    return self._second_product_run(a, a_mont)
                bound.runs += 2
                if telemetry.TRACER.enabled:
                    bound.booking.book(2 * bound.cycles,
                                       2 * bound.instructions, 2)
                else:
                    telemetry.record_machine_run("aot")
                    telemetry.record_machine_run("aot")
                return value
        return self._product(a, a, self.engine)

    def add(self, a: int, b: int) -> int:
        self.counter.add += 1
        p = self.p
        if not (0 <= a < p and 0 <= b < p):
            a %= p
            b %= p
        if self._checked is not None:
            return self._guarded("add", a, b)
        runner = self._add
        bound = self._add_bound
        thunk = bound.thunk
        if (thunk is runner._aot_thunk and runner._hardening is None
                and not runner.machine._trace_hooks):
            value = thunk(a, b)
            if value is not None:
                bound.runs += 1
                if telemetry.TRACER.enabled:
                    bound.booking.book(bound.cycles, bound.instructions)
                else:
                    telemetry.record_machine_run("aot")
                return value
        return self._run(runner, bound, a, b, self.engine)

    def sub(self, a: int, b: int) -> int:
        self.counter.sub += 1
        p = self.p
        if not (0 <= a < p and 0 <= b < p):
            a %= p
            b %= p
        if self._checked is not None:
            return self._guarded("sub", a, b)
        runner = self._sub
        bound = self._sub_bound
        thunk = bound.thunk
        if (thunk is runner._aot_thunk and runner._hardening is None
                and not runner.machine._trace_hooks):
            value = thunk(a, b)
            if value is not None:
                bound.runs += 1
                if telemetry.TRACER.enabled:
                    bound.booking.book(bound.cycles, bound.instructions)
                else:
                    telemetry.record_machine_run("aot")
                return value
        return self._run(runner, bound, a, b, self.engine)

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
