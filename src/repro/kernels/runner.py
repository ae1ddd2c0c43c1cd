"""Execute generated kernels on the RV64 simulator and verify results.

:class:`KernelRunner` loads a kernel's program once (the one its
generator built, or ``source`` assembled when the kernel carries none:
a hand-written or replaced source), plants the field constants, and
then runs it on arbitrary operand values, returning the architectural
result together with the timing-model cycle count.  With
``check=True`` every run is compared against the kernel's golden
reference — the paper's correctness story ("constant-time Assembler
functions, which we wrote from scratch") reduced to machine-checked
equivalence.

Because every generated kernel is branch-free straight-line code, a
runner built with ``engine="aot"`` runs it as one fused Python function
(:mod:`repro.rv64.aot`): the kernel's static trace is fused into
wide-int arithmetic over the operand values.  Each runner fuses its own
thunk when it is built; nothing is stored across processes, so the
static cost a run books is always the one the current trace and timing
model computed.  The thunk is value-first: an aot run computes only the
result value, takes its cost from the fused entry's static cost
(:attr:`KernelRunner.static_cost`: every run of a straight-line trace
costs the same), and keeps its limbs as a deferred read-out that
recomputes them -- writing the register
file, ``pc`` and ``halted`` as the interpreter leaves them -- when
:attr:`KernelRun.limbs` is read.  Either way the
aot engine yields the bit-identical value, limbs and architectural
state and the identical cycle count (``tests/differential/`` proves
the equivalence for every kernel variant).  The thunk is the only aot
form: an aot request that it
cannot serve runs on the interpreter instead — an
:class:`~repro.rv64.aot.AotError` refusal (a non-straight-line program,
cache-enabled timing, ...), a runner built for the interpreter, a thunk
dropped by :meth:`~repro.rv64.machine.Machine.invalidate_trace`, or
attached trace hooks.  Each such demotion is counted once per run by
``aot_demotions_total{reason}``.

:meth:`KernelRunner.run` is the general entry point; the simulated
field's hot path (:class:`~repro.field.simulated.SimulatedFieldContext`)
binds the thunk and static cost that :meth:`KernelRunner.direct_entry`
hands out, calls the thunk itself and counts its runs, and falls back
to :meth:`~KernelRunner.run` for every run the thunk cannot serve.
Checked mode's sampling lives in :meth:`KernelRunner._sample`, which
both call.

:meth:`KernelRunner.run_batch` executes one kernel over many operand
sets in a single call; it is the scalar :meth:`KernelRunner.run` in a
loop, with every set's arity checked before the first run.
"""

from __future__ import annotations

import random
import struct
from dataclasses import FrozenInstanceError
from operator import itemgetter

from repro import telemetry
from repro.errors import FaultDetectedError, KernelError
from repro.kernels.layout import (
    ARG_A_ADDR,
    ARG_B_ADDR,
    CODE_BASE,
    CONST_BASE,
    ConstPoolLayout,
    RESULT_ADDR,
)
from repro.kernels.spec import Kernel
from repro.rv64.assembler import assemble
from repro.rv64.machine import DEFAULT_STACK_TOP, ENGINES, Machine
from repro.rv64.pipeline import PipelineConfig, PipelineModel, ROCKET_CONFIG
from repro.rv64.registers import register_index


def _decode_words(raw: bytes) -> tuple[int, ...]:
    """Little-endian 64-bit words of *raw* (a result-buffer read-out)."""
    return struct.unpack(f"<{len(raw) >> 3}Q", raw)


class KernelRun(tuple):
    """Result of one kernel execution (immutable).

    A frozen tuple, so the hot path builds one with a single
    ``tuple.__new__`` and a caller that keeps many runs keeps them
    compactly.  The result limbs are held in one of three forms, and
    ``limbs`` turns each into the same tuple of ints on access:

    * an interpreter run holds the raw little-endian bytes of the result
      buffer, decoded on access, as its only copy of the result: in
      place of the value it holds the kernel's radix, and ``value``
      recombines the decoded limbs on access;
    * a run built by hand (or unpickled) holds the tuple itself;
    * an aot run holds its *deferred read-out*, the entry thunk and the
      operands: reading ``limbs`` calls ``thunk(*operands, True)``, which
      recomputes the run, writes the register file, ``pc`` and
      ``halted`` the interpreter would leave, and returns the limbs.  A
      field op, which reads only ``value``, ``cycles`` and
      ``instructions``, never pays for them.

    Hand-built and aot runs keep their value.  Equality, hashing,
    ``repr`` and pickling go through ``value`` and ``limbs``, so all
    three forms compare alike; the tuple layout itself is private.
    """

    __slots__ = ()

    def __new__(cls, value: int, limbs, instructions: int,
                cycles: int) -> "KernelRun":
        return _new(cls, (value, instructions, cycles, limbs, None))

    @property
    def value(self) -> int:
        value = self[0]
        if type(value) is int:
            return value
        return value.from_limbs(_decode_words(self[3]))  # the radix

    instructions = property(itemgetter(1))
    cycles = property(itemgetter(2))

    @property
    def limbs(self) -> tuple[int, ...]:
        limbs = self[3]
        if type(limbs) is bytes:
            return _decode_words(limbs)
        operands = self[4]
        if operands is not None:  # the aot read-out
            return limbs(*operands, True)
        return limbs

    def _key(self) -> tuple:
        return (self.value, self.limbs, self[1], self[2])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()  # type: ignore[attr-defined]

    def __ne__(self, other: object) -> bool:
        equal = self.__eq__(other)
        return equal if equal is NotImplemented else not equal

    def __hash__(self) -> int:
        return hash(self._key())

    def _unordered(self, other: object):
        return NotImplemented

    __lt__ = __le__ = __gt__ = __ge__ = _unordered

    def __repr__(self) -> str:
        return (f"KernelRun(value={self.value!r}, limbs={self.limbs!r}, "
                f"instructions={self[1]!r}, cycles={self[2]!r})")

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return (KernelRun, self._key())

    @property
    def cpi(self) -> float:
        return self[2] / self[1] if self[1] else 0.0


_new = tuple.__new__


_ARG_ADDRESSES = (ARG_A_ADDR, ARG_B_ADDR)
_ARG_REGISTERS = ("a1", "a2")

#: Seed for the deterministic sample operands used when a kernel's
#: cycle count cannot be read off a compiled trace (cache-enabled
#: timing): every caller measures the same, reproducible execution.
STATIC_SAMPLE_SEED = 0

#: Default sampling interval of ``checked`` mode: one in this many runs
#: is cross-validated against the kernel's pure-Python reference (and
#: its cycle count against the straight-line baseline).
DEFAULT_CHECK_INTERVAL = 8


class _Hardening:
    """State of a runner's checked mode and fault-injection seam.

    Kept on a single nullable slot so the hot path of
    :meth:`KernelRunner.run` pays exactly one ``is None`` test while
    the whole feature is off (the same disabled-cost contract as
    telemetry; guarded by ``benchmarks/test_checked_overhead.py``).
    """

    __slots__ = ("enabled", "interval", "clock", "cycle_baseline",
                 "fault_hook")

    def __init__(self) -> None:
        self.enabled = False
        self.interval = DEFAULT_CHECK_INTERVAL
        self.clock = 0
        self.cycle_baseline: int | None = None
        self.fault_hook = None

    @property
    def active(self) -> bool:
        return self.enabled or self.fault_hook is not None


class KernelRunner:
    """Reusable executor for one kernel."""

    def __init__(
        self,
        kernel: Kernel,
        *,
        pipeline_config: PipelineConfig = ROCKET_CONFIG,
        schedule: bool = False,
        engine: str = "interpreter",
        checked: bool = False,
        check_interval: int = DEFAULT_CHECK_INTERVAL,
    ) -> None:
        if engine not in ENGINES:
            raise KernelError(
                f"unknown engine {engine!r}; expected one of {ENGINES}"
            )
        self.kernel = kernel
        self.engine = engine
        # hardening state (checked mode + fault-injection seam); None
        # keeps the disabled hot path at a single boolean test
        self._hardening: _Hardening | None = None
        program = kernel.program
        if program is None:  # hand-written or edited source
            program = assemble(kernel.source, kernel.isa)
        if schedule:
            # list-schedule the straight-line body (E10 ablation): the
            # paper's hand assembly interleaves independent MACs; this
            # pass approximates that optimisation mechanically
            from repro.analysis.schedule import schedule as _schedule

            program = _schedule(program.instructions, kernel.isa)
        self._static_size = 4 * len(program)
        self.machine = Machine(
            kernel.isa, pipeline=PipelineModel(pipeline_config)
        )
        self.entry = self.machine.load_program(program, CODE_BASE)
        self._write_const_pool()
        # (operand address, limbs, argument register) per operand,
        # resolved once for the thunk compiler and operand marshalling
        self._arg_plan = tuple(
            (address, limbs, register_index(reg))
            for limbs, address, reg in zip(
                kernel.input_limbs, _ARG_ADDRESSES, _ARG_REGISTERS
            )
        )
        self._result_reg = register_index("a0")
        # (cycles, instructions) of the last interpreter run; equal
        # counts reuse these int objects, so kept runs share them
        self._last_cost: tuple[int, int] | None = None
        # the fused entry thunk (operands in, value and static cost
        # out; limbs on read-out); None on interpreter runners and
        # refused kernels
        self._aot_thunk = None
        if engine == "aot":
            self._init_aot()
        if checked:
            self.enable_checked(check_interval)

    def _init_aot(self) -> None:
        """Fuse the aot entry thunk and bind it (constructor helper).

        A refusal leaves the runner without a thunk: its aot runs
        demote to the interpreter.
        """
        from time import perf_counter

        from repro.rv64.aot import AotError

        start = perf_counter()
        try:
            aot = self.fuse_entry()
        except AotError as exc:
            telemetry.record("aot_rejects_total", exc.reason)
            return
        telemetry.record("aot_compiles_total")
        telemetry.record("aot_compile_seconds",
                         value=perf_counter() - start)
        self.machine._aot_entry_cache[self.entry] = aot
        self._aot_thunk = aot.fn

    def fuse_entry(self, trace=None):
        """Fuse this runner's kernel into an aot entry thunk.

        Raises :class:`~repro.rv64.aot.AotError`.  *trace* overrides the
        machine's cached static trace; fault injection fuses a poisoned
        copy this way.
        """
        from repro.rv64.aot import compile_aot_entry

        kernel = self.kernel
        layout = ConstPoolLayout(kernel.context.radix.limbs)
        return compile_aot_entry(
            self.machine, self.entry,
            arg_plan=self._arg_plan,
            result_reg=self._result_reg,
            result_addr=RESULT_ADDR,
            out_limbs=kernel.output_limbs,
            radix=kernel.context.radix,
            const_window=(CONST_BASE, layout.size_bytes),
            stack_top=DEFAULT_STACK_TOP,
            trace=trace,
        )

    # -- hardened execution (checked mode + fault seam) ---------------------

    def _ensure_hardening(self) -> _Hardening:
        if self._hardening is None:
            self._hardening = _Hardening()
        return self._hardening

    def enable_checked(self, interval: int = DEFAULT_CHECK_INTERVAL) -> None:
        """Cross-validate one in *interval* runs against the reference.

        A sampled run's value is compared with the kernel's pure-Python
        reference and its cycle count with the straight-line baseline
        (primed here, from the healthy static trace, when available);
        divergence raises :class:`~repro.errors.FaultDetectedError`.
        """
        hardening = self._ensure_hardening()
        hardening.enabled = True
        hardening.interval = max(1, int(interval))
        if hardening.cycle_baseline is None:
            trace = self.machine._trace_for(self.entry)
            if trace is not None and trace.cycles is not None:
                hardening.cycle_baseline = trace.cycles

    def disable_checked(self) -> None:
        """Turn sampled cross-validation off again."""
        if self._hardening is not None:
            self._hardening.enabled = False
            if not self._hardening.active:
                self._hardening = None

    @property
    def checked(self) -> bool:
        return (self._hardening is not None
                and self._hardening.enabled)

    def set_fault_hook(self, hook) -> None:
        """Install *hook*: ``limbs -> limbs`` applied to every raw
        result read-out (the fault-injection seam used by
        :mod:`repro.fault.inject`; not a public extension point).  An
        aot run reads its limbs out eagerly while a hook is installed."""
        self._ensure_hardening().fault_hook = hook

    def clear_fault_hook(self) -> None:
        if self._hardening is not None:
            self._hardening.fault_hook = None
            if not self._hardening.active:
                self._hardening = None

    @property
    def static_cost(self) -> tuple[int, int] | None:
        """``(cycles, instructions)`` of each run the fused entry thunk
        serves, or ``None`` when there is no fused entry or its trace
        has no cycle count.  Straight-line code has data-independent
        timing, so the trace's precomputed cost is every run's cost."""
        aot = self.machine._aot_entry_cache.get(self.entry)
        if aot is None or aot.cycles is None:
            return None
        return aot.cycles, aot.instructions_retired

    def direct_entry(self, engine: str):
        """``(thunk, cycles, instructions)`` for a caller that runs
        *engine* runs itself and books each at the static cost, or
        ``None`` when :meth:`run` must serve every one: the
        interpreter, no thunk, or no static cost.  Per run, the caller
        must still hand the run to :meth:`run` while trace hooks or a
        fault hook are attached, when the runner's thunk is no longer
        the one bound, or when the thunk returns ``None``; and it must
        pass each run it books through :meth:`_sample` while the runner
        is hardened."""
        thunk = self._aot_thunk
        cost = self.static_cost
        if engine != "aot" or thunk is None or cost is None:
            return None
        return thunk, *cost

    def _sample(self, hardening: _Hardening, values, value: int, cycles,
                engine: str) -> None:
        """Checked mode's sampling clock: verify every ``interval``-th
        run (raises FaultDetectedError).  The one copy of the sampling
        logic: :meth:`run` and the direct field path
        (:class:`~repro.field.simulated.SimulatedFieldContext`) both
        call it, so which run gets sampled does not depend on the path
        that ran it."""
        if hardening.enabled:
            hardening.clock += 1
            if hardening.clock >= hardening.interval:
                hardening.clock = 0
                self._verify(values, value, cycles, engine)

    def _verify(self, values, value: int, cycles, engine: str) -> None:
        """Sampled checked-mode validation; raises FaultDetectedError."""
        kernel = self.kernel
        hardening = self._hardening
        telemetry.record("checked_runs_total", kernel.name)
        expected = kernel.reference(*values)
        if value != expected:
            telemetry.record("faults_detected_total", kernel.name, engine)
            raise FaultDetectedError(
                f"{kernel.name}: checked run diverged from the "
                f"pure-Python reference: got {value:#x}, expected "
                f"{expected:#x} for inputs {[hex(v) for v in values]}"
            )
        if cycles is not None:
            if hardening.cycle_baseline is None:
                hardening.cycle_baseline = cycles
            elif cycles != hardening.cycle_baseline:
                telemetry.record("faults_detected_total", kernel.name, engine)
                raise FaultDetectedError(
                    f"{kernel.name}: cycle count {cycles} != "
                    f"baseline {hardening.cycle_baseline} — impossible "
                    f"for straight-line code with data-independent "
                    f"timing; the fused entry thunk is suspect"
                )

    def _write_const_pool(self) -> None:
        ctx = self.kernel.context
        layout = ConstPoolLayout(ctx.radix.limbs)
        mem = self.machine.mem
        mem.store_words(CONST_BASE + layout.modulus_offset,
                        ctx.modulus_limbs)
        mem.store_u64(CONST_BASE + layout.n0_offset, ctx.n0_inv)
        mem.store_u64(CONST_BASE + layout.mask_offset, ctx.radix.mask)

    @property
    def code_bytes(self) -> int:
        """Static code size (after pseudo-expansion)."""
        return self._static_size

    def run(
        self,
        *values: int,
        check: bool = True,
        engine: str | None = None,
    ) -> KernelRun:
        """Execute the kernel on *values*; returns the result and cost.

        ``engine`` selects the execution engine (``None`` uses the
        constructor default).  Whatever the engine, the result is bit-
        and cycle-identical to the interpreter's, just cheaper to
        produce; an aot request that cannot be served exactly demotes
        to the interpreter.
        """
        kernel = self.kernel
        if len(values) != len(kernel.input_limbs):
            raise KernelError(
                f"{kernel.name} expects {len(kernel.input_limbs)} "
                f"operands, got {len(values)}"
            )
        radix = kernel.context.radix
        machine = self.machine
        if engine is None:
            engine = self.engine
        elif engine not in ENGINES:
            raise KernelError(
                f"unknown engine {engine!r}; expected one of {ENGINES}"
            )

        value = None
        if engine == "aot" and not machine._trace_hooks:
            # the fused thunk computes the result value directly from
            # the operand values; None if invalidate_trace dropped it or
            # an operand is out of range
            thunk = self._aot_thunk
            if thunk is not None:
                value = thunk(*values)
        if value is not None:
            cost = self.static_cost
            cycles, instructions = cost if cost is not None else (None, 0)
            # the limbs stay a deferred read-out of (thunk, operands)
            out_limbs = thunk
            operands = values
            ran = "aot"
        else:
            machine.reset()
            regs = machine.state.x
            for value, (address, limbs, reg_index) in zip(
                values, self._arg_plan
            ):
                # raises ParameterError on an out-of-range operand,
                # before any demotion is counted
                machine.mem.store_words(
                    address, radix.to_limbs(value, limbs=limbs))
                regs[reg_index] = address
            regs[self._result_reg] = RESULT_ADDR
            if engine == "aot":
                telemetry.record_aot_demotion(
                    "trace_hooks" if machine._trace_hooks
                    else "not_compilable")
            result = machine.run(self.entry)
            ran = "interpreter"
            cost = (result.cycles, result.instructions_retired)
            if cost != self._last_cost:
                self._last_cost = cost
            cycles, instructions = self._last_cost
            # one read of the result buffer; the run keeps these bytes
            out_limbs = machine.mem.read_bytes(
                RESULT_ADDR, 8 * kernel.output_limbs)
            operands = None
            value = radix.from_limbs(_decode_words(out_limbs))
        hardening = self._hardening
        if hardening is not None:  # disabled: one boolean test
            if hardening.fault_hook is not None:
                if operands is not None:
                    out_limbs = out_limbs(*operands, True)
                    operands = None
                elif type(out_limbs) is bytes:
                    out_limbs = _decode_words(out_limbs)
                out_limbs = tuple(hardening.fault_hook(out_limbs))
                value = radix.from_limbs(list(out_limbs))
            # raises FaultDetectedError on divergence, before the run
            # is recorded anywhere downstream
            self._sample(hardening, values, value, cycles, ran)
        if check:
            expected = kernel.reference(*values)
            if value != expected:
                telemetry.record("kernel_check_failures_total", kernel.name)
                raise KernelError(
                    f"{kernel.name} produced {value:#x}, "
                    f"expected {expected:#x} for inputs "
                    f"{[hex(v) for v in values]}"
                )
        if cycles is None:
            # a zero count would silently corrupt every downstream table
            raise KernelError(
                f"{kernel.name}: execution produced no cycle count "
                f"(the runner's machine lost its pipeline model)"
            )
        # ``ran`` reports the engine that actually ran (an aot request
        # can demote, e.g. when a profiler hook is attached)
        telemetry.record_kernel_run(kernel.name, ran, cycles, instructions)
        if type(out_limbs) is bytes:
            value = radix  # the bytes are the run's one copy of it
        return _new(KernelRun,
                    (value, instructions, cycles, out_limbs, operands))

    def run_batch(
        self,
        operand_sets,
        *,
        check: bool = True,
        engine: str | None = None,
    ) -> list[KernelRun]:
        """Execute the kernel once per operand set: exactly
        ``[self.run(*v, check=check, engine=engine) for v in
        operand_sets]``, after checking every set's arity and the
        engine up front."""
        kernel = self.kernel
        operand_sets = [tuple(values) for values in operand_sets]
        arity = len(kernel.input_limbs)
        for values in operand_sets:
            if len(values) != arity:
                raise KernelError(
                    f"{kernel.name} expects {arity} operands, "
                    f"got {len(values)}"
                )
        if engine is not None and engine not in ENGINES:
            raise KernelError(
                f"unknown engine {engine!r}; expected one of {ENGINES}"
            )
        return [self.run(*values, check=check, engine=engine)
                for values in operand_sets]

    def measure_cycles(self, *values: int) -> int:
        """Cycle count of one verified execution (timing is
        data-independent: the kernels are straight-line code)."""
        return self.run(*values).cycles

    def static_cycles(self) -> int:
        """Cycle count of one from-reset execution, without executing.

        Straight-line kernels have data-independent timing, so the
        static trace's precomputed cost *is* the cycle count; kernels
        that cannot be trace-compiled (e.g. cache-enabled timing
        configurations) fall back to one measured run on seeded sample
        operands.
        """
        trace = self.machine._trace_for(self.entry)
        if trace is not None and trace.cycles is not None:
            return trace.cycles
        sample = self.kernel.sampler(random.Random(STATIC_SAMPLE_SEED))
        return self.run(*sample, check=False).cycles


def run_kernel(
    kernel: Kernel,
    *values: int,
    pipeline_config: PipelineConfig = ROCKET_CONFIG,
    check: bool = True,
    engine: str = "interpreter",
) -> KernelRun:
    """One-shot convenience wrapper."""
    return KernelRunner(
        kernel, pipeline_config=pipeline_config, engine=engine,
    ).run(*values, check=check)
