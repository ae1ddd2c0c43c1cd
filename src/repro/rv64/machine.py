"""Functional RV64 machine: fetch-execute with optional timing.

The machine executes :class:`~repro.rv64.isa.Instruction` objects loaded
from an assembled program image.  A :class:`PipelineModel` may be
attached to produce cycle counts alongside the architectural execution;
the functional result never depends on the timing model.

Decoding happens before the run, once: the assembler resolves every
register operand to its index, and :meth:`Machine.load_program` pairs
each instruction with its spec and with the timing facts the spec's
format implies (:func:`~repro.rv64.isa.resolve_operands`): the tuple
of source-register indices and the destination register (0 for
none).  The image entry is ``(instruction, spec, sources, dest)``;
equal source tuples are shared, so the image costs about what the
instructions do.  The pipeline model resolves its latencies when it
is constructed.

A run retires first and times afterwards.  A step is a dictionary
fetch, the instruction's semantics on the register list (a load or
store within one page reads or writes that page in place, see
:mod:`repro.rv64.memory`), and one appended record: the image entry,
or ``(entry, pc, address)`` when the model's caches read those, plus a
``None`` marker after a taken branch.  The model times the pending
records in one pass (:meth:`PipelineModel.time_records`) when the run
ends, when it raises, and every :data:`TIME_EVERY` retired
instructions, so the statistics after a fault cover exactly the
instructions retired before it and the pending records stay bounded
under the step limit.  Latencies stay with the model, not the program
image, so replacing ``machine.pipeline`` after loading takes effect on
the next run.  The static trace (:mod:`repro.rv64.replay`), the
timeline and fault injection's write sites read the same
entries.

Execution terminates when the program counter reaches
:data:`HALT_ADDRESS` (the conventional return address planted in ``ra``
before calling a kernel), when an ``ebreak`` retires, or when the step
limit is exceeded (guarding against runaway programs).

The machine only interprets: it walks a program instruction by
instruction, times what it retired through the pipeline model, and is
the source of truth for every cycle count.  The aot engine lives one
layer up: a :class:`~repro.kernels.runner.KernelRunner` fuses a
straight-line kernel's static trace (:meth:`Machine._trace_for`) into
an entry thunk (:mod:`repro.rv64.aot`) that carries the trace's static
cycle cost and writes its architectural exit state back into this
machine.
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator

from repro import telemetry
from repro.errors import SimulationError
from repro.rv64.assembler import AssembledProgram
from repro.rv64.isa import (
    BASE_ISA,
    Instruction,
    InstrSpec,
    InstructionSet,
    resolve_operands,
)
from repro.rv64.memory import Memory
from repro.rv64.pipeline import PipelineModel
from repro.rv64.registers import RegisterFile

#: Jumping here ends the simulation (used as the kernel return address).
HALT_ADDRESS = 0x0000_0000_DEAD_0000

#: Default stack top for kernels that need scratch memory.
DEFAULT_STACK_TOP = 0x0000_0000_7FFF_F000

#: Retired-instruction records are timed in batches of at most this
#: many instructions, so a run under the 50 M step limit holds a
#: bounded amount of pending records.
TIME_EVERY = 4096

#: The execution engines a :class:`~repro.kernels.runner.KernelRunner`
#: serves, slowest to fastest: the interpreter (:meth:`Machine.run`)
#: and the fused aot entry thunk (:mod:`repro.rv64.aot`).
ENGINES = ("interpreter", "aot")

TraceHook = Callable[["MachineState", Instruction], None]


@dataclass
class ExecutionResult:
    """Summary of one :meth:`Machine.run` invocation."""

    instructions_retired: int
    cycles: int | None
    histogram: Counter[str] = field(default_factory=Counter)

    @property
    def cpi(self) -> float:
        if self.cycles is None or not self.instructions_retired:
            return 0.0
        return self.cycles / self.instructions_retired


class MachineState:
    """Architectural state shared with instruction semantics.

    ``x`` is the register file's backing list, indexed by register
    number: the built-in semantics read and write it with the operand
    indices fixed at assembly.  Custom semantics may equally use the
    name-accepting ``regs.read``/``regs.write``; both see one state.
    """

    __slots__ = (
        "regs", "x", "mem", "pc", "next_pc", "halted", "branch_taken",
        "last_address",
    )

    def __init__(self, mem: Memory | None = None) -> None:
        self.regs = RegisterFile()
        self.x = self.regs._regs
        self.mem = mem if mem is not None else Memory()
        self.pc = 0
        self.next_pc = 0
        self.halted = False
        self.branch_taken = False
        self.last_address: int | None = None


class Machine:
    """An RV64 hart executing a loaded program image."""

    def __init__(
        self,
        isa: InstructionSet = BASE_ISA,
        *,
        pipeline: PipelineModel | None = None,
        max_steps: int = 50_000_000,
    ) -> None:
        self.isa = isa
        self.state = MachineState()
        self.pipeline = pipeline
        self.max_steps = max_steps
        # pc -> (instruction, spec, source registers, destination)
        self._program: dict[
            int, tuple[Instruction, InstrSpec, tuple[int, ...], int]] = {}
        # the timing classes in the image, checked against the model
        # before a run executes anything
        self._kinds: set[str] = set()
        self._trace_hooks: list[TraceHook] = []
        self.collect_histogram = False
        self._histogram: Counter[str] = Counter()
        # static traces, the aot front end (see repro.rv64.replay)
        self._trace_cache: dict[int, object] = {}
        self._replay_rejected: set[int] = set()
        # KernelRunner entry thunks (see repro.rv64.aot); doubles as
        # their liveness guard (popping an entry disables its thunk)
        self._aot_entry_cache: dict[int, object] = {}

    # -- program management ------------------------------------------------

    def load_program(
        self,
        program: AssembledProgram | list[Instruction],
        base: int = 0x1000,
    ) -> int:
        """Load *program* at byte address *base*; returns the entry pc."""
        instructions = (
            program.instructions
            if isinstance(program, AssembledProgram)
            else program
        )
        isa = self.isa
        image = self._program
        # an instruction object the program repeats (the assembler and
        # the kernel builder share equal lines) is resolved once and
        # shares its entry
        entries: dict[int, tuple] = {}  # id(ins) -> entry, this call
        shared: dict[tuple[int, ...], tuple[int, ...]] = {}
        pc = base
        for ins in instructions:
            entry = entries.get(id(ins))
            if entry is None:
                spec = isa[ins.mnemonic]
                sources, dest = resolve_operands(spec, ins)
                entry = entries[id(ins)] = (
                    ins, spec, shared.setdefault(sources, sources), dest)
            image[pc] = entry
            pc += 4
        self._kinds = {entry[1].kind for entry in image.values()}
        self._trace_cache.clear()
        self._replay_rejected.clear()
        self._aot_entry_cache.clear()
        return base

    def program_extent(self) -> tuple[int, int]:
        """Return (lowest pc, byte size) of the loaded image."""
        if not self._program:
            return (0, 0)
        low = min(self._program)
        high = max(self._program)
        return low, high - low + 4

    def add_trace_hook(self, hook: TraceHook) -> None:
        """Register *hook* to observe every retired instruction.

        While any hook is attached, a runner's aot requests demote to
        the interpreter: a fused entry thunk has no per-instruction
        dispatch, so it cannot deliver per-instruction callbacks.
        """
        self._trace_hooks.append(hook)

    def remove_trace_hook(self, hook: TraceHook) -> None:
        """Detach a hook added with :meth:`add_trace_hook`."""
        self._trace_hooks.remove(hook)

    @contextmanager
    def trace_hook(self, hook: TraceHook) -> Iterator[TraceHook]:
        """Scoped hook attachment: detached on block exit even if the
        run raises (the recommended profiling idiom)."""
        self.add_trace_hook(hook)
        try:
            yield hook
        finally:
            self.remove_trace_hook(hook)

    # -- convenience register/memory access ---------------------------------

    @property
    def regs(self) -> RegisterFile:
        return self.state.regs

    @property
    def mem(self) -> Memory:
        return self.state.mem

    def reset(self) -> None:
        """Clear registers, halt flag and timing state (memory persists)."""
        self.state.regs.reset()
        self.state.halted = False
        self.state.pc = 0
        self._histogram.clear()
        if self.pipeline:
            self.pipeline.reset()

    # -- execution -----------------------------------------------------------

    def run(
        self,
        entry: int,
        *,
        setup_return: bool = True,
        stack_top: int = DEFAULT_STACK_TOP,
    ) -> ExecutionResult:
        """Run from *entry* until halt; returns retired-instruction stats.

        If *setup_return* is true, ``ra`` is pointed at
        :data:`HALT_ADDRESS` and ``sp`` at *stack_top*, so a trailing
        ``ret`` ends the simulation — the calling convention used by all
        generated kernels.  A timing class the model has no latency for
        raises :class:`~repro.errors.ParameterError` before anything
        runs.
        """
        if self.pipeline is not None:
            self.pipeline.check_kinds(self._kinds)
        state = self.state
        if setup_return:
            state.regs.write("ra", HALT_ADDRESS)
            state.regs.write("sp", stack_top)
        state.halted = False

        program = self._program
        pipeline = self.pipeline
        # what the model reads per retired instruction: the image entry,
        # with the pc and memory address only when its caches read them
        detailed = pipeline is not None and pipeline.reads_addresses
        pending: list = []
        record = pending.append
        hooks = self._trace_hooks
        histogram = self._histogram if self.collect_histogram else None

        retired = 0
        limit = self.max_steps
        # the step limit and the next timing pass share one check
        due = min(TIME_EVERY, limit + 1)
        pc = state.pc = entry
        try:
            while pc != HALT_ADDRESS:
                try:
                    image_entry = program[pc]
                except KeyError:
                    raise SimulationError(
                        f"fetch from unmapped address {pc:#x} "
                        f"after {retired} instructions"
                    ) from None
                ins, spec, _sources, _dest = image_entry
                state.next_pc = pc + 4
                state.branch_taken = False
                state.last_address = None

                spec.execute(state, ins)

                # the record format of PipelineModel.time_records
                record((image_entry, pc, state.last_address) if detailed
                       else image_entry)
                if state.branch_taken:
                    record(None)
                if histogram is not None:
                    histogram[ins.mnemonic] += 1
                if hooks:
                    for hook in hooks:
                        hook(state, ins)

                pc = state.pc = state.next_pc
                retired += 1
                if retired >= due:
                    if retired > limit:
                        raise SimulationError(
                            f"step limit {limit} exceeded at pc {pc:#x}"
                        )
                    due = min(retired + TIME_EVERY, limit + 1)
                    batch, pending = pending, []
                    record = pending.append
                    if pipeline is not None:
                        pipeline.time_records(batch)
                if state.halted:
                    break
        finally:
            # also when the run raises: the stats then cover exactly
            # the instructions retired before the fault
            if pipeline is not None and pending:
                pipeline.time_records(pending)

        telemetry.record_machine_run("interpreter")
        return ExecutionResult(
            instructions_retired=retired,
            cycles=pipeline.cycles if pipeline else None,
            histogram=Counter(self._histogram),
        )

    # -- static traces -------------------------------------------------------

    def _trace_for(self, entry: int):
        """Compile (once) and cache the static trace for *entry*."""
        trace = self._trace_cache.get(entry)
        if trace is None and entry not in self._replay_rejected:
            from repro.rv64.replay import ReplayError, compile_trace

            try:
                trace = compile_trace(self, entry)
            except ReplayError as exc:
                telemetry.record("trace_rejects_total", exc.reason)
                self._replay_rejected.add(entry)
                return None
            telemetry.record("trace_compiles_total")
            self._trace_cache[entry] = trace
        return trace

    def invalidate_trace(self, entry: int) -> bool:
        """Drop the cached static trace for *entry*; returns whether one
        was cached.

        This is the recovery primitive of the hardened execution layer
        (see ``docs/ROBUSTNESS.md``): a trace suspected of corruption is
        invalidated, and the next lookup recompiles it from the
        (immutable) program image.  The fused entry thunk is dropped
        alongside the trace — it was generated *from* the suspect
        trace.  Nothing is re-fused here:
        the invalidated runner serves its aot requests from the
        interpreter, and recovery replaces it in the runner pool with a
        freshly built one.  A previous trace rejection is also
        forgotten, so a once-refused entry gets re-examined.
        """
        self._replay_rejected.discard(entry)
        if self._aot_entry_cache.pop(entry, None) is not None:
            telemetry.record("aot_evictions_total")
        removed = self._trace_cache.pop(entry, None) is not None
        if removed:
            telemetry.record("trace_invalidations_total")
        return removed
