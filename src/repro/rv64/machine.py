"""Functional RV64 machine: fetch-decode-execute with optional timing.

The machine executes :class:`~repro.rv64.isa.Instruction` objects loaded
from an assembled program image.  A :class:`PipelineModel` may be
attached to produce cycle counts alongside the architectural execution;
the functional result never depends on the timing model.

Execution terminates when the program counter reaches
:data:`HALT_ADDRESS` (the conventional return address planted in ``ra``
before calling a kernel), when an ``ebreak`` retires, or when the step
limit is exceeded (guarding against runaway programs).

Two engines run a program (:data:`ENGINES`).  The interpreter walks it
instruction by instruction through the pipeline model and is the source
of truth for every cycle count.  The aot engine (:mod:`repro.rv64.aot`)
runs straight-line programs as one fused Python function with the
trace's static cycle cost attached; it demotes to the interpreter
whenever that cannot be exact.
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Iterator

from repro import telemetry
from repro.errors import SimulationError
from repro.rv64.assembler import AssembledProgram
from repro.rv64.isa import BASE_ISA, Instruction, InstructionSet
from repro.rv64.memory import Memory
from repro.rv64.pipeline import PipelineModel
from repro.rv64.registers import RegisterFile

#: Jumping here ends the simulation (used as the kernel return address).
HALT_ADDRESS = 0x0000_0000_DEAD_0000

#: Default stack top for kernels that need scratch memory.
DEFAULT_STACK_TOP = 0x0000_0000_7FFF_F000

#: The execution engines of :meth:`Machine.run`, slowest to fastest.
ENGINES = ("interpreter", "aot")

TraceHook = Callable[["MachineState", Instruction], None]


@dataclass
class ExecutionResult:
    """Summary of one :meth:`Machine.run` invocation.

    ``engine`` names the execution engine that *actually* ran — one of
    :data:`ENGINES` — which matters because a requested aot run
    silently demotes to the interpreter when exactness cannot be
    guaranteed (trace hooks attached, a program that does not fuse,
    ``setup_return=False``).
    Telemetry and profiling must consume this field rather than echo
    the request.
    """

    instructions_retired: int
    cycles: int | None
    histogram: Counter[str] = field(default_factory=Counter)
    engine: str = "interpreter"

    @property
    def cpi(self) -> float:
        if self.cycles is None or not self.instructions_retired:
            return 0.0
        return self.cycles / self.instructions_retired


class MachineState:
    """Architectural state shared with instruction semantics."""

    __slots__ = (
        "regs", "mem", "pc", "next_pc", "halted", "branch_taken",
        "last_address",
    )

    def __init__(self, mem: Memory | None = None) -> None:
        self.regs = RegisterFile()
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
        self._program: dict[int, tuple[Instruction, object]] = {}
        self._trace_hooks: list[TraceHook] = []
        self.collect_histogram = False
        self._histogram: Counter[str] = Counter()
        # static traces, the aot front end (see repro.rv64.replay)
        self._trace_cache: dict[int, object] = {}
        self._replay_rejected: set[int] = set()
        # whole-kernel aot caches (see repro.rv64.aot):
        # _aot_cache holds machine-level AotFunctions for run();
        # _aot_entry_cache holds KernelRunner entry thunks and doubles
        # as their liveness guard (popping an entry disables its thunk)
        self._aot_cache: dict[int, object] = {}
        self._aot_rejected: set[int] = set()
        self._aot_entry_cache: dict[int, object] = {}
        # on-disk artifact identity for the entry hosted by this
        # machine, set by KernelRunner so invalidate_trace can drop
        # the persisted copy too (see repro.rv64.artifacts)
        self.aot_disk_key = None

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
        for index, ins in enumerate(instructions):
            spec = self.isa[ins.mnemonic]
            self._program[base + 4 * index] = (ins, spec)
        self._trace_cache.clear()
        self._replay_rejected.clear()
        self._aot_cache.clear()
        self._aot_rejected.clear()
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

        While any hook is attached, ``run(engine="aot")`` falls back to
        the interpreter: a fused function has no per-instruction
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
        engine: str = "interpreter",
    ) -> ExecutionResult:
        """Run from *entry* until halt; returns retired-instruction stats.

        If *setup_return* is true, ``ra`` is pointed at
        :data:`HALT_ADDRESS` and ``sp`` at *stack_top*, so a trailing
        ``ret`` ends the simulation — the calling convention used by all
        generated kernels.

        ``engine`` selects the execution engine (one of
        :data:`ENGINES`).  ``"aot"`` runs the whole program as one fused
        function (see :mod:`repro.rv64.aot`): the architectural result
        and the reported cycle count are identical to the interpreter's
        for a run from :meth:`reset` (the cycle cost of straight-line
        code is a static property of its trace, so the attached
        pipeline model is left untouched).  It silently demotes to the
        interpreter whenever exactness cannot be guaranteed — internal
        control flow, trace hooks, cache-enabled timing,
        ``setup_return=False``, a codegen refusal; the result's
        ``engine`` field reports what actually ran.
        """
        if engine not in ENGINES:
            raise SimulationError(
                f"unknown engine {engine!r}; expected one of {ENGINES}"
            )
        if engine == "aot":
            if self._trace_hooks:
                telemetry.record_aot_demotion("trace_hooks")
            elif not setup_return:
                telemetry.record_aot_demotion("no_setup_return")
            else:
                aotfn = self._aot_for(entry)
                if aotfn is not None:
                    return self._run_aot(aotfn, stack_top)
                telemetry.record_aot_demotion("not_compilable")
        state = self.state
        if setup_return:
            state.regs.write("ra", HALT_ADDRESS)
            state.regs.write("sp", stack_top)
        state.pc = entry
        state.halted = False

        program = self._program
        pipeline = self.pipeline
        hooks = self._trace_hooks
        histogram = self._histogram if self.collect_histogram else None

        retired = 0
        limit = self.max_steps
        while not state.halted:
            pc = state.pc
            if pc == HALT_ADDRESS:
                break
            entry_pair = program.get(pc)
            if entry_pair is None:
                raise SimulationError(
                    f"fetch from unmapped address {pc:#x} "
                    f"after {retired} instructions"
                )
            ins, spec = entry_pair
            state.next_pc = pc + 4
            state.branch_taken = False
            state.last_address = None

            spec.execute(state, ins)  # type: ignore[attr-defined]

            if pipeline is not None:
                pipeline.issue(
                    spec,  # type: ignore[arg-type]
                    ins,
                    pc=pc,
                    mem_address=state.last_address,
                    branch_taken=state.branch_taken,
                )
            if histogram is not None:
                histogram[ins.mnemonic] += 1
            if hooks:
                for hook in hooks:
                    hook(state, ins)

            state.pc = state.next_pc
            retired += 1
            if retired > limit:
                raise SimulationError(
                    f"step limit {limit} exceeded at pc {state.pc:#x}"
                )

        telemetry.record_machine_run("interpreter")
        return ExecutionResult(
            instructions_retired=retired,
            cycles=pipeline.cycles if pipeline else None,
            histogram=Counter(self._histogram),
            engine="interpreter",
        )

    # -- static traces and fused functions -----------------------------------

    def _trace_for(self, entry: int):
        """Compile (once) and cache the static trace for *entry*."""
        trace = self._trace_cache.get(entry)
        if trace is None and entry not in self._replay_rejected:
            from repro.rv64.replay import ReplayError, compile_trace

            try:
                trace = compile_trace(self, entry)
            except ReplayError as exc:
                telemetry.record_trace_reject(exc.reason)
                self._replay_rejected.add(entry)
                return None
            telemetry.record_trace_compile()
            self._trace_cache[entry] = trace
        return trace

    def _aot_for(self, entry: int):
        """Compile (once) and cache the fused aot function for *entry*."""
        aotfn = self._aot_cache.get(entry)
        if aotfn is not None:
            telemetry.record_aot_cache_hit()
            return aotfn
        if entry in self._aot_rejected:
            return None
        from repro.rv64.aot import AotError, compile_aot

        start = perf_counter()
        try:
            aotfn = compile_aot(self, entry)
        except AotError as exc:
            telemetry.record_aot_reject(exc.reason)
            self._aot_rejected.add(entry)
            return None
        telemetry.record_aot_compile(perf_counter() - start)
        self._aot_cache[entry] = aotfn
        return aotfn

    def aot_supported(self, entry: int) -> bool:
        """Whether the program at *entry* fuses into an aot function.

        An entry thunk bound from a disk artifact counts as supported
        *without* compiling the machine-level function — compiling it
        would need the static trace, defeating the warm start the
        artifact exists to provide.
        """
        if entry in self._aot_cache or entry in self._aot_entry_cache:
            return True  # capability probe, not a served run
        return self._aot_for(entry) is not None

    def invalidate_trace(self, entry: int) -> bool:
        """Drop the cached static trace for *entry*; returns whether one
        was cached.

        This is the recovery primitive of the hardened execution layer
        (see ``docs/ROBUSTNESS.md``): a trace suspected of corruption is
        invalidated and the next aot run recompiles it from the
        (immutable) program image.  The fused aot functions are dropped
        alongside the trace — they were generated *from* the suspect
        trace — and so is the entry's on-disk aot artifact (the
        persisted copy is just the fused thunk serialised).  Previous
        rejections are also forgotten, so a once-refused entry gets
        re-examined.
        """
        self._replay_rejected.discard(entry)
        self._aot_rejected.discard(entry)
        dropped_aot = self._aot_cache.pop(entry, None) is not None
        if self._aot_entry_cache.pop(entry, None) is not None:
            dropped_aot = True
        if dropped_aot:
            telemetry.record_aot_evicted()
        if self.aot_disk_key is not None:
            from repro.rv64.artifacts import invalidate_artifact

            invalidate_artifact(self.aot_disk_key)
        removed = self._trace_cache.pop(entry, None) is not None
        if removed:
            telemetry.record_trace_invalidated()
        return removed

    def _run_aot(self, aotfn, stack_top: int) -> ExecutionResult:
        """Execute a fused aot function; mirrors one interpreted run."""
        state = self.state
        aotfn.fn(state.regs._regs, stack_top)
        state.pc = aotfn.exit_pc
        state.halted = aotfn.halts
        telemetry.record_machine_run("aot")
        return ExecutionResult(
            instructions_retired=aotfn.instructions_retired,
            cycles=aotfn.cycles,
            histogram=(
                Counter(aotfn.histogram)
                if self.collect_histogram
                else Counter()
            ),
            engine="aot",
        )
