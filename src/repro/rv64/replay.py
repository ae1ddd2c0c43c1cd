"""Static trace compilation: the front end of the aot tier.

Every generated kernel is branch-free straight-line code with
data-independent timing: the dynamic instruction sequence — and hence
the pipeline schedule — is identical on every invocation, only the
operand values differ.  :func:`compile_trace` exploits that once per
kernel:

* it walks the loaded program *statically* from the entry point
  (possible exactly because the code is straight-line) and records the
  ``(pc, instruction, spec)`` of every instruction with an
  architectural effect — ``step_instructions``, the sequence
  :mod:`repro.rv64.aot` symbolically executes and fuses;
* it pre-computes the from-reset cycle cost once by timing the
  instruction sequence in one pass of a fresh
  :class:`~repro.rv64.pipeline.PipelineModel`, together with the
  retired-instruction total and the architectural exit state
  (``exit_pc``/``halts``).

Compilation *refuses* (raising :class:`ReplayError`) whenever exactness
cannot be guaranteed statically: any control flow other than the final
``ret``/``ebreak``, a write to ``ra`` (which would redirect the final
``ret``), or a cache-enabled timing configuration (miss patterns are
history-dependent, so the cycle count is not a static property of the
trace).  The aot tier then refuses too and the run demotes to the
interpreter; the differential suite under ``tests/differential/``
proves the two engines equivalent wherever a trace is accepted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import SimulationError
from repro.rv64.isa import Instruction, InstrSpec, KIND_BRANCH, KIND_JUMP
from repro.rv64.pipeline import PipelineModel

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.rv64.machine import Machine


class ReplayError(SimulationError):
    """The program cannot be compiled to an exact static trace.

    ``reason`` is a short machine-readable code (``control_flow``,
    ``ra_write``, ``cache_timing``, ``unmapped``, ``step_limit``) used
    by telemetry's ``trace_rejects_total{reason=...}`` counter.
    """

    code = "replay"

    #: Every reason `compile_trace` can refuse with (mirrored by the
    #: per-reason tests in ``tests/test_replay_fallback.py``).
    REASONS = ("control_flow", "ra_write", "cache_timing", "unmapped",
               "step_limit")

    def __init__(self, message: str, *, reason: str = "other") -> None:
        super().__init__(message)
        self.reason = reason


@dataclass(frozen=True)
class CompiledTrace:
    """A straight-line program decoded once, with its static cost.

    ``cycles`` is the *from-reset* cost of one complete execution under
    the machine's pipeline configuration (``None`` when the machine has
    no timing model).

    ``step_instructions`` lists the ``(pc, instruction, spec)`` of each
    instruction with an architectural effect, in program order: the
    terminal ``ret``/``ebreak``, ``fence`` and pure writes to ``x0`` are
    absent (they still count toward the retired-instruction total and
    the cycle cost).  Fault injection indexes its trace sites by
    position in this sequence.
    """

    entry: int
    step_instructions: tuple[tuple[int, Instruction, InstrSpec], ...]
    instructions_retired: int
    cycles: int | None
    halts: bool       # ends in ebreak (vs. ret to the halt sentinel)
    exit_pc: int      # pc the interpreter would be left at


_LOADS = frozenset(("ld", "lb", "lbu", "lh", "lhu", "lw", "lwu"))


def _is_no_op(ins: Instruction, spec: InstrSpec) -> bool:
    """Statically without architectural effect: ``fence``, or a pure
    computation into ``x0`` (a load into ``x0`` may still trap)."""
    if ins.mnemonic == "fence":
        return True
    return spec.writes_rd and ins.rd == 0 and ins.mnemonic not in _LOADS


def _is_terminal_ret(ins: Instruction) -> bool:
    """The ``ret`` idiom (``jalr x0, ra, 0``) closing every kernel."""
    return (ins.mnemonic == "jalr" and ins.rd == 0 and ins.rs1 == 1
            and ins.imm == 0)


def _static_cycles(
    sequence: list[tuple[int, tuple]],
    pipeline: PipelineModel | None,
) -> int | None:
    """Pre-compute the from-reset cycle cost of one trace execution.

    *sequence* holds ``(pc, image entry)`` pairs; the entries are the
    records :meth:`PipelineModel.time_records` times in one pass (a
    cache-free model reads no pc, and straight-line code takes no
    branch).  Exact because the instruction sequence, the register
    dependence graph, and the (cache-free) per-instruction latencies
    are all static properties of straight-line code; only operand
    *values* vary between runs, and the scoreboard never consults them.
    """
    if pipeline is None:
        return None
    config = pipeline.config
    if config.icache is not None or config.dcache is not None:
        raise ReplayError(
            "cache timing is history-dependent; a trace cannot "
            "precompute a static cycle count",
            reason="cache_timing",
        )
    model = PipelineModel(config)
    model.time_records([image_entry for _pc, image_entry in sequence])
    return model.cycles


def compile_trace(machine: Machine, entry: int) -> CompiledTrace:
    """Decode the straight-line program at *entry* into a static trace.

    Raises :class:`ReplayError` if the program is not straight-line
    (or its timing is not static); the caller falls back to the
    interpreter.
    """
    program = machine._program
    sequence: list[tuple[int, tuple]] = []  # (pc, image entry)
    pc = entry
    limit = machine.max_steps
    while True:
        image_entry = program.get(pc)
        if image_entry is None:
            raise ReplayError(
                f"straight-line walk fell off the program image at "
                f"{pc:#x}",
                reason="unmapped",
            )
        ins, spec, _sources, dest = image_entry
        sequence.append((pc, image_entry))
        if len(sequence) > limit:
            raise ReplayError(f"trace exceeds step limit {limit}",
                              reason="step_limit")
        if _is_terminal_ret(ins) or ins.mnemonic == "ebreak":
            break  # retired by the interpreter too, then execution halts
        if spec.kind in (KIND_BRANCH, KIND_JUMP):
            raise ReplayError(
                f"control flow at {pc:#x} ({ins.mnemonic}): not "
                f"straight-line code",
                reason="control_flow",
            )
        if dest == 1:
            raise ReplayError(
                f"write to ra at {pc:#x} would redirect the final ret",
                reason="ra_write",
            )
        pc += 4

    cycles = _static_cycles(sequence, machine.pipeline)
    final_pc, (final_ins, _spec, _sources, _dest) = sequence[-1]
    halts = final_ins.mnemonic == "ebreak"

    from repro.rv64.machine import HALT_ADDRESS

    return CompiledTrace(
        entry=entry,
        step_instructions=tuple(
            (pc, ins, spec) for pc, (ins, spec, _sources, _dest)
            in sequence[:-1] if not _is_no_op(ins, spec)),
        instructions_retired=len(sequence),
        cycles=cycles,
        halts=halts,
        exit_pc=final_pc + 4 if halts else HALT_ADDRESS,
    )
