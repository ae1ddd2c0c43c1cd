"""Pipeline timeline rendering: per-instruction issue/complete views.

A debugging and documentation aid: run a snippet under the timing model
and render a text Gantt chart showing when each instruction issues,
where hazard bubbles appear, and which latency caused them — the
cycle-level intuition behind Listings 1-4.

Example output::

    cycle     0123456789
    mulhu  t0 M==
    mul    t1 .M==
    add    a0 ...A        <- waited 2 on t1
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.rv64.assembler import assemble
from repro.rv64.isa import InstructionSet, Instruction
from repro.rv64.machine import Machine
from repro.rv64.pipeline import PipelineConfig, PipelineModel
from repro.rv64.registers import register_name


@dataclass(frozen=True)
class TimelineEntry:
    """Issue/complete record of one executed instruction."""

    index: int
    text: str
    kind: str
    issue: int
    complete: int
    stall: int  # cycles waited on operands beyond the issue slot


class TimelineRecorder:
    """Wraps a PipelineModel, recording per-instruction issue times."""

    def __init__(self, config: PipelineConfig | None = None) -> None:
        self.model = PipelineModel(config or PipelineConfig())
        self.entries: list[TimelineEntry] = []
        self._expected_issue = 0

    def record(self, image_entry, *, pc: int, mem_address: int | None,
               branch_taken: bool, text: str) -> None:
        """Issue one retired instruction, given its program-image entry
        ``(instruction, spec, sources, dest)``."""
        _ins, spec, sources, dest = image_entry
        earliest = self.model._next_issue
        issue = self.model.issue(spec.kind, sources, dest, pc,
                                 mem_address, branch_taken)
        latency = self.model.config.latency_for(spec.kind)
        self.entries.append(TimelineEntry(
            index=len(self.entries),
            text=text,
            kind=spec.kind,
            issue=issue,
            complete=issue + latency,
            stall=issue - earliest,
        ))


def trace_timeline(
    source: str,
    isa: InstructionSet,
    *,
    regs: dict[str, int] | None = None,
    config: PipelineConfig | None = None,
) -> list[TimelineEntry]:
    """Assemble and run *source*, returning the issue timeline."""
    program = assemble(source, isa)
    machine = Machine(isa)
    entry_pc = machine.load_program(program)
    recorder = TimelineRecorder(config)

    def hook(state, ins: Instruction) -> None:
        from repro.rv64.disassembler import format_instruction

        recorder.record(
            machine._program[state.pc], pc=state.pc,
            mem_address=state.last_address,
            branch_taken=state.branch_taken,
            text=format_instruction(isa, ins),
        )

    machine.add_trace_hook(hook)
    for name, value in (regs or {}).items():
        machine.regs[name] = value
    machine.run(entry_pc)
    return recorder.entries


_KIND_GLYPH = {
    "mul": "M", "alu": "A", "load": "L", "store": "S",
    "branch": "B", "jump": "J", "div": "D", "system": "Y",
}


def render_timeline(entries: list[TimelineEntry],
                    *, width: int = 64) -> str:
    """Text Gantt chart of the issue timeline."""
    if not entries:
        return "(empty)"
    horizon = min(max(e.complete for e in entries) + 1, width)
    label_width = max(len(e.text) for e in entries) + 2
    ruler = "".join(str(c % 10) for c in range(horizon))
    lines = [f"{'cycle':<{label_width}}{ruler}"]
    for e in entries:
        row = ["."] * min(e.issue, horizon)
        if e.issue < horizon:
            row.append(_KIND_GLYPH.get(e.kind, "?"))
            for c in range(e.issue + 1, min(e.complete, horizon)):
                row.append("=")
        suffix = f"   <- stalled {e.stall}" if e.stall else ""
        lines.append(f"{e.text:<{label_width}}{''.join(row)}{suffix}")
    return "\n".join(lines)
