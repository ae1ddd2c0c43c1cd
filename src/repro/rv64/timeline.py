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


def trace_timeline(
    source: str,
    isa: InstructionSet,
    *,
    regs: dict[str, int] | None = None,
    config: PipelineConfig | None = None,
) -> list[TimelineEntry]:
    """Assemble and run *source*, returning the issue timeline.

    The run retires first; the retired instructions are then timed in
    one :meth:`PipelineModel.time_records` pass, which reports each
    one's issue, completion and stall.
    """
    from repro.rv64.disassembler import format_instruction

    program = assemble(source, isa)
    machine = Machine(isa)
    entry_pc = machine.load_program(program)
    model = PipelineModel(config or PipelineConfig())
    detailed = model.reads_addresses
    image = machine._program
    records: list = []
    retired: list[tuple[str, str]] = []  # (text, kind) per instruction

    def hook(state, ins: Instruction) -> None:
        image_entry = image[state.pc]
        # the record format of PipelineModel.time_records
        records.append((image_entry, state.pc, state.last_address)
                       if detailed else image_entry)
        if state.branch_taken:
            records.append(None)
        retired.append((format_instruction(isa, ins), image_entry[1].kind))

    machine.add_trace_hook(hook)
    for name, value in (regs or {}).items():
        machine.regs[name] = value
    machine.run(entry_pc)
    schedule: list[tuple[int, int, int]] = []
    model.time_records(records, schedule)
    return [
        TimelineEntry(index=index, text=text, kind=kind, issue=issue,
                      complete=complete, stall=stall)
        for index, ((text, kind), (issue, complete, stall))
        in enumerate(zip(retired, schedule))
    ]


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
