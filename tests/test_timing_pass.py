"""Oracles for the retire-then-time order of the interpreter.

``Machine.run`` records every retired instruction and
``PipelineModel.time_records`` times the records in one pass, at the
end of the run, when the run raises and every ``TIME_EVERY``
instructions.  These tests hold that pass to a per-instruction
reference walk (the scoreboard written out one instruction at a time),
to the golden snapshots, and to its bounds.
"""

from __future__ import annotations

import json
import random

import pytest

from repro.errors import ParameterError, SimulationError
from repro.kernels.registry import cached_kernels
from repro.kernels.runner import KernelRunner
from repro.rv64.assembler import assemble
from repro.rv64.cache import Cache
from repro.rv64.isa import (
    BASE_ISA,
    FMT_R,
    KIND_BRANCH,
    KIND_JUMP,
    KIND_LOAD,
    KIND_STORE,
    InstrSpec,
)
from repro.rv64.machine import TIME_EVERY, Machine
from repro.rv64.pipeline import (
    ROCKET_CONFIG,
    ROCKET_CONFIG_WITH_CACHES,
    PipelineConfig,
    PipelineModel,
    PipelineStats,
)
from repro.rv64.timeline import trace_timeline
from tests.differential.generate_golden import (
    GOLDEN_PATH,
    PARAMETER_SETS,
    PIPELINE_CONFIGS,
    STATS_FIELDS,
    STATS_PATH,
)

CONFIGS = {"rocket": ROCKET_CONFIG, "rocket+caches": ROCKET_CONFIG_WITH_CACHES}

def reference_walk(steps, config: PipelineConfig):
    """Time *steps*, ``(image entry, pc, address, taken)`` per retired
    instruction, one instruction at a time.  Returns the
    :class:`PipelineStats` and the ``(issue, complete, stall)`` of each
    instruction."""
    icache = Cache(config.icache) if config.icache else None
    dcache = Cache(config.dcache) if config.dcache else None
    ready = [0] * 32
    next_issue = last_complete = 0
    stats = PipelineStats()
    schedule = []
    for (_ins, spec, sources, dest), pc, address, taken in steps:
        kind = spec.kind
        earliest = next_issue
        if icache is not None and not icache.access(pc):
            earliest += config.icache.miss_penalty
            stats.cache_miss_cycles += config.icache.miss_penalty
        t = max([earliest] + [ready[source] for source in sources])
        stats.raw_hazard_stalls += t - earliest
        if (dcache is not None and address is not None
                and kind in (KIND_LOAD, KIND_STORE)
                and not dcache.access(address)):
            t += config.dcache.miss_penalty
            stats.cache_miss_cycles += config.dcache.miss_penalty
        complete = t + config.latency_for(kind)
        if dest:
            ready[dest] = complete
        schedule.append((t, complete, t - next_issue))
        next_issue = t + 1
        if kind == KIND_JUMP:
            next_issue += config.jump_penalty
            stats.control_flush_cycles += config.jump_penalty
        elif kind == KIND_BRANCH and taken:
            next_issue += config.branch_penalty
            stats.control_flush_cycles += config.branch_penalty
        stats.instructions += 1
        stats.kind_counts[kind] = stats.kind_counts.get(kind, 0) + 1
        last_complete = max(last_complete, complete)
        stats.cycles = max(next_issue, last_complete)
    return stats, schedule


def retire_steps(machine: Machine) -> list:
    """Attach a hook that lists what each retired instruction gives
    the reference walk."""
    steps = []
    machine.add_trace_hook(lambda state, ins: steps.append((
        machine._program[state.pc], state.pc, state.last_address,
        state.branch_taken)))
    return steps


def stats_of(stats: PipelineStats) -> dict:
    return {name: getattr(stats, name) for name in STATS_FIELDS}


class IssueRaises(PipelineModel):
    """A model whose per-instruction entry point must never be used."""

    def issue(self, *args, **kwargs):
        raise AssertionError("the machine timed one instruction alone")


class BatchSizes(PipelineModel):
    """A model that notes the size of every batch it is given."""

    def __init__(self, config: PipelineConfig = ROCKET_CONFIG) -> None:
        super().__init__(config)
        self.batches: list[tuple[int, int]] = []  # (records, instructions)

    def time_records(self, records, schedule=None) -> None:
        self.batches.append((len(records), sum(
            record is not None for record in records)))
        super().time_records(records, schedule)


#: Loads, stores, a multiply chain and a taken loop branch, seven
#: instructions per iteration; the tail is chosen by the test.
LOOP = """
    li t0, 0x9000
    li t1, {count}
loop:
    ld t2, 0(t0)
    mul t3, t2, t1
    add t3, t3, t2
    sd t3, 8(t0)
    addi t0, t0, 16
    addi t1, t1, -1
    bnez t1, loop
"""

FAULTS = {
    # a fetch from outside the image, after one timing pass
    "unmapped": (LOOP.format(count=700) + "    jalr zero, zero, 0\n",
                 "unmapped"),
    # a misaligned doubleword load, after one timing pass
    "misaligned": (LOOP.format(count=700) + "    ld a0, 4(t0)\nret\n",
                   "misaligned"),
    # an endless loop: the step limit crosses several timing passes
    "step_limit": (LOOP.format(count=0) + "    ret\n", "step limit"),
}


@pytest.mark.parametrize("config_name", sorted(CONFIGS))
@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_stats_after_a_fault_equal_the_reference_walk(fault, config_name):
    source, message = FAULTS[fault]
    config = CONFIGS[config_name]
    machine = Machine(BASE_ISA, pipeline=PipelineModel(config),
                      max_steps=3 * TIME_EVERY + 17)
    entry = machine.load_program(assemble(source, BASE_ISA))
    steps = retire_steps(machine)
    with pytest.raises(Exception, match=message):
        machine.run(entry)
    want, _ = reference_walk(steps, config)
    assert stats_of(machine.pipeline.stats) == stats_of(want)
    assert want.instructions == len(steps) > TIME_EVERY
    if config.dcache is not None:
        assert want.cache_miss_cycles > 0


@pytest.mark.parametrize("config_name", sorted(CONFIGS))
def test_long_run_equals_the_reference_walk(config_name):
    """A run that completes across several timing passes."""
    config = CONFIGS[config_name]
    machine = Machine(BASE_ISA, pipeline=BatchSizes(config))
    entry = machine.load_program(
        assemble(LOOP.format(count=1500) + "    ret\n", BASE_ISA))
    steps = retire_steps(machine)
    result = machine.run(entry)
    want, _ = reference_walk(steps, config)
    assert stats_of(machine.pipeline.stats) == stats_of(want)
    assert result.cycles == want.cycles
    assert result.instructions_retired == want.instructions > 2 * TIME_EVERY
    assert len(machine.pipeline.batches) > 2


def test_step_limit_keeps_pending_records_bounded():
    machine = Machine(BASE_ISA, pipeline=BatchSizes(),
                      max_steps=5 * TIME_EVERY + 3)
    entry = machine.load_program(
        assemble("loop:\n    addi a0, a0, 1\n    bnez a0, loop\n",
                 BASE_ISA))
    with pytest.raises(SimulationError, match="step limit"):
        machine.run(entry)
    batches = machine.pipeline.batches
    # every batch holds at most TIME_EVERY instructions, plus one
    # marker per taken branch among them
    assert max(timed for _, timed in batches) <= TIME_EVERY
    assert max(records for records, _ in batches) <= 2 * TIME_EVERY
    assert len(batches) == 6
    assert machine.pipeline.stats.instructions == 5 * TIME_EVERY + 4


def _exec_nop(state, ins) -> None:
    return None


#: A custom instruction of a timing class no configuration maps.
TELEPORT = InstrSpec("teleport", FMT_R, "teleport", _exec_nop,
                     opcode=0b1111011, funct3=0b110, funct7=0)


def test_unknown_timing_class_raises_before_anything_runs():
    isa = BASE_ISA.extend("rv64im+teleport", [TELEPORT])
    machine = Machine(isa, pipeline=PipelineModel())
    entry = machine.load_program(
        assemble("li a0, 7\nteleport a0, a1, a2\nret", isa))
    with pytest.raises(ParameterError, match="unknown timing class"):
        machine.run(entry)
    # no instruction executed, and none was timed
    assert machine.regs["a0"] == 0
    assert machine.pipeline.stats.instructions == 0
    # a machine without a timing model runs the program
    machine.pipeline = None
    machine.run(entry)
    assert machine.regs["a0"] == 7


def test_a_model_whose_issue_raises_reports_the_golden_cycles():
    golden = json.loads(GOLDEN_PATH.read_text())["moduli"]
    for set_name, factory in PARAMETER_SETS.items():
        kernels = cached_kernels(factory().p)
        for name in sorted(kernels):
            kernel = kernels[name]
            runner = KernelRunner(kernel)
            runner.machine.pipeline = IssueRaises()
            run = runner.run(*kernel.sampler(random.Random(name)))
            assert run.cycles == golden[set_name][name], (set_name, name)


def test_cache_runs_match_the_golden_snapshot():
    """The cache-enabled runs, through a model whose ``issue`` raises,
    reproduce every pinned counter."""
    golden = json.loads(STATS_PATH.read_text())["moduli"]
    config = PIPELINE_CONFIGS["rocket+caches"]
    for set_name, factory in PARAMETER_SETS.items():
        kernels = cached_kernels(factory().p)
        for name in sorted(kernels):
            kernel = kernels[name]
            runner = KernelRunner(kernel, pipeline_config=config)
            runner.machine.pipeline = IssueRaises(config)
            runner.run(*kernel.sampler(
                random.Random(f"{set_name}/{name}")))
            want = golden[set_name]["rocket+caches"][name]
            assert stats_of(runner.machine.pipeline.stats) == want, (
                set_name, name)


@pytest.mark.parametrize("config_name", sorted(CONFIGS))
def test_timeline_equals_the_reference_walk(config_name):
    config = CONFIGS[config_name]
    source = (LOOP.format(count=3)
              + "    mul a0, t1, t2\n    add a1, a0, a0\n    ret\n")
    entries = trace_timeline(source, BASE_ISA, config=config)
    machine = Machine(BASE_ISA)
    entry = machine.load_program(assemble(source, BASE_ISA))
    steps = retire_steps(machine)
    machine.run(entry)
    _, schedule = reference_walk(steps, config)
    assert [(e.issue, e.complete, e.stall) for e in entries] == schedule
    assert any(stall for _, _, stall in schedule)
