"""Tests for the functional machine: execution control and diagnostics."""

from __future__ import annotations

import pytest

from repro.errors import EncodingError, SimulationError
from repro.rv64.assembler import assemble
from repro.rv64.isa import BASE_ISA, FMT_R, KIND_MUL, InstrSpec
from repro.rv64.machine import HALT_ADDRESS, Machine
from repro.rv64.pipeline import PipelineConfig, PipelineModel
from repro.rv64.tracing import profile_machine_run
from tests.helpers import result_of, run_asm


class TestExecutionControl:
    def test_ret_halts(self):
        machine = run_asm("li a0, 5")
        assert machine.regs["a0"] == 5

    def test_ebreak_halts(self):
        machine = run_asm("li a0, 1\nebreak\nli a0, 2", append_ret=False)
        assert machine.regs["a0"] == 1

    def test_ecall_raises(self):
        with pytest.raises(SimulationError, match="ecall"):
            run_asm("ecall", append_ret=False)

    def test_fetch_from_unmapped_raises(self):
        machine = Machine(BASE_ISA)
        machine.load_program(assemble("nop", BASE_ISA))
        with pytest.raises(SimulationError, match="unmapped"):
            machine.run(0x1000, setup_return=False)

    def test_step_limit(self):
        machine = Machine(BASE_ISA, max_steps=100)
        entry = machine.load_program(assemble("loop: j loop", BASE_ISA))
        with pytest.raises(SimulationError, match="step limit"):
            machine.run(entry)

    def test_ra_points_to_halt(self):
        machine = run_asm("mv a0, ra")
        assert machine.regs["a0"] == HALT_ADDRESS

    def test_sp_initialised(self):
        machine = run_asm("mv a0, sp")
        assert machine.regs["a0"] != 0


class TestStatistics:
    def test_retired_count(self):
        machine = run_asm("nop\nnop\nnop")
        assert result_of(machine).instructions_retired == 4  # + ret

    def test_histogram(self):
        # dynamic mnemonic counts come from the Profiler's trace hook
        machine = Machine(BASE_ISA)
        entry = machine.load_program(
            assemble("add a0, a0, a1\nadd a0, a0, a1\nmul a2, a0, a1\nret",
                     BASE_ISA))
        mnemonics = profile_machine_run(machine, entry).mnemonics
        assert mnemonics["add"] == 2
        assert mnemonics["mul"] == 1
        assert mnemonics["jalr"] == 1

    def test_no_cycles_without_pipeline(self):
        machine = run_asm("nop", pipeline=None)
        assert result_of(machine).cycles is None

    def test_trace_hook_sees_instructions(self):
        machine = Machine(BASE_ISA)
        entry = machine.load_program(assemble("li a0, 7\nret", BASE_ISA))
        seen = []
        machine.add_trace_hook(lambda state, ins: seen.append(ins.mnemonic))
        machine.run(entry)
        assert seen == ["addi", "jalr"]

    def test_program_extent(self):
        machine = Machine(BASE_ISA)
        machine.load_program(assemble("nop\nnop\nret", BASE_ISA), 0x2000)
        low, size = machine.program_extent()
        assert low == 0x2000
        assert size == 12


class TestReset:
    def test_reset_clears_registers_keeps_memory(self):
        machine = run_asm("li a0, 9\nsd a0, 0(a1)", {"a1": 0x9000})
        machine.reset()
        assert machine.regs["a0"] == 0
        assert machine.mem.load_u64(0x9000) == 9

    def test_rerun_after_reset(self):
        machine = Machine(BASE_ISA)
        entry = machine.load_program(
            assemble("addi a0, a0, 1\nret", BASE_ISA))
        machine.run(entry)
        machine.run(entry)  # state carries over without reset
        assert machine.regs["a0"] == 2
        machine.reset()
        machine.run(entry)
        assert machine.regs["a0"] == 1


def _exec_mac_by_name(state, ins) -> None:
    """``a0 <- a1 * a2 + a0``, through the name-accepting register API
    (the operands of the instruction are not consulted)."""
    regs = state.regs
    regs.write("a0", regs.read("a1") * regs.read("a2") + regs.read("a0"))
    regs.write("zero", 99)  # discarded, as any write to x0


#: A test-defined instruction in the custom opcode space.
MAC_BY_NAME = InstrSpec("macname", FMT_R, KIND_MUL, _exec_mac_by_name,
                        opcode=0b1111011, funct3=0b111, funct7=0)

MAC_ISA = BASE_ISA.extend("rv64im+macname", [MAC_BY_NAME])


class TestExtensionContract:
    """Custom semantics keep the public register API; the timing model
    in force is whatever ``machine.pipeline`` holds at run time."""

    def _run(self, source, regs, config=PipelineConfig()):
        machine = Machine(MAC_ISA, pipeline=PipelineModel(config))
        entry = machine.load_program(assemble(source, MAC_ISA))
        for name, value in regs.items():
            machine.regs[name] = value
        return machine, machine.run(entry)

    def test_custom_instruction_by_abi_name(self):
        machine, result = self._run(
            "macname a0, a1, a2\nadd a3, a0, zero\nret",
            {"a0": 5, "a1": 6, "a2": 7})
        assert machine.regs["a0"] == 6 * 7 + 5
        assert machine.regs["a3"] == 6 * 7 + 5
        assert machine.regs["zero"] == 0
        # the dependent add waits out the multiplier latency
        stats = machine.pipeline.stats
        assert stats.raw_hazard_stalls == PipelineConfig().mul_latency - 1
        assert stats.kind_counts["mul"] == 1
        assert result.instructions_retired == 3

    def test_custom_write_wraps_to_64_bits(self):
        machine, _ = self._run("macname a0, a1, a2\nret",
                               {"a0": 5, "a1": 1 << 63, "a2": 4})
        assert machine.regs["a0"] == 5

    def test_spec_reads_and_writes_resolved_per_format(self):
        assert MAC_BY_NAME.reads == ("rs1", "rs2")
        assert MAC_BY_NAME.writes_rd is True
        assert BASE_ISA["sd"].reads == ("rs1", "rs2")
        assert BASE_ISA["sd"].writes_rd is False
        with pytest.raises(EncodingError, match="unknown format"):
            InstrSpec("bogus", "Q", KIND_MUL, _exec_mac_by_name, opcode=0)

    def test_swapping_the_pipeline_after_load_changes_cycles(self):
        source = "mul a0, a1, a2\nadd a3, a0, a0\nret"
        machine = Machine(BASE_ISA, pipeline=PipelineModel())
        entry = machine.load_program(assemble(source, BASE_ISA))
        base = machine.run(entry).cycles
        machine.pipeline = PipelineModel(PipelineConfig(mul_latency=6))
        slow = machine.run(entry).cycles
        assert slow - base == 6 - PipelineConfig().mul_latency
        assert machine.pipeline.stats.raw_hazard_stalls == 5
