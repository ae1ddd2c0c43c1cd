"""RISC-V RV64 substrate: functional simulator, assembler, timing model.

This package is the stand-in for the paper's FPGA-hosted Rocket core.
It provides:

* :mod:`repro.rv64.isa` — RV64I+M instruction semantics and the
  extensible :class:`~repro.rv64.isa.InstructionSet` registry;
* :mod:`repro.rv64.encoding` — 32-bit binary encode/decode (incl. the
  R4-type custom format);
* :mod:`repro.rv64.assembler` / :mod:`repro.rv64.disassembler`;
* :mod:`repro.rv64.machine` — the functional hart;
* :mod:`repro.rv64.pipeline` — the Rocket-like in-order timing model;
* :mod:`repro.rv64.cache` — 16 kB I$/D$ models.
"""

from repro.rv64.assembler import AssembledProgram, Assembler, assemble
from repro.rv64.cache import Cache, CacheConfig
from repro.rv64.encoding import Decoder, encode_instruction, encode_program
from repro.rv64.isa import BASE_ISA, Instruction, InstrSpec, InstructionSet
from repro.rv64.machine import (
    DEFAULT_STACK_TOP,
    ExecutionResult,
    HALT_ADDRESS,
    Machine,
    MachineState,
)
from repro.rv64.memory import Memory
from repro.rv64.pipeline import (
    PipelineConfig,
    PipelineModel,
    PipelineStats,
    ROCKET_CONFIG,
    ROCKET_CONFIG_WITH_CACHES,
)
from repro.rv64.registers import RegisterFile, register_index, register_name
from repro.rv64.replay import (
    CompiledTrace,
    ReplayError,
    compile_trace,
)
from repro.rv64.timeline import (
    TimelineEntry,
    render_timeline,
    trace_timeline,
)
from repro.rv64.tracing import (
    ExecutionProfile,
    Profiler,
    instruction_mix,
    profile_machine_run,
)

__all__ = [
    "AssembledProgram",
    "Assembler",
    "assemble",
    "Cache",
    "CacheConfig",
    "Decoder",
    "encode_instruction",
    "encode_program",
    "BASE_ISA",
    "Instruction",
    "InstrSpec",
    "InstructionSet",
    "DEFAULT_STACK_TOP",
    "ExecutionResult",
    "HALT_ADDRESS",
    "Machine",
    "MachineState",
    "Memory",
    "PipelineConfig",
    "PipelineModel",
    "PipelineStats",
    "ROCKET_CONFIG",
    "ROCKET_CONFIG_WITH_CACHES",
    "RegisterFile",
    "register_index",
    "register_name",
    "CompiledTrace",
    "ReplayError",
    "compile_trace",
    "TimelineEntry",
    "render_timeline",
    "trace_timeline",
    "ExecutionProfile",
    "Profiler",
    "instruction_mix",
    "profile_machine_run",
]
