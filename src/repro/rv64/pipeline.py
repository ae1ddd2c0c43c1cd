"""In-order timing model of the Rocket-like 5-stage pipeline.

The paper's host core is a 64-bit Rocket: 5-stage, in-order, single
issue, with full forwarding and a 2-stage pipelined multiplier (extended
to XMUL for the custom instructions; "all custom instructions (and also
``mul[hu]``) execute in one cycle" refers to 1/cycle *throughput*; the
input/output register stages give an effective result latency of two
cycles to a dependent instruction).

Rather than simulating stage-by-stage, the model uses the classic
scoreboard formulation that is exact for an in-order single-issue
machine with full forwarding:

* an instruction issues at ``t = max(prev_issue + 1, ready(rs1),
  ready(rs2), ready(rs3))``;
* its result becomes forwardable at ``t + latency(kind)``;
* taken branches and jumps flush the front-end, adding a penalty before
  the next issue;
* cache misses add their penalty at the access.

This reproduces exactly the hazards the paper reasons about: the
``mul``/``mulhu`` result-use bubble, the ``sltu`` carry-chain
dependencies, and the load-use delay.

The model times instructions after they retire, in batches:
:meth:`PipelineModel.time_records` walks a list of retired-instruction
records in one pass with the scoreboard held in locals.  The
interpreter (:meth:`~repro.rv64.machine.Machine.run`) hands it its
pending records when a run ends, when it raises and every
:data:`~repro.rv64.machine.TIME_EVERY` instructions; the static trace
and the timeline go through the same pass.  It is the only
implementation of the issue arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ParameterError
from repro.rv64.cache import Cache, CacheConfig
from repro.rv64.isa import (
    KIND_ALU,
    KIND_BRANCH,
    KIND_DIV,
    KIND_JUMP,
    KIND_LOAD,
    KIND_MUL,
    KIND_STORE,
    KIND_SYSTEM,
)


@dataclass(frozen=True)
class PipelineConfig:
    """Latency/penalty parameters of the timing model.

    Defaults model the paper's Rocket configuration; every experiment
    that varies them does so explicitly.
    """

    alu_latency: int = 1
    mul_latency: int = 3       # 2-stage pipelined (X)MUL: the input and
    #                            output register stages (Sect. 3.3) give a
    #                            dependent instruction a 2-bubble distance,
    #                            matching Rocket's 3-cycle mul latency
    div_latency: int = 33      # iterative divider (not used by kernels)
    load_latency: int = 2      # load-use delay of one bubble
    store_latency: int = 1
    branch_penalty: int = 3    # taken-branch flush (mispredict cost)
    jump_penalty: int = 2
    icache: CacheConfig | None = None
    dcache: CacheConfig | None = None

    def latency_for(self, kind: str) -> int:
        table = {
            KIND_ALU: self.alu_latency,
            KIND_MUL: self.mul_latency,
            KIND_DIV: self.div_latency,
            KIND_LOAD: self.load_latency,
            KIND_STORE: self.store_latency,
            KIND_BRANCH: self.alu_latency,
            KIND_JUMP: self.alu_latency,
            KIND_SYSTEM: self.alu_latency,
        }
        try:
            return table[kind]
        except KeyError:
            raise ParameterError(f"unknown timing class {kind!r}") from None


#: Every timing class :meth:`PipelineConfig.latency_for` maps.
_KINDS = (
    KIND_ALU, KIND_MUL, KIND_DIV, KIND_LOAD, KIND_STORE, KIND_BRANCH,
    KIND_JUMP, KIND_SYSTEM,
)

ROCKET_CONFIG = PipelineConfig()

ROCKET_CONFIG_WITH_CACHES = PipelineConfig(
    icache=CacheConfig(), dcache=CacheConfig()
)


@dataclass
class PipelineStats:
    """Aggregate results of one timed execution."""

    instructions: int = 0
    cycles: int = 0
    raw_hazard_stalls: int = 0
    control_flush_cycles: int = 0
    cache_miss_cycles: int = 0
    kind_counts: dict[str, int] = field(default_factory=dict)

    @property
    def cpi(self) -> float:
        return self.cycles / self.instructions if self.instructions else 0.0


class PipelineModel:
    """Scoreboard timing model; feed :meth:`time_records`, read ``stats``.

    The kind -> latency table is resolved from the (frozen) config once,
    at construction; :meth:`PipelineConfig.latency_for` stays the single
    definition of that mapping.
    """

    def __init__(self, config: PipelineConfig = ROCKET_CONFIG) -> None:
        self.config = config
        self.icache = Cache(config.icache) if config.icache else None
        self.dcache = Cache(config.dcache) if config.dcache else None
        #: whether a record carries the pc and memory address (only the
        #: caches read them); see :meth:`time_records`
        self.reads_addresses = bool(config.icache or config.dcache)
        self._latency = {kind: config.latency_for(kind) for kind in _KINDS}
        self.reset()

    def reset(self) -> None:
        self._reg_ready = [0] * 32
        self._next_issue = 0
        self._last_complete = 0
        self.stats = PipelineStats()
        if self.icache:
            self.icache.reset_stats()
        if self.dcache:
            self.dcache.reset_stats()

    # -- core model --------------------------------------------------------

    def check_kinds(self, kinds) -> None:
        """Raise :class:`~repro.errors.ParameterError` unless every
        timing class in the set *kinds* has a latency."""
        for kind in sorted(kinds - self._latency.keys()):
            self.config.latency_for(kind)

    def time_records(self, records, schedule: list | None = None) -> None:
        """Time retired instructions, in program order, in one pass.

        Each record is the program-image entry ``(instruction, spec,
        sources, dest)`` of one retired instruction, or, when
        :attr:`reads_addresses`, the triple ``(entry, pc,
        mem_address)``.  A ``None`` record follows every taken branch.
        *sources* are the register indices the instruction reads and
        *dest* the register it writes (0 for none), as
        :func:`~repro.rv64.isa.resolve_operands` resolves them once per
        static instruction; no instruction field is read.
        :meth:`~repro.rv64.machine.Machine.run` and
        :func:`~repro.rv64.timeline.trace_timeline` build these records
        inline; :mod:`repro.rv64.replay` passes the entries of a
        cache-free, branch-free trace.

        The scoreboard state lives in locals for the pass and is
        written back when it ends, also when an unknown timing class
        raises :class:`~repro.errors.ParameterError` (the records
        before it stay timed).  When *schedule* is a list, the pass
        appends ``(issue, complete, stall)`` per instruction: its issue
        cycle, the cycle its result is forwardable, and the cycles it
        waited beyond the previous instruction's issue slot.
        """
        stats = self.stats
        config = self.config
        reg_ready = self._reg_ready
        icache = self.icache
        dcache = self.dcache
        detailed = self.reads_addresses
        jump_penalty = config.jump_penalty
        branch_penalty = config.branch_penalty
        start = next_issue = self._next_issue
        last_complete = self._last_complete
        # kind -> [latency, instructions timed by this pass]
        timing = {kind: [cycles, 0]
                  for kind, cycles in self._latency.items()}
        flush = missed = 0
        kind = None
        try:
            for record in records:
                if record is None:  # the branch just timed was taken
                    if kind == KIND_BRANCH:
                        next_issue += branch_penalty
                        flush += branch_penalty
                    continue
                if detailed:
                    record, pc, mem_address = record
                _ins, spec, sources, dest = record
                kind = spec.kind
                try:
                    cell = timing[kind]
                except KeyError:
                    # not a built-in class: ParameterError from the one
                    # mapping, before this record changes any state
                    cell = timing[kind] = [config.latency_for(kind), 0]

                t = next_issue
                if icache is not None and not icache.access(pc):
                    penalty = icache.config.miss_penalty
                    t += penalty
                    missed += penalty
                # x0 is never marked busy, so its ready time (0) never
                # stalls
                for source in sources:
                    ready = reg_ready[source]
                    if ready > t:
                        t = ready

                if (
                    dcache is not None
                    and mem_address is not None
                    and kind in (KIND_LOAD, KIND_STORE)
                    and not dcache.access(mem_address)
                ):
                    penalty = dcache.config.miss_penalty
                    t += penalty
                    missed += penalty

                complete = t + cell[0]
                if dest:
                    reg_ready[dest] = complete
                if schedule is not None:
                    schedule.append((t, complete, t - next_issue))
                next_issue = t + 1
                if kind == KIND_JUMP:
                    next_issue += jump_penalty
                    flush += jump_penalty
                cell[1] += 1
                if complete > last_complete:
                    last_complete = complete
        finally:
            timed = 0
            kind_counts = stats.kind_counts
            for kind, (_latency, count) in timing.items():
                if count:
                    kind_counts[kind] = kind_counts.get(kind, 0) + count
                    timed += count
            self._next_issue = next_issue
            self._last_complete = last_complete
            stats.instructions += timed
            stats.control_flush_cycles += flush
            stats.cache_miss_cycles += missed
            # the issue slot advances one cycle per instruction plus
            # every flush, miss and RAW stall: the rest is RAW stalls
            stats.raw_hazard_stalls += (
                next_issue - start - timed - flush - missed)
            stats.cycles = (next_issue if next_issue > last_complete
                            else last_complete)

    @property
    def cycles(self) -> int:
        """Total cycles consumed so far (drained pipeline)."""
        return self.stats.cycles
