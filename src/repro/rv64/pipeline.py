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
    """Scoreboard timing model; drive via :meth:`issue`, read ``stats``.

    The kind -> latency table is resolved from the (frozen) config once,
    at construction; :meth:`PipelineConfig.latency_for` stays the single
    definition of that mapping.
    """

    def __init__(self, config: PipelineConfig = ROCKET_CONFIG) -> None:
        self.config = config
        self.icache = Cache(config.icache) if config.icache else None
        self.dcache = Cache(config.dcache) if config.dcache else None
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

    def issue(
        self,
        kind: str,
        sources: tuple[int, ...],
        dest: int,
        pc: int,
        mem_address: int | None = None,
        branch_taken: bool = False,
    ) -> int:
        """Account for one retired instruction; returns its issue cycle.

        *kind* is the spec's timing class, *sources* the register
        indices it reads and *dest* the register it writes (0 for none),
        as :func:`~repro.rv64.isa.resolve_operands` resolves them once
        per static instruction.
        """
        stats = self.stats
        earliest = self._next_issue

        icache = self.icache
        if icache is not None and not icache.access(pc):
            penalty = icache.config.miss_penalty
            earliest += penalty
            stats.cache_miss_cycles += penalty

        # x0 is never marked busy, so its ready time (0) never stalls
        reg_ready = self._reg_ready
        t = earliest
        for source in sources:
            ready = reg_ready[source]
            if ready > t:
                t = ready
        if t != earliest:
            stats.raw_hazard_stalls += t - earliest

        dcache = self.dcache
        if (
            dcache is not None
            and mem_address is not None
            and kind in (KIND_LOAD, KIND_STORE)
            and not dcache.access(mem_address)
        ):
            penalty = dcache.config.miss_penalty
            t += penalty
            stats.cache_miss_cycles += penalty

        try:
            complete = t + self._latency[kind]
        except KeyError:
            # not a built-in class: ParameterError from the one mapping
            complete = t + self.config.latency_for(kind)
        if dest:
            reg_ready[dest] = complete

        next_issue = t + 1
        if kind == KIND_JUMP:
            penalty = self.config.jump_penalty
            next_issue += penalty
            stats.control_flush_cycles += penalty
        elif kind == KIND_BRANCH and branch_taken:
            penalty = self.config.branch_penalty
            next_issue += penalty
            stats.control_flush_cycles += penalty
        self._next_issue = next_issue

        stats.instructions += 1
        kind_counts = stats.kind_counts
        kind_counts[kind] = kind_counts.get(kind, 0) + 1
        last_complete = self._last_complete
        if complete > last_complete:
            self._last_complete = last_complete = complete
        stats.cycles = (next_issue if next_issue > last_complete
                        else last_complete)
        return t

    @property
    def cycles(self) -> int:
        """Total cycles consumed so far (drained pipeline)."""
        return self.stats.cycles
