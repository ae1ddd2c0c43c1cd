"""Turn planned fault sites into armed corruptions of live runners.

:func:`arm_fault` resolves a :class:`~repro.fault.plan.FaultSite`'s raw
selectors against one :class:`~repro.kernels.runner.KernelRunner` and
installs the corruption:

* interpreter sites (``register_flip``, ``memory_flip``) attach a
  one-shot :meth:`Machine.add_trace_hook` that fires at a chosen
  retired-instruction index — attaching a hook also makes aot requests
  fall back to the interpreter, so the flip lands mid-kernel exactly as
  a transient hardware fault would;
* trace sites (``replay_step_skip``, ``replay_closure_corrupt``,
  ``replay_cycles_corrupt`` — the names date from the retired replay
  engine and are kept so seeds and reports stay comparable) poison a
  *copy* of the kernel's static trace: step *k* is skipped, a bit of
  ``rd`` is flipped right after step *k*, or the precomputed cycle count
  is altered.  The runner's fused entry thunk — the only aot form — is
  then re-fused from that copy, so the corruption is *persistent* (it
  stays until recovery invalidates the trace) and reaches every aot
  run.  A copy that no longer fuses is counted by
  ``aot_rejects_total{reason}`` and leaves the runner without a thunk:
  its runs use the (untouched) interpreter, and the fault's description
  says so;
* ``output_corrupt`` installs a one-shot hook on the runner's result
  read-out seam, perturbing what the caller sees independently of the
  engine.

Every armed fault is recorded as a telemetry event
(``faults_injected_total{site,kernel}``) and returns an
:class:`ArmedFault` whose ``disarm()`` restores the pristine state
(idempotent; campaigns call it in a ``finally``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

from repro import telemetry
from repro.errors import FaultError
from repro.fault.plan import (
    FaultSite,
    SITE_MEMORY_FLIP,
    SITE_OUTPUT_CORRUPT,
    SITE_REGISTER_FLIP,
    SITE_REPLAY_CLOSURE,
    SITE_REPLAY_CYCLES,
    SITE_REPLAY_SKIP,
)
from repro.kernels.layout import RESULT_ADDR
from repro.kernels.runner import KernelRunner
from repro.rv64.aot import AotError
from repro.rv64.isa import Instruction
from repro.rv64.replay import _is_terminal_ret


@dataclass(frozen=True)
class ArmedFault:
    """A live fault: what was armed, and how to take it back out."""

    site: FaultSite
    kernel: str
    description: str
    disarm: Callable[[], None]


def _write_candidates(runner: KernelRunner) -> list[tuple[int, int]]:
    """(retired-instruction index, rd) pairs of the kernel's register
    writes, excluding x0 (hard-wired) and ra/sp (control plumbing)."""
    program = runner.machine._program
    pc = runner.entry
    index = 0
    candidates: list[tuple[int, int]] = []
    while True:
        image_entry = program.get(pc)
        if image_entry is None:
            break
        ins, _spec, _sources, dest = image_entry
        if _is_terminal_ret(ins) or ins.mnemonic == "ebreak":
            break
        if dest not in (0, 1, 2):
            candidates.append((index, dest))
        pc += 4
        index += 1
    return candidates


def _one_shot_hook(machine, fire_index: int, payload) -> Callable:
    """A trace hook calling *payload(state)* once, at *fire_index*."""
    counter = 0
    fired = False

    def hook(state, ins) -> None:
        nonlocal counter, fired
        if not fired and counter == fire_index:
            fired = True
            payload(state)
        counter += 1

    machine.add_trace_hook(hook)
    return hook


def _healthy_trace(runner: KernelRunner):
    trace = runner.machine._trace_for(runner.entry)
    if trace is None:
        raise FaultError(
            f"{runner.kernel.name} has no static trace under this "
            f"pipeline configuration; trace faults need a straight-line "
            f"kernel with static timing"
        )
    return trace


def _arm_poisoned(runner: KernelRunner, site: FaultSite, poisoned,
                  description: str) -> ArmedFault:
    """Re-fuse *runner*'s entry thunk from the *poisoned* trace copy.

    The copy replaces the cached trace and, when the runner holds an
    entry thunk, the thunk is rebuilt from it.  A copy that no longer
    fuses records ``aot_rejects_total{reason}`` and leaves the runner
    without a thunk, so its aot runs demote to the untouched
    interpreter.  The returned fault's ``disarm`` puts the healthy trace and thunk back.
    """
    machine = runner.machine
    entry = runner.entry
    saved = (machine._trace_cache.get(entry),
             machine._aot_entry_cache.get(entry),
             runner._aot_thunk)

    machine._trace_cache[entry] = poisoned
    if runner._aot_thunk is not None:
        machine._aot_entry_cache.pop(entry, None)
        runner._aot_thunk = None
        try:
            fused = runner.fuse_entry(poisoned)
        except AotError as exc:
            telemetry.record("aot_rejects_total", exc.reason)
            description += (f" (the poisoned trace does not fuse: "
                            f"{exc.reason}; runs use the interpreter)")
        else:
            machine._aot_entry_cache[entry] = fused
            runner._aot_thunk = fused.fn

    def restore() -> None:
        # harmless if recovery already rebuilt the runner: the poisoned
        # machine is unreachable then, and restoring it changes nothing
        trace, fused, thunk = saved
        for cache, value in ((machine._trace_cache, trace),
                             (machine._aot_entry_cache, fused)):
            if value is None:
                cache.pop(entry, None)
            else:
                cache[entry] = value
        runner._aot_thunk = thunk

    return ArmedFault(site=site, kernel=runner.kernel.name,
                      description=description, disarm=restore)


def arm_fault(runner: KernelRunner, site: FaultSite) -> ArmedFault:
    """Arm *site* on *runner*; returns the disarm handle."""
    kind = site.site
    kernel = runner.kernel.name
    machine = runner.machine

    if kind == SITE_REGISTER_FLIP:
        candidates = _write_candidates(runner)
        if not candidates:
            raise FaultError(f"{kernel}: no register-write sites")
        index, reg = candidates[site.step % len(candidates)]
        mask = 1 << (site.bit % 64)

        def flip_register(state) -> None:
            state.regs._regs[reg] ^= mask

        hook = _one_shot_hook(machine, index, flip_register)
        return ArmedFault(
            site=site, kernel=kernel,
            description=(f"flip bit {site.bit % 64} of x{reg} after "
                         f"instruction {index}"),
            disarm=lambda: machine.remove_trace_hook(hook),
        )

    if kind == SITE_MEMORY_FLIP:
        candidates = _write_candidates(runner)
        index = (candidates[site.step % len(candidates)][0]
                 if candidates else 0)
        offset = site.lane % (8 * runner.kernel.output_limbs)
        address = RESULT_ADDR + offset
        mask = 1 << (site.bit % 8)

        def flip_byte(state) -> None:
            raw = state.mem.read_bytes(address, 1)
            state.mem.write_bytes(address, bytes((raw[0] ^ mask,)))

        hook = _one_shot_hook(machine, index, flip_byte)
        return ArmedFault(
            site=site, kernel=kernel,
            description=(f"flip bit {site.bit % 8} of result byte "
                         f"{offset} after instruction {index}"),
            disarm=lambda: machine.remove_trace_hook(hook),
        )

    if kind == SITE_REPLAY_SKIP:
        trace = _healthy_trace(runner)
        steps = trace.step_instructions
        k = site.step % len(steps)
        poisoned = replace(trace,
                           step_instructions=steps[:k] + steps[k + 1:])
        return _arm_poisoned(runner, site, poisoned,
                             f"skip trace step {k}/{len(steps)}")

    if kind == SITE_REPLAY_CLOSURE:
        trace = _healthy_trace(runner)
        candidates = _write_candidates(runner)
        if not candidates:
            raise FaultError(f"{kernel}: no register-write sites")
        reg = candidates[site.lane % len(candidates)][1]
        mask = 1 << (site.bit % 64)
        steps = trace.step_instructions
        k = site.step % len(steps)
        # an extra xori of the full 64-bit mask right after step k (not
        # encodable, but the fused code only needs its semantics)
        flip = (steps[k][0], Instruction("xori", rd=reg, rs1=reg,
                                         imm=mask), machine.isa["xori"])
        poisoned = replace(
            trace,
            step_instructions=steps[:k + 1] + (flip,) + steps[k + 1:])
        return _arm_poisoned(runner, site, poisoned,
                             f"trace step {k} additionally flips bit "
                             f"{site.bit % 64} of x{reg}")

    if kind == SITE_REPLAY_CYCLES:
        trace = _healthy_trace(runner)
        if trace.cycles is None:
            raise FaultError(
                f"{kernel}: trace has no static cycle count to corrupt"
            )
        corrupted = max(1, trace.cycles + (site.delta if site.bit % 2
                                           else -site.delta))
        if corrupted == trace.cycles:
            corrupted += 1
        return _arm_poisoned(runner, site,
                             replace(trace, cycles=corrupted),
                             f"static cycle count {trace.cycles} -> "
                             f"{corrupted}")

    if kind == SITE_OUTPUT_CORRUPT:
        fired = False
        bit = site.bit % 57  # within every radix's limb width

        def perturb(limbs):
            nonlocal fired
            if fired:
                return limbs
            fired = True
            i = site.lane % len(limbs)
            return (limbs[:i] + (limbs[i] ^ (1 << bit),)
                    + limbs[i + 1:])

        runner.set_fault_hook(perturb)
        return ArmedFault(
            site=site, kernel=kernel,
            description=(f"flip bit {bit} of output limb "
                         f"{site.lane % runner.kernel.output_limbs}"),
            disarm=runner.clear_fault_hook,
        )

    raise FaultError(f"unknown fault site {kind!r}")


def arm_and_record(runner: KernelRunner, site: FaultSite) -> ArmedFault:
    """:func:`arm_fault` plus the telemetry injection event."""
    armed = arm_fault(runner, site)
    telemetry.record("faults_injected_total", site.site, armed.kernel)
    return armed
