"""AOT whole-kernel compilation: fuse a trace into limb arithmetic.

The fast execution tier.  The interpreter in :mod:`repro.rv64.machine`
fetches, decodes, executes and times every instruction on every run,
even though a generated kernel is one pure dataflow graph over its
operand values.  :func:`compile_aot_entry` *symbolically executes* the
kernel's static trace (:func:`repro.rv64.replay.compile_trace`) over
expression nodes instead of integers:

* the operand buffers become whole-operand atoms (``v0``, ``v1``);
  ``ld`` from an operand span folds into the limb-extraction expression
  ``(v0 >> bits*k) & mask``, ``ld`` from the (write-once) constant pool
  folds into the concrete constant, and ``sd``/``ld`` pairs within the
  run are store-forwarded symbolically — **no memory traffic at all**;
* every ALU/ISE instruction lowers its expression template into a
  small expression IR (:class:`Graph`): hash-consed nodes, each with
  an integer interval.  Constant folding makes address arithmetic,
  ``lui``/``auipc`` chains and mask setup vanish; hash-consing gives
  ``mul``/``mulhu`` (and the ISE ``madd*`` pairs) on the same
  operands one shared wide product; exact interval rules drop masks
  that cannot change a value and turn carry compares into shifts, and
  exact split-add identities fold each column's multiply-accumulate
  chain into one wide sum that is split once;
* wide-word lifting (:mod:`repro.rv64.lift`) then re-expresses the
  result, its limbs and the register file over the wide integers the
  limbs are windows of: a Montgomery multiplication becomes one wide
  product and a one-shot Montgomery reduction, a modular addition one
  wide sum and a select;
* the surviving dataflow is emitted as a handful of fused wide-int
  expressions (shared nodes materialise as temporaries, deep chains
  are cut at a depth cap to stay inside CPython's parser limits),
  **value first**: the thunk computes the result value and returns it
  alone, before any read-out; the trace's **precomputed static cycle
  accounting** is the same for every run, so it travels beside the
  thunk, on its :class:`AotEntry`;
* the read-out -- result limbs, the full 32-register writeback and
  architectural ``pc``/``halted`` -- follows in the same function and
  runs only when the thunk is called with its read-out flag, so the
  differential suite's register-file comparison and the golden cycle
  snapshot still hold bit-for-bit against the interpreter (see
  ``tests/differential/``) while a field op pays for its value alone.

Expression semantics come from one template table
(:mod:`repro.rv64.templates`): the base ALU templates below and the ones
extension packages register via :func:`register_expr`; each is parsed
once into a lowering function.
Anything without a template falls back to the *extracted* interpreter
``op`` lambda bound into the namespace (correct, but one call per
instruction).  Such lambdas, and templates outside the IR, become
opaque nodes with an unknown interval, which no rule rewrites through
(``docs/SIMULATOR.md``, "The aot expression IR").

Every :class:`~repro.kernels.runner.KernelRunner` built for aot fuses
its own thunk from its own machine's trace; no thunk outlives the
process, so its static cost is always the one the current timing model
computed.

Compilation *refuses* with :class:`AotError` (``reason`` is one of
:data:`AotError.REASONS`) whenever whole-kernel fusion cannot be proven
exact: no static trace, an instruction without a template or extracted
lambda, a data-dependent address, a memory access outside the
forwardable regions, or a codegen failure.  The entry thunk is the
tier's only form: a :class:`~repro.kernels.runner.KernelRunner` aot run
is served by its thunk or, when it has none, by the interpreter (see
``docs/ROBUSTNESS.md``).
"""

from __future__ import annotations

import sys
import threading
from dataclasses import dataclass
from typing import Callable, TYPE_CHECKING

from repro.errors import SimulationError
from repro.rv64.bits import MASK64, s32, u64
from repro.rv64.expr import (
    Emitter,
    ExpressionError,
    Graph,
    Node,
    compile_lowering,
    count_uses,
)
from repro.rv64.isa import FMT_I, FMT_I_SHIFT, FMT_R, InstrSpec
from repro.rv64.lift import lift
from repro.rv64.machine import DEFAULT_STACK_TOP, HALT_ADDRESS
from repro.rv64.templates import EXPRS as _EXPRS, register_expr

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.rv64.machine import Machine


class AotError(SimulationError):
    """The trace cannot be fused into a whole-kernel aot function.

    ``reason`` is a short machine-readable code used by telemetry's
    ``aot_rejects_total{reason=...}`` counter; the caller demotes to
    the interpreter.
    """

    code = "aot"

    #: Every reason aot compilation can refuse with (mirrored by the
    #: refusal tests in ``tests/test_replay_fallback.py``).
    REASONS = ("not_replayable", "unsupported_op", "dynamic_address",
               "unsupported_access", "codegen_error")

    def __init__(self, message: str, *, reason: str = "other") -> None:
        super().__init__(message)
        self.reason = reason


#: Run-level aot → interpreter demotion reasons recorded by
#: ``aot_demotions_total``: an aot request on a runner without a live
#: entry thunk (refused, never built, or invalidated) is
#: ``not_compilable``; an attached trace hook is ``trace_hooks``.
DEMOTION_REASONS = ("not_compilable", "trace_hooks")


#: Recursion headroom for rendering very long dependence chains (one
#: temporary materialisation per node still recurses through the
#: emitter); RecursionError beyond this demotes to the interpreter.
_RECURSION_LIMIT = 10_000


# ---------------------------------------------------------------------------
# Expression registry
# ---------------------------------------------------------------------------

#: Base R-type templates over ``{a}``/``{b}`` (register values in
#: [0, 2^64)); ``{sa}``/``{sb}`` are their signed reinterpretations and
#: ``M`` is the 64-bit mask.
_ALU_R_EXPR = {
    "add": "({a} + {b}) & M",
    "sub": "({a} - {b}) & M",
    "xor": "{a} ^ {b}",
    "or": "{a} | {b}",
    "and": "{a} & {b}",
    "slt": "1 if {sa} < {sb} else 0",
    "sltu": "1 if {a} < {b} else 0",
    "sll": "({a} << ({b} & 63)) & M",
    "srl": "{a} >> ({b} & 63)",
    "sra": "({sa} >> ({b} & 63)) & M",
    "mul": "({a} * {b}) & M",
    "mulh": "(({sa} * {sb}) >> 64) & M",
    "mulhsu": "(({sa} * {b}) >> 64) & M",
    "mulhu": "({a} * {b}) >> 64",
}

#: Base I-type templates over ``{a}`` and the immediate, as ``{imm}``
#: (signed), ``{uimm}`` (its u64 view) or ``{sh}`` (shift amount).
_ALU_I_EXPR = {
    "addi": "({a} + {imm}) & M",
    "xori": "({a} ^ {imm}) & M",
    "ori": "{a} | {uimm}",
    "andi": "{a} & {uimm}",
    "slti": "1 if {sa} < {imm} else 0",
    "sltiu": "1 if {a} < {uimm} else 0",
    "slli": "({a} << {sh}) & M",
    "srli": "{a} >> {sh}",
    "srai": "({sa} >> {sh}) & M",
}

for _mnemonic, _expr in _ALU_R_EXPR.items():
    register_expr(_mnemonic, "r", _expr)
for _mnemonic, _expr in _ALU_I_EXPR.items():
    register_expr(_mnemonic, "i", _expr)
# addiw shows up in generated address arithmetic on some variants; its
# sign-extended 32-bit wrap keeps it inside the expression IR, where the
# extracted-lambda fallback would be an opaque call.
register_expr(
    "addiw", "i",
    "(((({a} + {imm}) & 0xffffffff) ^ 0x80000000) - 0x80000000) & M")

#: ``(kind, expr) -> lowering``; keyed by the registry entry itself so
#: a re-registered template is re-parsed.  Lowerings are pure, so
#: sharing them across concurrent compiles is safe.
_LOWERINGS: dict[tuple[str, str], Callable] = {}


def _lowering(entry: tuple[str, str]) -> Callable:
    lower = _LOWERINGS.get(entry)
    if lower is None:
        lower = _LOWERINGS.setdefault(entry, compile_lowering(*entry))
    return lower


def _extract_alu_op(spec: InstrSpec):
    """Recover the pure ``op`` lambda inside an ``_alu_reg``/``_alu_imm``
    execute closure, so the fallback for a mnemonic without a template
    is *the same object* as the interpreter's semantics."""
    fn = spec.execute
    code = getattr(fn, "__code__", None)
    if code is not None and code.co_freevars == ("op",):
        return fn.__closure__[0].cell_contents  # type: ignore[index]
    return None


# ---------------------------------------------------------------------------
# Compile-time memory
# ---------------------------------------------------------------------------

class _ConcreteMemory:
    """Compile-time memory for the fused entry thunk.

    Stores are forwarded symbolically (``{address: node}``); loads
    resolve to a forwarded store, a limb extraction from an operand
    atom, or a concrete constant from the write-once constant pool.
    Anything else refuses: a data-dependent address, a sub-word or
    misaligned access, or a read of memory whose content varies between
    runs (scratch before its first store, the previous run's result).
    """

    def __init__(self, graph: Graph, mem, arg_plan, operand_atoms,
                 bits: int, const_window: tuple[int, int]) -> None:
        self._graph = graph
        self._mem = mem
        self._spans = tuple(
            (address, limbs) for address, limbs, _reg in arg_plan)
        self._operands = tuple(operand_atoms)
        self._bits = bits
        self._mask = (1 << bits) - 1
        self._const_base, self._const_size = const_window
        self.stores: dict[int, Node] = {}

    def _address(self, node: Node, what: str) -> int:
        if node.const is None:
            raise AotError(
                f"{what} address is data-dependent; whole-kernel "
                f"fusion needs static addressing",
                reason="dynamic_address",
            )
        address = node.const
        if address & 7:
            raise AotError(
                f"misaligned {what} at {address:#x}",
                reason="unsupported_access",
            )
        return address

    def load(self, address_node: Node, size: int, signed: bool) -> Node:
        if size != 8 or signed:
            raise AotError(
                f"{size}-byte load: only aligned ld/sd fuse",
                reason="unsupported_access",
            )
        address = self._address(address_node, "load")
        forwarded = self.stores.get(address)
        if forwarded is not None:
            return forwarded
        graph = self._graph
        for index, (base, limbs) in enumerate(self._spans):
            if base <= address < base + 8 * limbs:
                shift = self._bits * ((address - base) // 8)
                return graph.and_(
                    graph.shr(self._operands[index], graph.const(shift)),
                    graph.const(self._mask))
        if (self._const_base <= address
                and address + 8 <= self._const_base + self._const_size):
            return graph.const(self._mem.load(address, 8))
        raise AotError(
            f"load at {address:#x} outside the operand spans, the "
            f"constant pool, and the run's own stores (content is not "
            f"a static property of the kernel)",
            reason="unsupported_access",
        )

    def store(self, address_node: Node, value_node: Node,
              size: int) -> None:
        if size != 8:
            raise AotError(
                f"{size}-byte store: only aligned ld/sd fuse",
                reason="unsupported_access",
            )
        address = self._address(address_node, "store")
        if (self._const_base <= address
                < self._const_base + self._const_size):
            raise AotError(
                f"store into the constant pool at {address:#x} breaks "
                f"the write-once assumption concrete reads rely on",
                reason="unsupported_access",
            )
        self.stores[address] = value_node

    def result_limbs(self, result_addr: int, out_limbs: int) -> list:
        nodes = []
        for index in range(out_limbs):
            node = self.stores.get(result_addr + 8 * index)
            if node is None:
                raise AotError(
                    f"result limb {index} is never stored; cannot "
                    f"prove the read-out",
                    reason="unsupported_access",
                )
            nodes.append(node)
        return nodes


# ---------------------------------------------------------------------------
# Symbolic execution
# ---------------------------------------------------------------------------

_LOAD_SIZES = {"ld": (8, False), "lb": (1, True), "lbu": (1, False),
               "lh": (2, True), "lhu": (2, False), "lw": (4, True),
               "lwu": (4, False)}
_STORE_SIZES = {"sd": 8, "sb": 1, "sh": 2, "sw": 4}


class _SymbolicRun:
    """Step the trace's instructions over expression nodes of *graph*
    (the compile's own cons table)."""

    def __init__(self, graph: Graph, regs: list,
                 memory: _ConcreteMemory) -> None:
        self.graph = graph
        self.regs = regs
        self.memory = memory
        self.calls: dict[str, Callable] = {}

    def _write(self, rd: int, node: Node) -> None:
        if rd != 0:  # x0 is hard-wired (the trace drops these anyway)
            self.regs[rd] = node

    def _address_node(self, ins) -> Node:
        base = self.regs[ins.rs1]
        if ins.imm == 0:
            return base
        graph = self.graph
        return graph.and_(graph.add(base, graph.const(ins.imm)),
                          graph.const(MASK64))

    def _call(self, fn: Callable, children: tuple) -> Node:
        if all(child.const is not None for child in children):
            return self.graph.const(
                fn(*[child.const for child in children]))
        name = f"_xop{len(self.calls)}"
        self.calls[name] = fn
        args = ", ".join("{%d}" % i for i in range(len(children)))
        return self.graph.opaque(f"{name}({args})", children)

    def step(self, pc: int, ins, spec) -> None:
        regs = self.regs
        mnemonic = ins.mnemonic
        if mnemonic == "lui":
            self._write(ins.rd, self.graph.const(u64(s32(ins.imm << 12))))
            return
        if mnemonic == "auipc":
            self._write(ins.rd,
                        self.graph.const(u64(pc + s32(ins.imm << 12))))
            return
        load_shape = _LOAD_SIZES.get(mnemonic)
        if load_shape is not None:
            size, signed = load_shape
            self._write(ins.rd, self.memory.load(
                self._address_node(ins), size, signed))
            return
        store_size = _STORE_SIZES.get(mnemonic)
        if store_size is not None:
            self.memory.store(
                self._address_node(ins), regs[ins.rs2], store_size)
            return
        entry = _EXPRS.get(mnemonic)
        if entry is not None:
            if mnemonic == "addi" and ins.imm == 0:
                self._write(ins.rd, regs[ins.rs1])  # mv
                return
            lower = _lowering(entry)
            kind = entry[0]
            if kind == "r":
                node = lower(self.graph, regs[ins.rs1], regs[ins.rs2])
            elif kind == "i":
                node = lower(self.graph, regs[ins.rs1], ins.imm)
            elif kind == "r4":
                node = lower(self.graph, regs[ins.rs1], regs[ins.rs2],
                             regs[ins.rs3])
            else:  # "ria"
                node = lower(self.graph, regs[ins.rs1], regs[ins.rs2],
                             ins.imm)
            self._write(ins.rd, node)
            return
        # no template: bind the extracted interpreter lambda so the
        # fused function keeps interpreter semantics by construction
        op = _extract_alu_op(spec)
        if op is not None:
            if spec.fmt == FMT_R:
                node = self._call(op, (regs[ins.rs1], regs[ins.rs2]))
            elif spec.fmt in (FMT_I, FMT_I_SHIFT):
                node = self._call(
                    op, (regs[ins.rs1], self.graph.const(ins.imm)))
            else:
                raise AotError(
                    f"no aot expression for {mnemonic} ({spec.fmt})",
                    reason="unsupported_op",
                )
            self._write(ins.rd, node)
            return
        raise AotError(
            f"no aot expression for {mnemonic} at {pc:#x}; "
            f"whole-kernel fusion cannot represent it",
            reason="unsupported_op",
        )


# ---------------------------------------------------------------------------
# Emission
# ---------------------------------------------------------------------------

def _build(source: str, namespace: dict, *, tag: str,
           function: str) -> Callable:
    try:
        code = compile(source, f"<aot:{tag}>", "exec")
        scope = dict(namespace)
        exec(code, scope)
        return scope[function]
    except AotError:
        raise
    except Exception as exc:
        raise AotError(
            f"generated source for {tag} failed to build: {exc}",
            reason="codegen_error",
        ) from exc


class _deep_recursion:
    """Headroom for rendering long dependence chains.

    The limit is process-wide and runners fuse kernels on several
    threads at once, so the guard is reference-counted: the first user
    raises the limit, and only the last one out restores it.
    """

    _lock = threading.Lock()
    _users = 0
    _prior = 0

    def __enter__(self) -> None:
        cls = _deep_recursion
        with cls._lock:
            if cls._users == 0:
                cls._prior = sys.getrecursionlimit()
                sys.setrecursionlimit(max(cls._prior, _RECURSION_LIMIT))
            cls._users += 1

    def __exit__(self, *_exc_info) -> None:
        cls = _deep_recursion
        with cls._lock:
            cls._users -= 1
            if cls._users == 0:
                sys.setrecursionlimit(cls._prior)


# ---------------------------------------------------------------------------
# Compiled entries
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AotEntry:
    """One kernel fused into an entry thunk, plus its static cost.

    ``fn(*operands)`` returns the result value or ``None`` (liveness
    guard tripped / operand out of range — the runner falls back to the
    interpreter path, whose limb marshalling raises on an out-of-range
    operand).  ``cycles`` and ``instructions_retired`` are the static
    cost of every run the thunk serves (``cycles`` is ``None`` when the
    trace has no cycle count; no run may then be booked from it).
    ``fn(*operands, True)`` is the
    read-out of the same run: it skips the liveness guard, writes the
    register file, ``pc`` and ``halted`` the interpreter would leave,
    and returns the result limbs.
    """

    entry: int
    fn: Callable
    source: str
    cycles: int | None
    instructions_retired: int


# ---------------------------------------------------------------------------
# Entry-thunk compilation (the KernelRunner fast path)
# ---------------------------------------------------------------------------

def compile_aot_entry(
    machine: Machine,
    entry: int,
    *,
    arg_plan,
    result_reg: int,
    result_addr: int,
    out_limbs: int,
    radix,
    const_window: tuple[int, int],
    stack_top: int = DEFAULT_STACK_TOP,
    trace=None,
) -> AotEntry:
    """Fuse the kernel at *entry* into one whole-kernel entry thunk.

    The generated function takes the operand *values* directly (no limb
    marshalling, no memory writes, no register zeroing loop), computes
    the result value as fused wide-int expressions bound to one local
    (``_v``), and returns ``_v`` alone: the trace's precomputed static
    cost is the returned entry's ``cycles``/``instructions_retired``,
    the same for every run.  Called with its read-out flag
    (``fn(*operands, True)``), the same function continues past that
    return: it computes the result limbs, writes the full 32-register
    architectural state back (so the differential suite's register-file
    comparison holds), sets ``pc``/``halted`` and returns the limbs.
    One source, one function: the read-out is not a second thunk.

    The liveness guard re-reads ``machine._aot_entry_cache`` on every
    value call: invalidation pops the entry, the thunk returns ``None``,
    and the runner demotes the run to the interpreter.  The range guard
    that follows is one shift per operand (``v >> W``, non-zero exactly
    when ``v`` lies outside ``[0, 2^W)``, a negative ``v`` included): an
    operand out of range returns ``None`` too, and the interpreter
    path's limb marshalling raises on it.  The read-out
    skips the guard, so a finished run's limbs stay readable after its
    thunk was invalidated or replaced.

    *trace* overrides the machine's cached trace (fault injection fuses
    a poisoned copy this way); by default the cached trace is used.
    """
    if trace is None:
        trace = machine._trace_for(entry)
    if trace is None:
        raise AotError(
            f"no static trace for entry {entry:#x}: the aot tier "
            f"fuses straight-line traces",
            reason="not_replayable",
        )
    bits = radix.bits
    graph = Graph()
    regs: list[Node] = [graph.const(0)] * 32
    regs[1] = graph.const(HALT_ADDRESS)
    regs[2] = graph.const(stack_top)
    operand_atoms = []
    for index, (address, limbs, reg_index) in enumerate(arg_plan):
        regs[reg_index] = graph.const(address)
        # the thunk's range guard below proves this interval
        operand_atoms.append(
            graph.atom(f"v{index}", (1 << (bits * limbs)) - 1))
    regs[result_reg] = graph.const(result_addr)

    memory = _ConcreteMemory(graph, machine.state.mem, arg_plan,
                             operand_atoms, bits, const_window)
    run = _SymbolicRun(graph, regs, memory)
    with _deep_recursion():
        try:
            for pc, ins, spec in trace.step_instructions:
                run.step(pc, ins, spec)
            limb_nodes = memory.result_limbs(result_addr, out_limbs)
            # from_limbs uses addition, not OR: limbs may be non-canonical
            # (delayed carries) and overlap bit ranges
            value_node = limb_nodes[0]
            for index in range(1, out_limbs):
                value_node = graph.add(value_node, graph.shl(
                    limb_nodes[index], graph.const(bits * index)))

            roots = lift(graph, [*limb_nodes, *run.regs, value_node])
            limb_nodes = roots[:out_limbs]
            reg_nodes = roots[out_limbs:-1]
            value_node = roots[-1]
            if out_limbs == 1:  # the value is the limb
                roots = roots[:-1]
            emitter = Emitter(count_uses(roots))
            # the value first: everything rendered before the read-out
            # branch is what a field op pays for
            emitter.lines.append(f"_v = {emitter.ref(value_node)}")
            emitter.alias(value_node, "_v")
            hot = len(emitter.lines)
            for index, node in enumerate(limb_nodes):
                emitter.lines.append(
                    f"_w{index} = {emitter.ref(node)}")
                emitter.alias(node, f"_w{index}")
            reg_refs = [emitter.ref(node) for node in reg_nodes]
        except RecursionError as exc:
            raise AotError(
                f"expression graph for {entry:#x} is too deep to "
                f"render",
                reason="codegen_error",
            ) from exc
        except ExpressionError as exc:
            raise AotError(str(exc), reason="codegen_error") from exc

    args = ", ".join(f"v{i}" for i in range(len(arg_plan)))
    lines = [
        f"def __aot_entry({args}, _readout=False, _get=_live.get, "
        f"_regs=_regs, _st=_st):",
        f"    if _get({entry}) is None and not _readout:",
        "        return None",
    ]
    for index, (_address, limbs, _reg_index) in enumerate(arg_plan):
        # one shift: v >> W is -1 for a negative v, so it is non-zero
        # exactly when v lies outside [0, 2^W)
        lines.append(f"    if v{index} >> {bits * limbs}:")
        lines.append("        return None")  # generic path raises
    for line in emitter.lines[:hot]:
        lines.append("    " + line)
    lines.append("    if not _readout:")
    lines.append("        return _v")
    for line in emitter.lines[hot:]:
        lines.append("    " + line)
    lines.append(f"    _regs[:] = ({', '.join(reg_refs)})")
    lines.append(f"    _st.pc = {trace.exit_pc}")
    lines.append(f"    _st.halted = {trace.halts}")
    limbs_expr = ("(" + ", ".join(f"_w{i}" for i in range(out_limbs))
                  + ("," if out_limbs == 1 else "") + ")")
    lines.append(f"    return {limbs_expr}")
    source = "\n".join(lines) + "\n"
    namespace = {
        "M": MASK64,
        "_live": machine._aot_entry_cache,
        "_regs": machine.state.regs._regs,
        "_st": machine.state,
    }
    namespace.update(run.calls)
    with _deep_recursion():
        fn = _build(source, namespace, tag=f"{entry:#x}|entry",
                    function="__aot_entry")
    return AotEntry(
        entry=entry,
        fn=fn,
        source=source,
        cycles=trace.cycles,
        instructions_retired=trace.instructions_retired,
    )

