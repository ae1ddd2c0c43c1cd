"""Tests for the kernel builder and register pool."""

from __future__ import annotations

import pytest

from repro.errors import KernelError
from repro.kernels.builder import (
    KERNEL_REGISTER_POOL,
    KernelBuilder,
    RegisterPool,
)


class TestRegisterPool:
    def test_excludes_reserved(self):
        pool = RegisterPool(reserved=("t0", "a1"))
        taken = [pool.take(f"r{i}") for i in range(pool.available)]
        assert "t0" not in taken
        assert "a1" not in taken

    def test_exhaustion_raises_with_context(self):
        pool = RegisterPool()
        for i in range(len(KERNEL_REGISTER_POOL)):
            pool.take(f"reg{i}")
        with pytest.raises(KernelError, match="exhausted"):
            pool.take("one-too-many")

    def test_release_and_reuse(self):
        pool = RegisterPool()
        reg = pool.take("x")
        pool.release(reg)
        assert pool.take("y") == reg  # LIFO reuse

    def test_release_unowned_raises(self):
        pool = RegisterPool()
        with pytest.raises(KernelError):
            pool.release("t0")

    def test_take_many_release_many(self):
        pool = RegisterPool()
        before = pool.available
        regs = pool.take_many(5, "batch")
        assert len(set(regs)) == 5
        pool.release_many(regs)
        assert pool.available == before

    def test_pool_excludes_abi_critical(self):
        assert "zero" not in KERNEL_REGISTER_POOL
        assert "ra" not in KERNEL_REGISTER_POOL
        assert "sp" not in KERNEL_REGISTER_POOL
        assert "a0" not in KERNEL_REGISTER_POOL

    def test_operand_pointers_allocated_last(self):
        pool = RegisterPool()
        order = [pool.take(str(i))
                 for i in range(len(KERNEL_REGISTER_POOL))]
        assert order[-2:] == ["a2", "a1"]


class TestKernelBuilder:
    def test_emit_counts_mnemonics(self):
        builder = KernelBuilder("t")
        builder.r("add", "a0", "a1", "a2")
        builder.r("add", "a0", "a0", "a0")
        builder.r("sltu", "t0", "a0", "a1")
        builder.li("t1", 1 << 40)  # one source line, several instructions
        assert builder.static_counts == {"add": 2, "sltu": 1, "li": 1}
        assert builder.static_instructions == 4
        assert len(builder.program()) > 4

    def test_comments_not_counted(self):
        builder = KernelBuilder("t")
        builder.comment("hello")
        builder.i("addi", "zero", "zero", 0)
        assert builder.static_instructions == 1
        assert "# hello" in builder.build()

    def test_build_has_header(self):
        builder = KernelBuilder("mykernel")
        builder.ret()
        text = builder.build()
        assert text.startswith("# kernel: mykernel")
        assert "ret" in text

    def test_listing_takes_symbolic_registers(self):
        def emit(b, acc, x):
            b.r("mul", acc, x, x)
            b.load("ld", x, 8, "a1")

        assert KernelBuilder.listing(emit, "acc", "x") == [
            "mul acc, x, x", "ld x, 8(a1)"]

    def test_label(self):
        builder = KernelBuilder("t")
        builder.mv("t0", "zero")
        builder.label("loop")
        builder.ret()
        assert "\nloop:\n" in builder.build()
        assert builder.program().labels == {"loop": 4}
        with pytest.raises(KernelError, match="duplicate"):
            builder.label("loop")

    def test_load_immediate(self):
        builder = KernelBuilder("t")
        builder.li("t0", 42)
        assert builder.static_counts["li"] == 1

    def test_build_assembles(self):
        from repro.rv64.assembler import assemble
        from repro.rv64.isa import BASE_ISA

        builder = KernelBuilder("t")
        builder.comment("every format and pseudo-instruction")
        builder.li("t0", 123)
        builder.li("t1", -(1 << 62) + 12345)
        builder.r("add", "a0", "t0", "zero")
        builder.i("slli", "t2", "t0", 3)
        builder.i("addi", "t2", "t2", -1)
        builder.load("ld", "t3", -8, "sp")
        builder.store("sd", "t3", 16, "a0")
        builder.mv("a1", "t2")
        builder.ret()
        program = builder.program()
        assert program == assemble(builder.build(), BASE_ISA)
        assert len(program) >= 9

    def test_ise_formats_assemble(self):
        from repro.core.ise import EXTENDED_ISA
        from repro.rv64.assembler import assemble

        builder = KernelBuilder("t")
        builder.r4("maddhu", "t0", "a1", "a2", "t1")
        builder.ria("sraiadd", "t1", "t1", "t0", 57)
        assert builder.program() == assemble(builder.build(),
                                             EXTENDED_ISA)

    def test_interned_lines_share_one_instruction(self):
        interned: dict = {}
        first = KernelBuilder("a", interned)
        second = KernelBuilder("b", interned)
        for builder in (first, second):
            builder.r("add", "t0", "t1", "t2")
            builder.r("add", "t0", "t1", "t2")
        a0, a1 = first.program().instructions
        b0, b1 = second.program().instructions
        assert a0 is a1 is b0 is b1

    @pytest.mark.parametrize("call,match", [
        (lambda b: b.r("addi", "t0", "t1", "t2"), "not a R-format"),
        (lambda b: b.i("add", "t0", "t1", 3), "not a I/IS-format"),
        (lambda b: b.store("ld", "t0", 0, "a1"), "not a S-format"),
        (lambda b: b.r("add", "t0", "t1", "q7"), "unknown register 'q7'"),
        (lambda b: b.li("acc", 3), "unknown register 'acc'"),
    ])
    def test_refuses_what_the_assembler_would(self, call, match):
        with pytest.raises(KernelError, match=match):
            call(KernelBuilder("t"))
