"""Unit tests for the sparse paged memory."""

from __future__ import annotations

import re

import pytest
from hypothesis import given, strategies as st

from repro.errors import MemoryAccessError
from repro.rv64.memory import Memory, PAGE_SIZE


class TestByteAccess:
    def test_default_zero(self):
        mem = Memory()
        assert mem.load_u8(0x1234) == 0
        assert mem.load_u64(0x8000) == 0

    def test_store_load_u8(self):
        mem = Memory()
        mem.store_u8(10, 0xAB)
        assert mem.load_u8(10) == 0xAB

    def test_little_endian(self):
        mem = Memory()
        mem.store_u32(0x100, 0x11223344)
        assert mem.load_u8(0x100) == 0x44
        assert mem.load_u8(0x103) == 0x11

    def test_cross_page_write(self):
        mem = Memory()
        base = PAGE_SIZE - 4
        mem.write_bytes(base, bytes(range(8)))
        assert mem.read_bytes(base, 8) == bytes(range(8))

    def test_truncation(self):
        mem = Memory()
        mem.store_u8(0, 0x1FF)
        assert mem.load_u8(0) == 0xFF


class TestAlignment:
    def test_misaligned_raises(self):
        mem = Memory()
        with pytest.raises(MemoryAccessError):
            mem.load_u64(4)
        with pytest.raises(MemoryAccessError):
            mem.store_u32(2, 0)

    def test_misaligned_allowed_when_relaxed(self):
        mem = Memory(enforce_alignment=False)
        mem.store_u64(4, 0x1122334455667788)
        assert mem.load_u64(4) == 0x1122334455667788

    def test_address_bounds(self):
        mem = Memory()
        with pytest.raises(MemoryAccessError):
            mem.load(-8, 8)
        with pytest.raises(MemoryAccessError):
            mem.load((1 << 64) - 4, 8)


TOP = 1 << 64


def outside(address: int, size: int) -> str:
    """The bounds error text, exactly."""
    return re.escape(f"address {address:#x} (+{size}) outside 64-bit space")


class TestInPageEdges:
    """Typed accesses read or write one page in place; only
    page-crossing ones take the byte path.  Every value and error
    below is what the byte path gave for every access."""

    @pytest.mark.parametrize("size", [1, 2, 4, 8])
    def test_last_word_of_a_page(self, size):
        mem = Memory()
        last = 3 * PAGE_SIZE - size
        value = int.from_bytes(bytes(range(0xA1, 0xA1 + size)), "little")
        mem.store(last, value, size)
        assert mem.load(last, size) == value
        assert mem.read_bytes(last, size + 1) == \
            value.to_bytes(size, "little") + b"\x00"
        assert mem.touched_pages == 1  # reading the next page allocates none

    @pytest.mark.parametrize("signed", [False, True])
    @pytest.mark.parametrize("size", [1, 2, 4, 8])
    def test_typed_load_of_an_untouched_page_allocates_none(self, size,
                                                            signed):
        mem = Memory()
        assert mem.load(5 * PAGE_SIZE + 8, size, signed=signed) == 0
        assert mem.load(PAGE_SIZE - size, size, signed=signed) == 0
        assert mem.read_bytes(PAGE_SIZE - 3, 2 * PAGE_SIZE) == \
            bytes(2 * PAGE_SIZE)
        assert mem.touched_pages == 0

    def test_page_crossing_with_alignment_relaxed(self):
        mem = Memory(enforce_alignment=False)
        mem.store(PAGE_SIZE - 4, 0x1122334455667788, 8)
        assert mem.load(PAGE_SIZE - 4, 8) == 0x1122334455667788
        assert mem.read_bytes(PAGE_SIZE - 4, 8).hex() == "8877665544332211"
        assert mem.load(PAGE_SIZE, 4) == 0x11223344
        assert mem.load(PAGE_SIZE - 3, 4, signed=True) == \
            int.from_bytes(bytes.fromhex("77665544"), "little", signed=True)
        assert mem.touched_pages == 2

    def test_misaligned_in_page_access_when_relaxed(self):
        mem = Memory(enforce_alignment=False)
        mem.store(0x1003, 0xDEADBEEF, 4)
        assert mem.read_bytes(0x1003, 4).hex() == "efbeadde"
        assert mem.load(0x1003, 4) == 0xDEADBEEF

    @pytest.mark.parametrize("relaxed", [False, True])
    def test_top_of_the_address_space(self, relaxed):
        mem = Memory(enforce_alignment=not relaxed)
        assert mem.load(TOP - 8, 8) == 0
        mem.store(TOP - 8, 0x0102030405060708, 8)
        assert mem.load(TOP - 8, 8) == 0x0102030405060708
        assert mem.load(TOP - 1, 1) == 0x01
        with pytest.raises(MemoryAccessError, match=outside(TOP - 7, 8)):
            mem.load(TOP - 7, 8)
        with pytest.raises(MemoryAccessError, match=outside(TOP - 7, 8)):
            mem.store(TOP - 7, 1, 8)
        with pytest.raises(MemoryAccessError, match=outside(TOP, 1)):
            mem.load(TOP, 1)

    @pytest.mark.parametrize("relaxed", [False, True])
    @pytest.mark.parametrize("address,size", [(-8, 8), (-1, 1), (-4, 2)])
    def test_negative_addresses(self, relaxed, address, size):
        mem = Memory(enforce_alignment=not relaxed)
        with pytest.raises(MemoryAccessError,
                           match=outside(address, size)):
            mem.load(address, size)
        with pytest.raises(MemoryAccessError,
                           match=outside(address, size)):
            mem.store(address, 1, size)
        assert mem.touched_pages == 0

    def test_misaligned_error_text(self):
        mem = Memory()
        with pytest.raises(MemoryAccessError, match=re.escape(
                "misaligned 8-byte access at 0x1004")):
            mem.load(0x1004, 8)
        with pytest.raises(MemoryAccessError, match=re.escape(
                "misaligned 2-byte access at 0x1001")):
            mem.store(0x1001, 0, 2)

    def test_store_truncated_to_size(self):
        mem = Memory()
        mem.store_u64(0x2000, (1 << 64) - 1)
        mem.store(0x2000, 0x1_2345_6789, 4)
        assert mem.load(0x2000, 4) == 0x2345_6789
        assert mem.load(0x2000, 8) == 0xFFFF_FFFF_2345_6789
        mem.store(0x2008, -1, 2)
        assert mem.load(0x2008, 8) == 0xFFFF
        mem.store(0x2010, 1 << 70 | 0xAB, 1)
        assert mem.read_bytes(0x2010, 2) == b"\xab\x00"

    @pytest.mark.parametrize("size", [3, 16])
    def test_untyped_sizes_take_the_byte_path(self, size):
        mem = Memory(enforce_alignment=False)
        value = (1 << (8 * size)) - 2
        mem.store(0x3001, value, size)
        assert mem.load(0x3001, size) == value
        assert mem.read_bytes(0x3001, size) == value.to_bytes(size, "little")


class TestSignedLoads:
    def test_signed_byte(self):
        mem = Memory()
        mem.store_u8(0, 0x80)
        assert mem.load(0, 1, signed=True) == -128

    def test_signed_word(self):
        mem = Memory()
        mem.store_u32(0, 0xFFFFFFFF)
        assert mem.load(0, 4, signed=True) == -1


class TestWordHelpers:
    def test_store_load_words(self):
        mem = Memory()
        words = [1, 2, 3, (1 << 64) - 1]
        mem.store_words(0x1000, words)
        assert mem.load_words(0x1000, 4) == words

    def test_mpi_roundtrip(self):
        mem = Memory()
        value = 0x0123456789ABCDEF_FEDCBA9876543210
        mem.store_mpi(0x2000, value, 4)
        assert mem.load_mpi(0x2000, 4) == value

    def test_mpi_overflow_raises(self):
        mem = Memory()
        with pytest.raises(MemoryAccessError):
            mem.store_mpi(0, 1 << 64, 1)

    def test_mpi_negative_raises(self):
        mem = Memory()
        with pytest.raises(MemoryAccessError):
            mem.store_mpi(0, -1, 1)

    @given(st.integers(min_value=0, max_value=(1 << 512) - 1))
    def test_mpi_any_512(self, value):
        mem = Memory()
        mem.store_mpi(0x4000, value, 8)
        assert mem.load_mpi(0x4000, 8) == value


class TestBookkeeping:
    def test_touched_pages(self):
        mem = Memory()
        assert mem.touched_pages == 0
        mem.store_u8(0, 1)
        mem.store_u8(PAGE_SIZE * 10, 1)
        assert mem.touched_pages == 2

    def test_clear(self):
        mem = Memory()
        mem.store_u64(0, 7)
        mem.clear()
        assert mem.touched_pages == 0
        assert mem.load_u64(0) == 0
