"""Sparse, paged, byte-addressable little-endian memory.

Memory is organised as fixed-size pages allocated on the first write, so
a 64-bit address space costs nothing until it is used; a read of a page
never written returns zeros and allocates nothing.  All multi-byte
accesses are little-endian, as mandated by RISC-V.  Natural alignment is
enforced by default (the Rocket core traps on misaligned accesses); the
check can be relaxed for experiments.

A typed 1-, 2-, 4- or 8-byte :meth:`Memory.load`/:meth:`Memory.store`
that stays within one page reads or writes that page in place, with a
``struct`` (un)packer at the offset; only a page-crossing access
(possible with alignment relaxed) goes through
:meth:`Memory.read_bytes`/:meth:`Memory.write_bytes`.  Both paths raise
the same bounds and alignment errors.
"""

from __future__ import annotations

from struct import Struct

from repro.errors import MemoryAccessError
from repro.rv64.bits import MASK64

PAGE_BITS = 12
PAGE_SIZE = 1 << PAGE_BITS
PAGE_MASK = PAGE_SIZE - 1

#: In-page typed access: little-endian (un)packers per access size.
_FORMATS = ((1, "B"), (2, "H"), (4, "I"), (8, "Q"))
_UNPACK = {size: Struct("<" + code).unpack_from for size, code in _FORMATS}
_UNPACK_SIGNED = {size: Struct("<" + code.lower()).unpack_from
                  for size, code in _FORMATS}
_PACK = {size: Struct("<" + code).pack_into for size, code in _FORMATS}


class Memory:
    """Sparse paged memory with little-endian typed accessors."""

    def __init__(self, *, enforce_alignment: bool = True) -> None:
        self._pages: dict[int, bytearray] = {}
        self.enforce_alignment = enforce_alignment

    # -- paging ----------------------------------------------------------

    def _page_for(self, address: int) -> bytearray:
        page_number = address >> PAGE_BITS
        page = self._pages.get(page_number)
        if page is None:
            page = bytearray(PAGE_SIZE)
            self._pages[page_number] = page
        return page

    def _check(self, address: int, size: int) -> None:
        if not 0 <= address <= MASK64 - (size - 1):
            raise MemoryAccessError(
                f"address {address:#x} (+{size}) outside 64-bit space"
            )
        if self.enforce_alignment and address % size:
            raise MemoryAccessError(
                f"misaligned {size}-byte access at {address:#x}"
            )

    # -- raw byte access -------------------------------------------------

    def read_bytes(self, address: int, size: int) -> bytes:
        """Read *size* raw bytes starting at *address* (zeros where no
        page was written; reading allocates none)."""
        if size < 0:
            raise MemoryAccessError(f"negative read size {size}")
        out = bytearray(size)
        done = 0
        while done < size:
            offset = (address + done) & PAGE_MASK
            chunk = min(size - done, PAGE_SIZE - offset)
            page = self._pages.get((address + done) >> PAGE_BITS)
            if page is not None:
                out[done:done + chunk] = page[offset:offset + chunk]
            done += chunk
        return bytes(out)

    def write_bytes(self, address: int, data: bytes | bytearray) -> None:
        """Write raw *data* starting at *address*."""
        size = len(data)
        done = 0
        while done < size:
            offset = (address + done) & PAGE_MASK
            chunk = min(size - done, PAGE_SIZE - offset)
            page = self._page_for(address + done)
            page[offset:offset + chunk] = data[done:done + chunk]
            done += chunk

    # -- typed accessors ---------------------------------------------------

    def load(self, address: int, size: int, *, signed: bool = False) -> int:
        """Load a *size*-byte little-endian integer."""
        unpack = (_UNPACK_SIGNED if signed else _UNPACK).get(size)
        offset = address & PAGE_MASK
        if (unpack is not None and offset <= PAGE_SIZE - size
                and 0 <= address <= MASK64
                and not (address % size and self.enforce_alignment)):
            # within one page: read it in place (an unwritten page
            # reads as zeros and stays unallocated)
            page = self._pages.get(address >> PAGE_BITS)
            if page is None:
                return 0
            return unpack(page, offset)[0]
        self._check(address, size)
        raw = self.read_bytes(address, size)
        return int.from_bytes(raw, "little", signed=signed)

    def store(self, address: int, value: int, size: int) -> None:
        """Store the low *size* bytes of *value*, little-endian."""
        pack = _PACK.get(size)
        offset = address & PAGE_MASK
        if (pack is not None and offset <= PAGE_SIZE - size
                and 0 <= address <= MASK64
                and not (address % size and self.enforce_alignment)):
            # within one page: write it in place
            page = self._pages.get(address >> PAGE_BITS)
            if page is None:
                page = self._page_for(address)
            pack(page, offset, value & ((1 << (8 * size)) - 1))
            return
        self._check(address, size)
        value &= (1 << (8 * size)) - 1
        self.write_bytes(address, value.to_bytes(size, "little"))

    def load_u8(self, address: int) -> int:
        return self.load(address, 1)

    def load_u16(self, address: int) -> int:
        return self.load(address, 2)

    def load_u32(self, address: int) -> int:
        return self.load(address, 4)

    def load_u64(self, address: int) -> int:
        return self.load(address, 8)

    def store_u8(self, address: int, value: int) -> None:
        self.store(address, value, 1)

    def store_u16(self, address: int, value: int) -> None:
        self.store(address, value, 2)

    def store_u32(self, address: int, value: int) -> None:
        self.store(address, value, 4)

    def store_u64(self, address: int, value: int) -> None:
        self.store(address, value, 8)

    # -- multi-precision helpers ------------------------------------------

    def load_words(self, address: int, count: int) -> list[int]:
        """Load *count* consecutive 64-bit words (an MPI digit array)."""
        return [self.load_u64(address + 8 * i) for i in range(count)]

    def store_words(self, address: int, words: list[int]) -> None:
        """Store a list of 64-bit words consecutively at *address*."""
        for i, word in enumerate(words):
            self.store_u64(address + 8 * i, word)

    def load_mpi(self, address: int, count: int) -> int:
        """Load a *count*-word little-endian multi-precision integer."""
        return int.from_bytes(self.read_bytes(address, 8 * count), "little")

    def store_mpi(self, address: int, value: int, count: int) -> None:
        """Store *value* as a *count*-word little-endian MPI."""
        if value < 0:
            raise MemoryAccessError("cannot store a negative MPI")
        if value >> (64 * count):
            raise MemoryAccessError(
                f"MPI does not fit in {count} words: {value.bit_length()} bits"
            )
        self.write_bytes(address, value.to_bytes(8 * count, "little"))

    # -- bookkeeping --------------------------------------------------------

    @property
    def touched_pages(self) -> int:
        """Number of pages allocated so far."""
        return len(self._pages)

    def clear(self) -> None:
        """Release all pages."""
        self._pages.clear()
