"""The shared buffer heap in CAB data memory.

Mailbox message buffers are allocated from a common heap (paper Sec. 3.3:
"Allocating buffers from the heap provides better utilization of the CAB
data memory since it is shared among all mailboxes on the CAB").

A first-fit free-list allocator over a range of the data memory region.
It is purely bookkeeping — the bytes themselves live in the
:class:`~repro.hw.memory.MemoryRegion` — but the invariants (no overlap,
no leaks, coalescing of adjacent free blocks) are real and property-tested.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.errors import HeapExhausted, NectarError
from repro.sim.trace import Tracer

__all__ = ["BufferHeap"]

_ALIGN = 8


def _align_up(value: int) -> int:
    return (value + _ALIGN - 1) & ~(_ALIGN - 1)


class BufferHeap:
    """First-fit allocator with address-ordered free list and coalescing."""

    def __init__(self, base: int, size: int, tracer: Tracer, name: str = "heap"):
        if size <= 0:
            raise NectarError(f"heap size must be positive, got {size}")
        if base < 0:
            raise NectarError(f"heap base must be non-negative, got {base}")
        self.name = name
        self.base = base
        self.size = size
        #: Samples bytes-in-use as a counter track, summed only while a
        #: trace sink listens.
        self.tracer = tracer
        # Address-ordered list of (addr, size) free blocks.
        self._free: list[tuple[int, int]] = [(base, size)]
        self._allocated: Dict[int, int] = {}

    # -- queries ---------------------------------------------------------------

    @property
    def free_bytes(self) -> int:
        return sum(size for _addr, size in self._free)

    @property
    def allocated_bytes(self) -> int:
        return sum(self._allocated.values())

    @property
    def allocation_count(self) -> int:
        return len(self._allocated)

    def largest_free_block(self) -> int:
        """Size of the biggest allocatable block."""
        return max((size for _addr, size in self._free), default=0)

    def owns(self, addr: int) -> bool:
        """Whether ``addr`` is a live allocation of this heap."""
        return addr in self._allocated

    def size_of(self, addr: int) -> int:
        """The (aligned) size of a live allocation."""
        if addr not in self._allocated:
            raise NectarError(f"{self.name}: {addr} is not an allocated block")
        return self._allocated[addr]

    # -- allocation ---------------------------------------------------------------

    def try_alloc(self, size: int) -> Optional[int]:
        """Allocate ``size`` bytes; returns the address or None if full."""
        if size <= 0:
            raise NectarError(f"{self.name}: allocation size must be positive, got {size}")
        needed = _align_up(size)
        for index, (addr, block_size) in enumerate(self._free):
            if block_size >= needed:
                remainder = block_size - needed
                if remainder:
                    self._free[index] = (addr + needed, remainder)
                else:
                    del self._free[index]
                self._allocated[addr] = needed
                tracer = self.tracer
                if tracer.sink is not None:
                    tracer.counter(
                        "heap", "bytes_in_use", self.allocated_bytes, track=self.name
                    )
                return addr
        return None

    def alloc(self, size: int) -> int:
        """Allocate or raise :class:`HeapExhausted`."""
        addr = self.try_alloc(size)
        if addr is None:
            raise HeapExhausted(
                f"{self.name}: cannot allocate {size} bytes "
                f"({self.free_bytes} free, largest block "
                f"{self.largest_free_block()})"
            )
        return addr

    def free(self, addr: int) -> None:
        """Return a block to the free list, coalescing neighbours."""
        if addr not in self._allocated:
            raise NectarError(f"{self.name}: free of unallocated address {addr}")
        size = self._allocated.pop(addr)
        tracer = self.tracer
        if tracer.sink is not None:
            tracer.counter("heap", "bytes_in_use", self.allocated_bytes, track=self.name)
        # Insert in address order.
        lo, hi = 0, len(self._free)
        while lo < hi:
            mid = (lo + hi) // 2
            if self._free[mid][0] < addr:
                lo = mid + 1
            else:
                hi = mid
        self._free.insert(lo, (addr, size))
        self._coalesce_around(lo)

    def _coalesce_around(self, index: int) -> None:
        # Merge with successor first, then predecessor.
        if index + 1 < len(self._free):
            addr, size = self._free[index]
            next_addr, next_size = self._free[index + 1]
            if addr + size == next_addr:
                self._free[index] = (addr, size + next_size)
                del self._free[index + 1]
        if index > 0:
            prev_addr, prev_size = self._free[index - 1]
            addr, size = self._free[index]
            if prev_addr + prev_size == addr:
                self._free[index - 1] = (prev_addr, prev_size + size)
                del self._free[index]

    def check_invariants(self) -> None:
        """Raise if internal bookkeeping is inconsistent (used by tests)."""
        regions = sorted(
            [(addr, size, "free") for addr, size in self._free]
            + [(addr, size, "used") for addr, size in self._allocated.items()]
        )
        cursor = self.base
        total = 0
        previous_kind = None
        for addr, size, kind in regions:
            if addr < cursor:
                raise NectarError(f"{self.name}: overlapping blocks at {addr}")
            if addr > cursor:
                raise NectarError(f"{self.name}: gap at {cursor}..{addr}")
            if kind == "free" and previous_kind == "free":
                raise NectarError(f"{self.name}: uncoalesced free blocks at {addr}")
            cursor = addr + size
            total += size
            previous_kind = kind
        if total != self.size:
            raise NectarError(
                f"{self.name}: accounted {total} bytes of {self.size}"
            )
