"""Byte-addressed, bounds-checked memory regions.

The CAB memory is split into a program region and a data region (paper
Sec. 2.2).  Every access is bounds-checked.  The CAB's page-protection
hardware is not modelled: every run the paper reports stays in one
protection domain, so a permission check would never fail.
"""

from __future__ import annotations

import mmap

from repro.errors import MemoryFault

__all__ = ["MemoryRegion"]


class MemoryRegion:
    """A contiguous region of byte-addressable memory.

    Addresses are region-relative.  All reads/writes are bounds-checked.
    """

    def __init__(self, name: str, size: int):
        if size <= 0:
            raise MemoryFault(f"region size must be positive, got {size}")
        self.name = name
        self.size = size
        #: Demand-zero backing: one anonymous mapping, zero-filled by the OS,
        #: resident only where written (``bytearray(size)`` memsets every
        #: page, which at 1 MB + 640 KB per CAB was most of a fleet's RSS).
        self._bytes = mmap.mmap(-1, size)
        #: Optional repro.buf.accounting.CopyMeter counting host-level byte
        #: copies (read/write/fill materialize or move bytes; the view
        #: accessors do not).  One attribute test per access when detached.
        self.copy_meter = None

    def _check(self, addr: int, size: int, write: bool) -> None:
        if size < 0:
            raise MemoryFault(f"{self.name}: negative access size {size}")
        if addr < 0 or addr + size > self.size:
            kind = "write" if write else "read"
            raise MemoryFault(
                f"{self.name}: {kind} [{addr}, {addr + size}) outside region "
                f"of {self.size} bytes"
            )

    # -- access ----------------------------------------------------------------

    def read(self, addr: int, size: int) -> bytes:
        """Bounds-checked read of ``size`` bytes."""
        self._check(addr, size, write=False)
        if self.copy_meter is not None:
            self.copy_meter.count(size)
        return self._bytes[addr : addr + size]

    def write(self, addr: int, data: bytes) -> None:
        """Bounds-checked write of ``data``."""
        self._check(addr, len(data), write=True)
        if self.copy_meter is not None:
            self.copy_meter.count(len(data))
        self._bytes[addr : addr + len(data)] = data

    def read_word(self, addr: int) -> int:
        """Read a 32-bit big-endian word."""
        return int.from_bytes(self.read(addr, 4), "big")

    def write_word(self, addr: int, value: int) -> None:
        """Write a 32-bit big-endian word."""
        self.write(addr, (value & 0xFFFFFFFF).to_bytes(4, "big"))

    def fill(self, addr: int, size: int, value: int = 0) -> None:
        """Set ``size`` bytes at ``addr`` to ``value``."""
        self._check(addr, size, write=True)
        if self.copy_meter is not None:
            self.copy_meter.count(size)
        self._bytes[addr : addr + size] = bytes([value & 0xFF]) * size

    def view(self, addr: int, size: int) -> memoryview:
        """A writable view (used by DMA engines; checked once here)."""
        self._check(addr, size, write=True)
        return memoryview(self._bytes)[addr : addr + size]

    def read_view(self, addr: int, size: int) -> memoryview:
        """A read-only view: bounds-checked, zero host copies.

        The zero-copy read accessor of the buffer plane (docs/buffers.md):
        CRC, checksum, and header-unpack code consume the view in place
        instead of materializing ``bytes``.
        """
        self._check(addr, size, write=False)
        return memoryview(self._bytes)[addr : addr + size].toreadonly()
