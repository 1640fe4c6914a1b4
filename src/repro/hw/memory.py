"""Byte-addressed memory regions with page-granular protection domains.

The CAB memory is split into a program region and a data region (paper
Sec. 2.2).  Memory protection hardware associates access permissions with
each 1 Kbyte page; multiple protection domains each have their own permission
set, and switching domains is a single register reload.  We model the
protection tables exactly; the permission check itself is free (it is
hardware).
"""

from __future__ import annotations

import mmap
from typing import Dict, Optional

from repro.errors import MemoryFault

__all__ = ["MemoryRegion", "PAGE_SIZE", "Perm", "ProtectionDomain"]

#: Protection granularity. [paper Sec. 2.2: "each 1 Kbyte page"]
PAGE_SIZE = 1024


class Perm:
    """Permission bits for a page."""

    NONE = 0
    READ = 1
    WRITE = 2
    RW = READ | WRITE


class ProtectionDomain:
    """One protection domain: a page -> permission map for a region.

    Pages not present in the map get the domain's default permission.
    """

    def __init__(self, name: str, default: int = Perm.RW):
        self.name = name
        self.default = default
        self._pages: Dict[int, int] = {}

    def set_page(self, page_index: int, perm: int) -> None:
        """Set one page's permission bits."""
        if page_index < 0:
            raise MemoryFault(f"negative page index {page_index}")
        self._pages[page_index] = perm

    def set_range(self, start_addr: int, size: int, perm: int) -> None:
        """Set permission for all pages overlapping [start, start+size)."""
        if size <= 0:
            raise MemoryFault(f"bad protection range size {size}")
        first = start_addr // PAGE_SIZE
        last = (start_addr + size - 1) // PAGE_SIZE
        for page in range(first, last + 1):
            self._pages[page] = perm

    def perm_for(self, page_index: int) -> int:
        """Permission bits for a page (the default if unset)."""
        return self._pages.get(page_index, self.default)

    def allows(self, addr: int, size: int, write: bool) -> bool:
        """Whether an access of ``size`` bytes at ``addr`` is permitted."""
        needed = Perm.WRITE if write else Perm.READ
        first = addr // PAGE_SIZE
        last = (addr + size - 1) // PAGE_SIZE
        return all(self.perm_for(page) & needed for page in range(first, last + 1))


class MemoryRegion:
    """A contiguous region of byte-addressable memory.

    Addresses are region-relative.  All reads/writes are bounds-checked; if a
    protection domain is active, accesses are permission-checked too.
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
        self._domain: Optional[ProtectionDomain] = None
        #: Optional repro.buf.accounting.CopyMeter counting host-level byte
        #: copies (read/write/fill materialize or move bytes; the view
        #: accessors do not).  One attribute test per access when detached.
        self.copy_meter = None

    # -- protection ----------------------------------------------------------

    @property
    def domain(self) -> Optional[ProtectionDomain]:
        return self._domain

    def load_domain(self, domain: Optional[ProtectionDomain]) -> None:
        """Switch protection domain (a single register reload on the CAB)."""
        self._domain = domain

    def _check(self, addr: int, size: int, write: bool) -> None:
        if size < 0:
            raise MemoryFault(f"{self.name}: negative access size {size}")
        if addr < 0 or addr + size > self.size:
            kind = "write" if write else "read"
            raise MemoryFault(
                f"{self.name}: {kind} [{addr}, {addr + size}) outside region "
                f"of {self.size} bytes"
            )
        if self._domain is not None and size > 0:
            if not self._domain.allows(addr, size, write):
                kind = "write" if write else "read"
                raise MemoryFault(
                    f"{self.name}: {kind} [{addr}, {addr + size}) denied by "
                    f"protection domain {self._domain.name!r}"
                )

    # -- access ----------------------------------------------------------------

    def read(self, addr: int, size: int) -> bytes:
        """Bounds- and permission-checked read of ``size`` bytes."""
        self._check(addr, size, write=False)
        if self.copy_meter is not None:
            self.copy_meter.count(size)
        return self._bytes[addr : addr + size]

    def write(self, addr: int, data: bytes) -> None:
        """Bounds- and permission-checked write of ``data``."""
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
        """A read-only view: bounds/permission-checked, zero host copies.

        The zero-copy read accessor of the buffer plane (docs/buffers.md):
        CRC, checksum, and header-unpack code consume the view in place
        instead of materializing ``bytes``.
        """
        self._check(addr, size, write=False)
        return memoryview(self._bytes)[addr : addr + size].toreadonly()
