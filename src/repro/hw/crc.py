"""CRC-32 as implemented by the CAB's checksum hardware.

The CAB computes cyclic redundancy checksums for incoming and outgoing fiber
data in hardware (paper Sec. 2.2), concurrently with the DMA transfer, so the
CRC costs no CPU time in the simulation.  The *value* is computed for real
here (IEEE 802.3 polynomial, reflected) so that bit corruption injected on a
link is genuinely detected at the receiving CAB.

The computation delegates to :func:`zlib.crc32`, which implements exactly
this polynomial with the same chaining semantics as the previous table-driven
loop (``crc32(b, crc32(a)) == crc32(a + b)``) — and, crucially for the
zero-copy buffer plane, accepts any buffer object, so frames are summed
straight out of a :class:`memoryview` with no intermediate ``bytes``.
"""

from __future__ import annotations

import zlib

__all__ = ["crc32"]


def crc32(data, crc: int = 0) -> int:
    """CRC-32 of ``data`` (any bytes-like buffer), continuing from ``crc``.

    Matches the standard (zlib-compatible) CRC-32.
    """
    return zlib.crc32(data, crc)
