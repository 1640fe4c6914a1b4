"""The Internet checksum (RFC 1071), computed for real.

TCP and UDP on the CAB compute this in software — the per-byte CPU cost is
the dominant difference between TCP/IP and the Nectar reliable message
protocol in Figure 7 ("The performance difference between TCP/IP and RMP is
mostly due to the cost of doing TCP checksums in software").  The *time* is
charged by the cost model; the *value* is computed here so corruption is
genuinely detected end-to-end.
"""

from __future__ import annotations

from typing import Union

__all__ = ["internet_checksum", "verify_checksum"]

Buffer = Union[bytes, bytearray, memoryview]


def checksum_partial(data: Buffer, initial: int = 0) -> int:
    """Raw (un-inverted) running sum, for multi-piece checksums.

    The one word-sum in the tree, RFC 1071 §2(B): since 2**16 ≡ 1
    (mod 0xFFFF), the one's-complement sum of the big-endian 16-bit words
    is the whole buffer read as one integer, reduced mod 0xFFFF — a single
    C-level pass over any byte buffer, no staging copy.  A sum that never
    overflowed 16 bits is returned as is (0 stays 0); one that did folds
    into 1..0xFFFF, never back to 0.
    """
    total = int.from_bytes(data, "big")
    if len(data) % 2:
        total <<= 8  # odd tail: the last byte is the high half of its word
    total += initial
    if total > 0xFFFF:
        return total % 0xFFFF or 0xFFFF
    return total


def finish_checksum(partial: int) -> int:
    """Invert a running sum into the transmitted checksum value."""
    while partial >> 16:
        partial = (partial & 0xFFFF) + (partial >> 16)
    return (~partial) & 0xFFFF


def internet_checksum(data: Buffer, initial: int = 0) -> int:
    """RFC 1071 checksum of ``data`` (16-bit one's-complement sum, inverted).

    ``initial`` allows incremental computation over pseudo-header + payload.
    """
    return finish_checksum(checksum_partial(data, initial))


def verify_checksum(data: Buffer) -> bool:
    """True when ``data`` (with its checksum field in place) sums correctly.

    Per RFC 1071, summing a block that embeds a correct checksum yields
    0xFFFF (i.e. the inverted sum is zero).
    """
    return internet_checksum(data) == 0
