"""Host-level copy accounting for the zero-copy buffer plane.

A :class:`CopyMeter` counts *host* ``memcpy`` traffic — the Python-side
byte copies our implementation performs while simulating the CAB — as
opposed to the *simulated* memcpy cost the cost model charges in
nanoseconds.  The two planes are deliberately distinct: the paper's claim
is about avoided copies on the CAB, ours is about the reproduction itself
not copying payload bytes at every layer boundary (docs/buffers.md).

One meter hangs off each :class:`~repro.system.NectarSystem`
(``system.copy_meter``), mounted in the system's metrics store at ``host``
like every other counter bag, and is threaded into the memory regions, the
datalink frame builder, and every :class:`~repro.buf.packet.PacketBuffer`
allocated on that system, so ``host.memcpy_bytes`` measures exactly one
simulation's copies.  All counts derive from
simulated traffic, so they are byte-stable across repeated runs with the
same seed — which is what lets ``python -m repro bench buf --check`` gate
on them.
"""

from __future__ import annotations

from typing import Dict

__all__ = ["CopyMeter"]


class CopyMeter:
    """Counts host-level byte copies and packet-buffer lifetimes."""

    __slots__ = (
        "memcpy_bytes",
        "memcpy_calls",
        "buffers_allocated",
        "buffers_freed",
    )

    def __init__(self):
        self.memcpy_bytes = 0
        self.memcpy_calls = 0
        self.buffers_allocated = 0
        self.buffers_freed = 0

    # -- counting hooks (single attribute test when detached) ----------------

    def count(self, nbytes: int) -> None:
        """Record one host copy of ``nbytes`` bytes."""
        self.memcpy_bytes += nbytes
        self.memcpy_calls += 1

    def on_buffer_alloc(self) -> None:
        """A :class:`PacketBuffer` came to life."""
        self.buffers_allocated += 1

    def on_buffer_free(self) -> None:
        """A :class:`PacketBuffer`'s refcount reached zero."""
        self.buffers_freed += 1

    # -- reading -------------------------------------------------------------

    @property
    def live_buffers(self) -> int:
        """Buffers allocated but not yet freed (should be 0 after a run)."""
        return self.buffers_allocated - self.buffers_freed

    def snapshot(self) -> Dict[str, int]:
        """Counter name -> value, in sorted-key order (byte-stable)."""
        return {
            "buffers_allocated": self.buffers_allocated,
            "buffers_freed": self.buffers_freed,
            "memcpy_bytes": self.memcpy_bytes,
            "memcpy_calls": self.memcpy_calls,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<CopyMeter {self.memcpy_bytes}B/{self.memcpy_calls} copies, "
            f"{self.live_buffers} live buffers>"
        )
