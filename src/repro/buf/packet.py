"""Refcounted packet buffers and zero-copy views (paper Sec. 3.3 discipline).

The paper's buffer management avoids data copies end to end: messages are
adjusted in place, headers are stripped and prepended "without copying",
and buffer ownership moves between layers by reference.  This module is
the host-side analogue for the reproduction's own hot path:

* :class:`PacketBuffer` — one contiguous backing store with refcounted
  ownership.  Allocation reserves *headroom* (and optionally tailroom)
  around the payload window so lower layers can prepend their headers
  into memory that already exists.
* :class:`BufView` — an (offset, length) window over a buffer.  ``prepend``
  / ``strip`` / ``slice`` return new windows over the *same* storage;
  ``mv()`` exposes the window as a :class:`memoryview` for checksum and
  CRC code, ``struct.unpack``, FIFO chunking, and region writes — none of
  which need a materialized ``bytes``.

Ownership: a view handed across a layer boundary carries one reference.
``retain()`` adds a reference (e.g. exporting a payload into a cluster
:class:`~repro.hub.network.Handoff` while the local frame is released);
``release()`` drops one, and the last release frees the storage.  Views
used after the last release raise :class:`~repro.errors.BufError`, so
aliasing bugs are loud in every run.

Host copies that do happen (``fill_from``, ``prepend``, ``tobytes``) are
counted on the owning system's :class:`~repro.buf.accounting.CopyMeter`;
see docs/buffers.md for the simulated-cost vs. host-copy distinction.
"""

from __future__ import annotations

from typing import Optional, Union

from repro.errors import BufError

__all__ = ["BufView", "PacketBuffer"]

#: What PacketBuffer.wrap adopts without copying.
_WRAPPABLE = (bytearray, bytes, memoryview)


class PacketBuffer:
    """Refcounted backing storage for one packet's bytes."""

    __slots__ = ("storage", "refcount", "meter", "label")

    def __init__(self, storage, meter=None, label: str = "buf"):
        self.storage = storage
        self.refcount = 1
        #: Optional repro.buf.accounting.CopyMeter; one attribute test when
        #: detached (matching the tracer wiring convention).
        self.meter = meter
        self.label = label
        if meter is not None:
            meter.on_buffer_alloc()

    # -- construction --------------------------------------------------------

    @classmethod
    def alloc(
        cls,
        size: int,
        headroom: int = 0,
        tailroom: int = 0,
        meter=None,
        label: str = "buf",
    ) -> "BufView":
        """Fresh zeroed storage with reserved headroom; returns the payload view.

        The view covers ``[headroom, headroom + size)`` so ``prepend`` can
        grow the window leftward into memory that already exists instead of
        reallocating and copying.
        """
        if size < 0 or headroom < 0 or tailroom < 0:
            raise BufError(
                f"{label}: bad alloc (size={size}, headroom={headroom}, "
                f"tailroom={tailroom})"
            )
        storage = bytearray(headroom + size + tailroom)
        buffer = cls(storage, meter=meter, label=label)
        return BufView(buffer, headroom, size)

    @classmethod
    def wrap(cls, data, meter=None, label: str = "buf") -> "BufView":
        """Adopt existing bytes-like storage without copying; view the whole."""
        if not isinstance(data, _WRAPPABLE):
            raise BufError(f"{label}: cannot wrap {type(data).__name__}")
        buffer = cls(data, meter=meter, label=label)
        return BufView(buffer, 0, len(data))

    # -- ownership -----------------------------------------------------------

    @property
    def freed(self) -> bool:
        return self.refcount <= 0

    def retain(self) -> None:
        """Add one reference (the caller now co-owns the storage)."""
        if self.refcount <= 0:
            raise BufError(f"{self.label}: retain after free")
        self.refcount += 1

    def release(self) -> None:
        """Drop one reference; the last release frees the storage."""
        if self.refcount <= 0:
            raise BufError(f"{self.label}: release after free (double free)")
        self.refcount -= 1
        if self.refcount == 0:
            self.storage = None
            if self.meter is not None:
                self.meter.on_buffer_free()

    def _live_storage(self, view_length: int):
        """The storage, or a loud use-after-free (:class:`BufError`)."""
        if self.refcount <= 0 or self.storage is None:
            raise BufError(
                f"{self.label}: view of {view_length} bytes used after the "
                f"buffer was freed"
            )
        return self.storage

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        size = len(self.storage) if self.storage is not None else 0
        return f"<PacketBuffer {self.label!r} {size}B refs={self.refcount}>"


class BufView:
    """A zero-copy (offset, length) window over a :class:`PacketBuffer`."""

    __slots__ = ("buffer", "offset", "length")

    def __init__(self, buffer: PacketBuffer, offset: int, length: int):
        self.buffer = buffer
        self.offset = offset
        self.length = length

    # -- the memoryview surface ----------------------------------------------

    def mv(self) -> memoryview:
        """The window as a memoryview (CRC, checksums, struct, writes)."""
        storage = self.buffer._live_storage(self.length)
        return memoryview(storage)[self.offset : self.offset + self.length]

    def tobytes(self) -> bytes:
        """Materialize the window (one counted host copy).

        This is the *only* sanctioned way to turn a view back into bytes —
        reserved for true process boundaries (cluster hand-off pickling).
        """
        # The buffer plane's single materialization primitive: every bytes()
        # here is deliberate, counted, and a process-boundary copy.
        data = bytes(self.mv())  # nectarlint: disable=NB201
        meter = self.buffer.meter
        if meter is not None:
            meter.count(self.length)
        return data

    # -- zero-copy window algebra ---------------------------------------------

    def prepend(self, data) -> "BufView":
        """Grow the window leftward into headroom and write ``data`` there.

        Raises :class:`BufError` when the headroom cannot hold ``data`` —
        never silently reallocates or copies the payload.
        """
        nbytes = len(data)
        storage = self.buffer._live_storage(self.length)
        if nbytes > self.offset:
            raise BufError(
                f"{self.buffer.label}: prepend of {nbytes} bytes exceeds the "
                f"{self.offset} bytes of reserved headroom"
            )
        start = self.offset - nbytes
        storage[start : self.offset] = data
        meter = self.buffer.meter
        if meter is not None:
            meter.count(nbytes)
        return BufView(self.buffer, start, self.length + nbytes)

    def strip(self, nbytes: int) -> "BufView":
        """Drop ``nbytes`` of prefix (header stripping) without copying."""
        if nbytes < 0 or nbytes > self.length:
            raise BufError(
                f"{self.buffer.label}: strip of {nbytes} on a "
                f"{self.length}-byte view"
            )
        return BufView(self.buffer, self.offset + nbytes, self.length - nbytes)

    def strip_back(self, nbytes: int) -> "BufView":
        """Drop ``nbytes`` of suffix without copying."""
        if nbytes < 0 or nbytes > self.length:
            raise BufError(
                f"{self.buffer.label}: strip_back of {nbytes} on a "
                f"{self.length}-byte view"
            )
        return BufView(self.buffer, self.offset, self.length - nbytes)

    def slice(self, offset: int, length: Optional[int] = None) -> "BufView":
        """A sub-window ``[offset, offset + length)`` of this view."""
        if length is None:
            length = self.length - offset
        if offset < 0 or length < 0 or offset + length > self.length:
            raise BufError(
                f"{self.buffer.label}: slice [{offset}, {offset + length}) "
                f"outside a {self.length}-byte view"
            )
        return BufView(self.buffer, self.offset + offset, length)

    # -- the one deliberate copy in ------------------------------------------

    def fill_from(self, data, at: int = 0) -> "BufView":
        """Copy ``data`` into the window at ``at`` (one counted host copy).

        This is the materialization point of the send path: the TX DMA
        moving payload bytes out of CAB memory into the frame.
        """
        nbytes = len(data)
        if at < 0 or at + nbytes > self.length:
            raise BufError(
                f"{self.buffer.label}: fill [{at}, {at + nbytes}) outside a "
                f"{self.length}-byte view"
            )
        storage = self.buffer._live_storage(self.length)
        start = self.offset + at
        storage[start : start + nbytes] = data
        meter = self.buffer.meter
        if meter is not None:
            meter.count(nbytes)
        return self

    # -- ownership (delegates to the buffer) ----------------------------------

    def retain(self) -> "BufView":
        """Add a reference for a new co-owner; returns this view."""
        self.buffer.retain()
        return self

    def release(self) -> None:
        """Drop this owner's reference (the last release frees storage)."""
        self.buffer.release()

    # -- sequence protocol (payload[i], len, iteration) ------------------------

    def _index(self, index: int) -> int:
        if index < 0:
            index += self.length
        if not 0 <= index < self.length:
            raise IndexError(
                f"index {index} outside {self.length}-byte view"
            )
        return self.offset + index

    def __len__(self) -> int:
        return self.length

    def __getitem__(self, key) -> Union[int, memoryview]:
        if isinstance(key, slice):
            return self.mv()[key]
        storage = self.buffer._live_storage(self.length)
        return storage[self._index(key)]

    def __setitem__(self, key, value) -> None:
        if isinstance(key, slice):
            raise BufError(
                f"{self.buffer.label}: slice assignment through a view; use "
                f"fill_from for counted copies"
            )
        storage = self.buffer._live_storage(self.length)
        storage[self._index(key)] = value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<BufView [{self.offset}, {self.offset + self.length}) of "
            f"{self.buffer!r}>"
        )
