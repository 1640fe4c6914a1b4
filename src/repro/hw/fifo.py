"""Bounded byte FIFOs between the fibers and CAB memory.

The CAB has an input FIFO and an output FIFO between the optical fibers and
its memory (paper Sec. 2.2).  The DMA controller "waits for data to arrive if
the input FIFO is empty, or for data to drain if the output FIFO is full" —
that low-level flow control is modelled by ``wait_space`` / ``wait_data``
here.  Each returns ``None`` when the space or data is already there — the
caller goes on in place, with no heap entry — else an event to yield that
fires once it is.  The receive DMA moves each chunk with one call,
:meth:`ByteFIFO.take`: one heap entry per chunk, whether the chunk was
already buffered or lands later.

Frames move through the FIFO as :class:`Chunk` records (a frame reference,
an offset and a length) rather than individual bytes; the FIFO does exact
byte accounting for capacity and flow control while the actual payload bytes
ride on the frame object.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, NamedTuple, Optional, Union

from repro.errors import CABError
from repro.sim.core import Event, Simulator

__all__ = ["ByteFIFO", "Chunk"]


class _ChunkFields(NamedTuple):
    frame: Any
    offset: int
    length: int
    is_first: bool
    is_last: bool


class Chunk(_ChunkFields):
    """A contiguous piece of a frame moving through a FIFO or link.

    Immutable: a tuple whose fields are read-only properties.
    """

    __slots__ = ()

    def __new__(cls, frame: Any, offset: int, length: int, is_first: bool, is_last: bool):
        if length <= 0:
            raise CABError(f"chunk length must be positive, got {length}")
        if offset < 0:
            raise CABError(f"chunk offset must be non-negative, got {offset}")
        return tuple.__new__(cls, (frame, offset, length, is_first, is_last))


class ByteFIFO:
    """A bounded FIFO of chunks with byte-granularity capacity."""

    def __init__(self, sim: Simulator, capacity: int, name: str = "fifo"):
        if capacity <= 0:
            raise CABError(f"FIFO capacity must be positive, got {capacity}")
        self.sim = sim
        self.name = name
        self.capacity = capacity
        self.level = 0  # bytes currently buffered
        #: Bytes withheld from producers by a fault-injection squeeze.  Only
        #: space *grants* honour the reserve, so a producer that was already
        #: granted space can still push — the squeeze adds back-pressure but
        #: never turns a legal push into an overflow.
        self.squeeze_reserve = 0
        self._chunks: Deque[Chunk] = deque()
        self._space_waiters: Deque[tuple[int, Event]] = deque()
        self._data_waiters: Deque[Event] = deque()
        #: The parked :meth:`take`: its event and the ns per byte the taker
        #: moves, or None.
        self._taker: Optional[tuple[Event, int]] = None
        self.total_in = 0
        self.total_out = 0
        #: The simulation's tracer: the fill level is sampled as a counter
        #: track while a sink listens.
        self.tracer = sim.tracer
        # Per-event names, built once.
        self._space_name = f"space:{name}"
        self._data_name = f"data:{name}"
        self._take_name = f"take:{name}"

    def __len__(self) -> int:
        return len(self._chunks)

    @property
    def free(self) -> int:
        return self.capacity - self.level

    @property
    def grantable(self) -> int:
        """Free space visible to new grants (squeeze reserve withheld)."""
        return self.capacity - self.level - self.squeeze_reserve

    @property
    def is_empty(self) -> bool:
        return self.level == 0

    # -- producer side -----------------------------------------------------

    def wait_space(self, nbytes: int) -> Optional[Event]:
        """``None`` if ``nbytes`` of space is free now, else an event that
        fires when it is.

        Space waiters are served strictly in order, so a large chunk cannot
        be starved by a stream of small ones.
        """
        if nbytes > self.capacity:
            raise CABError(
                f"{self.name}: chunk of {nbytes} bytes exceeds capacity "
                f"{self.capacity}"
            )
        if not self._space_waiters and self.grantable >= nbytes:
            return None
        event = Event(self.sim, self._space_name)
        self._space_waiters.append((nbytes, event))
        return event

    def push(self, chunk: Chunk) -> None:
        """Add a chunk.  Caller must have waited for space.

        A parked :meth:`take` gets the chunk popped for it here, at the
        push, and wakes once it has moved it.
        """
        length = chunk.length
        if length > self.free:
            raise CABError(
                f"{self.name}: push of {length} bytes overflows "
                f"({self.level}/{self.capacity} used)"
            )
        self._chunks.append(chunk)
        self.level += length
        self.total_in += length
        tracer = self.tracer
        if tracer.sink is not None:
            tracer.counter("fifo", "level", self.level, track=self.name)
        taker = self._taker
        if taker is not None:
            self._taker = None
            event, ns_per_byte = taker
            event.succeed(self.pop(), delay=length * ns_per_byte)
            return
        while self._data_waiters:
            self._data_waiters.popleft().succeed()

    # -- consumer side -----------------------------------------------------

    def wait_data(self) -> Optional[Event]:
        """``None`` if a chunk is buffered now, else an event that fires
        when one is."""
        if self._chunks:
            return None
        if self._taker is not None:
            raise CABError(f"{self.name}: wait_data beside a parked take")
        event = Event(self.sim, self._data_name)
        self._data_waiters.append(event)
        return event

    def pop(self) -> Chunk:
        """Remove and return the oldest chunk."""
        if not self._chunks:
            raise CABError(f"{self.name}: pop from empty FIFO")
        chunk = self._chunks.popleft()
        self.level -= chunk.length
        self.total_out += chunk.length
        tracer = self.tracer
        if tracer.sink is not None:
            tracer.counter("fifo", "level", self.level, track=self.name)
        if self._space_waiters:
            self._grant_space()
        return chunk

    def take(self, ns_per_byte: int) -> Union[Chunk, Event]:
        """Move the next chunk out at ``ns_per_byte``, with one heap entry.

        A buffered chunk is popped now and returned; the caller then sleeps
        its ``length * ns_per_byte``.  On an empty FIFO the caller parks on
        the returned event: the push that lands the next chunk pops it
        there and fires the event ``length * ns_per_byte`` later, with the
        chunk as its value.  One taker parks at a time, and never beside a
        :meth:`wait_data` waiter.
        """
        if self._chunks:
            return self.pop()
        if self._taker is not None or self._data_waiters:
            raise CABError(f"{self.name}: take beside another waiting consumer")
        event = Event(self.sim, self._take_name)
        self._taker = (event, ns_per_byte)
        return event

    def peek(self) -> Chunk:
        """The oldest chunk without removing it (raises when empty)."""
        if not self._chunks:
            raise CABError(f"{self.name}: peek at empty FIFO")
        return self._chunks[0]

    def recheck_space(self) -> None:
        """Re-run space granting (after a squeeze reserve is released)."""
        self._grant_space()

    # -- internal ------------------------------------------------------------

    def _grant_space(self) -> None:
        while self._space_waiters and self.grantable >= self._space_waiters[0][0]:
            _nbytes, event = self._space_waiters.popleft()
            event.succeed()
