"""Synchronization primitives for simulation-level processes.

These primitives are used by *hardware* models (DMA engines, fibers, bus
arbiters) that run as plain simulation processes.  They charge no CPU time —
CPU-level synchronization (the CAB threads package) lives in
:mod:`repro.runtime.threads` and is built on the CPU execution engine instead.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque

from repro.sim.core import Event, SimulationError, Simulator

__all__ = ["Resource", "Store"]


class Store:
    """An unbounded FIFO of items.

    ``put()`` never blocks and builds no event.  ``get()`` returns an event
    a process yields; ``try_get()`` takes an item in place when one is
    there.  Items are delivered in FIFO order, and getters are served in
    arrival order.
    """

    def __init__(self, sim: Simulator, name: str = "store"):
        self.sim = sim
        self.name = name
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()
        self._get_name = f"get:{name}"

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        """Add an item, handing it straight to the oldest waiting getter."""
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self._items.append(item)

    def get(self) -> Event:
        """Return an event that fires with the next item."""
        event = Event(self.sim, self._get_name)
        if self._items:
            event.succeed(self._items.popleft())
        else:
            self._getters.append(event)
        return event

    def try_get(self) -> tuple[bool, Any]:
        """Non-blocking get.  Returns (ok, item)."""
        if self._items:
            return True, self._items.popleft()
        return False, None

    def peek(self) -> Any:
        """The next item without removing it (raises when empty)."""
        if not self._items:
            raise SimulationError(f"peek on empty store {self.name}")
        return self._items[0]


class Resource:
    """A counting resource (semaphore) with FIFO granting.

    Used to model exclusive or limited hardware units (the VME bus, DMA
    channels).  Acquire with ``yield res.acquire()``; release with
    ``res.release()``.
    """

    def __init__(self, sim: Simulator, slots: int = 1, name: str = "resource"):
        if slots <= 0:
            raise SimulationError("resource must have at least one slot")
        self.sim = sim
        self.name = name
        self.slots = slots
        self._in_use = 0
        self._waiters: Deque[Event] = deque()
        self._acquire_name = f"acquire:{name}"

    @property
    def in_use(self) -> int:
        return self._in_use

    def try_acquire(self) -> bool:
        """Take a free slot in place; False (nothing queued) if none is."""
        if self._in_use < self.slots:
            self._in_use += 1
            return True
        return False

    def acquire(self) -> Event:
        """Event granting one slot (FIFO order)."""
        event = Event(self.sim, self._acquire_name)
        if self._in_use < self.slots:
            self._in_use += 1
            event.succeed()
        else:
            self._waiters.append(event)
        return event

    def release(self) -> None:
        """Return a slot, handing it to the next waiter if any."""
        if self._in_use <= 0:
            raise SimulationError(f"release of idle resource {self.name}")
        if self._waiters:
            # Hand the slot straight to the next waiter.
            self._waiters.popleft().succeed()
        else:
            self._in_use -= 1
