"""Synchronization primitives for simulation-level processes.

These primitives are used by *hardware* models (DMA engines, fibers, bus
arbiters) that run as plain simulation processes.  They charge no CPU time —
CPU-level synchronization (the CAB threads package) lives in
:mod:`repro.runtime.threads` and is built on the CPU execution engine instead.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Optional

from repro.sim.core import Event, SimulationError, Simulator

__all__ = ["Resource", "Store"]


class Store:
    """An unbounded-or-bounded FIFO of items with blocking get/put.

    ``get()`` and ``put()`` return events; processes yield them.  Items are
    delivered in FIFO order, and getters are served in arrival order.
    """

    def __init__(self, sim: Simulator, capacity: Optional[int] = None, name: str = "store"):
        if capacity is not None and capacity <= 0:
            raise SimulationError("store capacity must be positive")
        self.sim = sim
        self.name = name
        self.capacity = capacity
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()
        self._putters: Deque[tuple[Event, Any]] = deque()
        self._put_name = f"put:{name}"
        self._get_name = f"get:{name}"

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> Event:
        """Return an event that fires once the item has been accepted."""
        event = Event(self.sim, self._put_name)
        if self.capacity is not None and len(self._items) >= self.capacity:
            self._putters.append((event, item))
        else:
            self._accept(item)
            event.succeed()
        return event

    def try_put(self, item: Any) -> bool:
        """Non-blocking put.  Returns False if the store is full."""
        if self.capacity is not None and len(self._items) >= self.capacity:
            return False
        self._accept(item)
        return True

    def get(self) -> Event:
        """Return an event that fires with the next item."""
        event = Event(self.sim, self._get_name)
        if self._items:
            event.succeed(self._take())
        else:
            self._getters.append(event)
        return event

    def try_get(self) -> tuple[bool, Any]:
        """Non-blocking get.  Returns (ok, item)."""
        if self._items:
            return True, self._take()
        return False, None

    def peek(self) -> Any:
        """The next item without removing it (raises when empty)."""
        if not self._items:
            raise SimulationError(f"peek on empty store {self.name}")
        return self._items[0]

    # -- internal -------------------------------------------------------------

    def _accept(self, item: Any) -> None:
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self._items.append(item)

    def _take(self) -> Any:
        item = self._items.popleft()
        # Room freed: admit a blocked putter, if any.
        if self._putters and (
            self.capacity is None or len(self._items) < self.capacity
        ):
            event, pending = self._putters.popleft()
            self._accept(pending)
            event.succeed()
        return item


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
