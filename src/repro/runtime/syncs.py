"""Syncs: lightweight one-word synchronization (paper Sec. 3.4).

"Syncs allow a user to return a one-word value to an asynchronous reader
efficiently" — a condition variable plus a shared word, cheaper than a
mailbox.  The operations are ``alloc``, ``write``, ``read`` and ``cancel``:

* ``write`` places a one-word value in the sync and marks it written;
* ``read`` blocks until written, then frees the sync and returns the value;
* ``cancel`` declares the reader is no longer interested: it frees the sync
  if already written, otherwise marks it cancelled so a subsequent write
  frees it.

Writing requires a critical section (checking cancelled + marking written
must be atomic); on the CAB this is done by masking interrupts, exactly as
in the paper.  Host processes offload ``write`` to the CAB via the signaling
mechanism (see :mod:`repro.host.driver`).

Syncs are allocated from per-side pools ("conflicts are avoided by using
two separate pools of syncs").
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from repro.cab.cpu import Block, CPU, SetMask, WaitToken
from repro.errors import SyncError
from repro.model.costs import CostModel

__all__ = ["Sync", "SyncPool"]

_EMPTY = "empty"
_WRITTEN = "written"
_CANCELLED = "cancelled"
_FREED = "freed"


class Sync:
    """One sync cell."""

    __slots__ = ("pool", "state", "value", "_reader_cpu", "_reader_token")

    def __init__(self, pool: "SyncPool"):
        self.pool = pool
        self.state = _EMPTY
        self.value: Any = None
        self._reader_cpu: Optional[CPU] = None
        self._reader_token: Optional[WaitToken] = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Sync {self.state} value={self.value!r}>"


class SyncPool:
    """A fixed pool of sync cells (one per side: CAB pool and host pool)."""

    def __init__(self, costs: CostModel, capacity: int = 256, name: str = "syncs"):
        if capacity <= 0:
            raise SyncError(f"pool capacity must be positive, got {capacity}")
        self.costs = costs
        self.name = name
        self.capacity = capacity
        self._free: list[Sync] = [Sync(self) for _ in range(capacity)]
        self.in_use = 0

    # -- allocation (cheap, chargeable by caller) --------------------------------

    def alloc(self) -> Generator:
        """Thread-context: allocate a sync cell."""
        yield self.costs.rt_sync_op_ns
        return self.alloc_nocost()

    def alloc_nocost(self) -> Sync:
        """Allocate a sync cell without charging CPU time."""
        if not self._free:
            raise SyncError(f"{self.name}: sync pool exhausted ({self.capacity})")
        sync = self._free.pop()
        sync.state = _EMPTY
        sync.value = None
        sync._reader_cpu = None
        sync._reader_token = None
        self.in_use += 1
        return sync

    def _release(self, sync: Sync) -> None:
        if sync.state == _FREED:
            raise SyncError(f"{self.name}: double free of sync")
        sync.state = _FREED
        self.in_use -= 1
        self._free.append(sync)

    # -- CAB-side operations -----------------------------------------------------

    def write(self, sync: Sync, value: Any) -> Generator:
        """CAB thread-context write.

        The cancelled-check plus written-mark is a critical section shared
        with interrupt handlers, protected by masking interrupts.
        """
        yield SetMask(True)
        yield self.costs.rt_sync_op_ns
        self._write_body(sync, value)
        yield SetMask(False)

    def iwrite(self, sync: Sync, value: Any) -> Generator:
        """Interrupt-context write (already masked)."""
        yield self.costs.rt_sync_op_ns
        self._write_body(sync, value)

    def _write_body(self, sync: Sync, value: Any) -> None:
        if sync.state == _CANCELLED:
            # Reader gave up: the write completes the cell's life.
            self._release(sync)
            return
        if sync.state != _EMPTY:
            raise SyncError(f"write to sync in state {sync.state}")
        sync.state = _WRITTEN
        sync.value = value
        if sync._reader_token is not None and sync._reader_cpu is not None:
            token, sync._reader_token = sync._reader_token, None
            sync._reader_cpu.wake(token, value)

    def read(self, sync: Sync, cpu: CPU) -> Generator:
        """Thread-context read: block until written, free, return the value.

        Only one reader exists, so reading needs no locking (paper Sec. 3.4).
        """
        yield self.costs.rt_sync_op_ns
        if sync.state == _WRITTEN:
            value = sync.value
            self._release(sync)
            return value
        if sync.state != _EMPTY:
            raise SyncError(f"read of sync in state {sync.state}")
        token = WaitToken(name="sync-read")
        sync._reader_token = token
        sync._reader_cpu = cpu
        value = yield Block(token)
        self._release(sync)
        return value

    def cancel(self, sync: Sync) -> Generator:
        """Thread-context cancel: reader is no longer interested."""
        yield SetMask(True)
        yield self.costs.rt_sync_op_ns
        if sync.state == _WRITTEN:
            self._release(sync)
        elif sync.state == _EMPTY:
            sync.state = _CANCELLED
            sync._reader_token = None
            sync._reader_cpu = None
        else:
            yield SetMask(False)
            raise SyncError(f"cancel of sync in state {sync.state}")
        yield SetMask(False)
