"""Host-CAB signaling: host conditions, signal queues, the CAB doorbell.

Paper Sec. 3.2.  Host processes and CAB threads interact through shared data
structures in CAB memory:

* **Host condition variables** — like thread conditions, but the waiting
  entities are host processes.  ``signal`` increments a poll value; a host
  process can ``wait`` by polling (no system call) or by blocking in the CAB
  device driver (the CAB then places the condition's address in the *host
  signal queue* and interrupts the host).
* **Signal queues** — fixed-size queues of (opcode, parameter) used in both
  directions: host processes wake CAB threads by placing a request in the
  *CAB signal queue* and interrupting the CAB; the CAB makes requests of the
  host (wakeups, host I/O, debugging) through the host signal queue.
* The CAB signaling mechanism extends into a simple **host-to-CAB RPC** by
  letting the CAB return a result through a sync.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Dict, Generator, Optional

from repro.cab.cpu import Block, CPU, WaitToken
from repro.errors import NectarError
from repro.model.costs import CostModel
from repro.telemetry.metrics import CounterScope

__all__ = ["CabDoorbell", "HostCondition", "SignalQueue"]

#: Well-known signal queue opcodes.
OP_WAKE_THREAD = "wake-thread"
OP_SYNC_WRITE = "sync-write"


class HostCondition:
    """A condition variable in CAB memory, waitable by host processes."""

    def __init__(self, name: str):
        self.name = name
        self.poll_value = 0
        self._pollers: list[tuple[CPU, WaitToken]] = []
        #: Driver hooks: called on signal so the driver can wake processes
        #: that are sleeping (blocking wait) rather than polling.
        self.signal_hooks: list[Callable[["HostCondition"], None]] = []

    # -- signalling (both CAB threads and host processes may signal) ----------

    def fire(self) -> None:
        """Increment the poll value and release every waiter."""
        self.poll_value += 1
        pollers, self._pollers = self._pollers, []
        for cpu, token in pollers:
            if not token.cancelled and not token.fired:
                cpu.wake(token, self.poll_value)
        for hook in list(self.signal_hooks):
            hook(self)

    # -- waiting by polling ------------------------------------------------------

    def wait_poll(self, cpu: CPU, costs: CostModel, snapshot: Optional[int] = None) -> Generator:
        """Poll until the value changes (no system call, paper Sec. 3.2).

        Models the poll loop's *detection latency* (one poll period after
        the signal) and the per-iteration VME read cost at resume.
        ``snapshot`` is the value the caller observed before deciding to
        wait; signals that arrived since then complete the wait immediately.
        """
        if snapshot is None:
            snapshot = self.poll_value
        yield costs.host_poll_interval_ns
        while self.poll_value == snapshot:
            token = WaitToken(name=f"poll:{self.name}")
            self._pollers.append((cpu, token))
            yield Block(token)
            yield costs.host_poll_interval_ns
        return self.poll_value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<HostCondition {self.name} poll={self.poll_value}>"


class SignalQueue:
    """A fixed-size queue of (opcode, parameter) elements in CAB memory."""

    def __init__(self, name: str, capacity: int = 64):
        if capacity <= 0:
            raise NectarError(f"signal queue capacity must be positive, got {capacity}")
        self.name = name
        self.capacity = capacity
        self._entries: Deque[tuple[str, Any]] = deque()
        self.stats = CounterScope()

    def push(self, opcode: str, param: Any) -> bool:
        """Append an element; returns False if the queue is full."""
        if len(self._entries) >= self.capacity:
            self.stats.add("overflows")
            return False
        self._entries.append((opcode, param))
        self.stats.add("pushed")
        return True

    def pop(self) -> Optional[tuple[str, Any]]:
        """Remove and return the oldest element (None when empty)."""
        if not self._entries:
            return None
        self.stats.add("popped")
        return self._entries.popleft()

    def __len__(self) -> int:
        return len(self._entries)


class CabDoorbell:
    """The CAB side of host->CAB signaling.

    The host pushes a request into the CAB signal queue and interrupts the
    CAB (over the VME bus); the doorbell's interrupt handler drains the queue
    and dispatches each element to a registered opcode handler.  Handlers run
    in interrupt context and must not block.
    """

    def __init__(self, runtime):
        self.runtime = runtime
        self.cpu: CPU = runtime.cpu
        self.costs: CostModel = runtime.costs
        self.queue = SignalQueue(f"{runtime.name}.cab-signal-queue")
        self._handlers: Dict[str, Callable[[Any], Generator]] = {}
        self._register_builtins()

    def register(self, opcode: str, handler: Callable[[Any], Generator]) -> None:
        """Bind a handler generator-factory to an opcode."""
        if opcode in self._handlers:
            raise NectarError(f"doorbell opcode {opcode!r} already registered")
        self._handlers[opcode] = handler

    def _register_builtins(self) -> None:
        self.register(OP_WAKE_THREAD, self._handle_wake)
        self.register(OP_SYNC_WRITE, self._handle_sync_write)

    # -- host side entry point ----------------------------------------------------

    def ring(self, vme) -> None:
        """Ring the CAB's doorbell (called after pushing to the queue)."""
        vme.post_interrupt(
            lambda: self.cpu.post_interrupt(self._drain(), name="cab-doorbell")
        )

    # -- CAB interrupt handler -------------------------------------------------------

    def _drain(self) -> Generator:
        while True:
            entry = self.queue.pop()
            if entry is None:
                return
            opcode, param = entry
            yield self.costs.rt_signal_queue_ns
            handler = self._handlers.get(opcode)
            if handler is None:
                raise NectarError(f"no doorbell handler for opcode {opcode!r}")
            yield from handler(param)

    # -- built-in opcode handlers -----------------------------------------------------

    def _handle_wake(self, param) -> Generator:
        """Wake a CAB condition variable from the host."""
        yield self.costs.rt_signal_ns
        self.runtime.ops.signal_nocost(param)

    def _handle_sync_write(self, param) -> Generator:
        """Host offloads a sync Write to the CAB (paper Sec. 3.4)."""
        sync, value = param
        yield from sync.pool.iwrite(sync, value)
