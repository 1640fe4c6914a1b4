"""The Runtime: everything Sec. 3 of the paper, assembled per CAB.

One :class:`Runtime` instance per CAB owns the threads package, the buffer
heap (in the CAB's data memory, above a small control-structure reserve),
the mailbox namespace, the sync pools, and the signal queues shared with
the host.
"""

from __future__ import annotations

from collections import deque
from contextlib import nullcontext
from typing import Any, ContextManager, Deque, Dict, Generator, Optional

from repro.cab.board import CAB, DATA_MEMORY_BYTES
from repro.cab.cpu import PRIORITY_APPLICATION, PRIORITY_SYSTEM, TCB, WaitToken
from repro.errors import ConfigurationError
from repro.runtime.heap import BufferHeap
from repro.runtime.mailbox import CACHED_BUFFER_BYTES, Mailbox, Message
from repro.runtime.threads import Condition, Mutex, ThreadOps
from repro.telemetry.metrics import CounterScope
from repro.units import KB

__all__ = ["Runtime"]

#: Low data memory reserved for control structures (host conditions, signal
#: queues, sync pools) rather than the message heap.
CONTROL_RESERVE_BYTES = 64 * KB

#: What :meth:`Runtime.span` returns with no trace sink attached.
_NO_SPAN = nullcontext()


class Runtime:
    """The CAB runtime system."""

    def __init__(self, cab: CAB):
        self.cab = cab
        self.sim = cab.sim
        self.costs = cab.costs
        self.cpu = cab.cpu
        self.name = cab.name
        #: Optional repro.faults.injector.Injector consulted (behind single
        #: if-guards) by the datalink receive path and mailbox queueing.
        self.faults = None
        self.ops = ThreadOps(cab.cpu, cab.costs)
        self.heap = BufferHeap(
            base=CONTROL_RESERVE_BYTES,
            size=DATA_MEMORY_BYTES - CONTROL_RESERVE_BYTES,
            tracer=cab.sim.tracer,
            name=f"{cab.name}.heap",
        )
        self.heap_waiters: Deque[WaitToken] = deque()
        #: Plain callables poked when heap space frees (host-side waiters).
        self.heap_space_hooks: list = []
        self.mailboxes: Dict[str, Mailbox] = {}
        #: The simulation's tracer (spans go through :meth:`span`).
        self.tracer = cab.sim.tracer
        self.stats = CounterScope()

    # ----------------------------------------------------------------- spans

    def span(self, component: str, label: str, detail: Any = None) -> ContextManager:
        """``with runtime.span(...):`` one span on the track of the context
        running now (:attr:`~repro.cab.cpu.CPU.span_track`, read once here).

        The one way runtime and protocol code opens a span.  With no sink
        attached it is one attribute test and a shared no-op; it never
        costs simulated time.
        """
        tracer = self.tracer
        if tracer.sink is None:
            return _NO_SPAN
        return tracer.span(component, label, detail, track=self.cpu.span_track)

    # ------------------------------------------------------------- mailboxes

    def mailbox(
        self, name: str, cached_buffer_bytes: int = CACHED_BUFFER_BYTES
    ) -> Mailbox:
        """Create a named mailbox (names are unique per CAB)."""
        if name in self.mailboxes:
            raise ConfigurationError(f"{self.name}: mailbox {name!r} already exists")
        mbox = Mailbox(self, name, cached_buffer_bytes=cached_buffer_bytes)
        self.stats.mount(f"mbox.{name}", mbox.stats)
        self.mailboxes[name] = mbox
        return mbox

    def lookup_mailbox(self, name: str) -> Mailbox:
        """The named mailbox (raises if it does not exist)."""
        if name not in self.mailboxes:
            raise ConfigurationError(f"{self.name}: no mailbox named {name!r}")
        return self.mailboxes[name]

    def wake_heap_waiters(self) -> None:
        """Called when heap space is freed: retry all blocked Begin_Puts."""
        waiters, self.heap_waiters = self.heap_waiters, deque()
        for token in waiters:
            if not token.cancelled and not token.fired:
                self.cpu.wake(token)
        for hook in self.heap_space_hooks:
            hook()

    # ---------------------------------------------------------- thread sugar

    def fork_system(self, gen: Generator, name: str) -> TCB:
        """Spawn a system-priority thread (no caller CPU charge)."""
        return self.cpu.add_thread(gen, priority=PRIORITY_SYSTEM, name=name)

    def fork_application(self, gen: Generator, name: str) -> TCB:
        """Spawn an application-priority thread (no caller CPU charge)."""
        return self.cpu.add_thread(gen, priority=PRIORITY_APPLICATION, name=name)

    def mutex(self, name: str = "mutex") -> Mutex:
        """A fresh mutex, named under this CAB."""
        return Mutex(name=f"{self.name}.{name}")

    def condition(self, name: str = "cond") -> Condition:
        """A fresh condition variable, named under this CAB."""
        return Condition(name=f"{self.name}.{name}")

    # -------------------------------------------------------- message helpers

    def fill_message(self, msg: Message, data: bytes, offset: int = 0) -> Generator:
        """Thread-context: copy ``data`` into a message (CPU memcpy cost)."""
        yield self.costs.cab_memcpy_ns(len(data))
        msg.write(offset, data)

    def read_message(self, msg: Message, offset: int = 0, size: Optional[int] = None) -> Generator:
        """Thread-context: copy data out of a message (CPU memcpy cost)."""
        if size is None:
            size = msg.size - offset
        yield self.costs.cab_memcpy_ns(size)
        return msg.read(offset, size)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Runtime {self.name}>"
