"""Mailboxes: queues of messages with a network-wide address (paper Sec. 3.3).

A mailbox is a queue of messages whose buffer space lives in CAB data memory,
allocated from the shared :class:`~repro.runtime.heap.BufferHeap`.  The
two-phase interface lets writers produce and readers consume messages *in
place*, with no copying:

* ``begin_put(size)`` allocates a data area and returns a message handle;
  ``end_put(msg)`` makes it available to readers (and fires the reader
  upcall, if one is attached).
* ``begin_get()`` returns the next message for in-place reading;
  ``end_get(msg)`` releases the storage.
* ``enqueue(msg, dest)`` moves a message between mailboxes by pointer
  manipulation only — this is how IP hands datagrams to transport protocols
  without copying.
* ``trim_front``/``trim_back`` "adjust" a message in place, removing a
  prefix or suffix (header stripping) without copying.

Blocking versions are for thread context; ``i``-prefixed versions never
block and are safe in interrupt handlers.  As an optimization each mailbox
caches one small buffer, avoiding heap traffic for small messages.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Generator, Optional

from repro.cab.cpu import Block, WaitToken
from repro.errors import MailboxError
from repro.telemetry.metrics import CounterScope

__all__ = ["Mailbox", "Message"]

#: Message lifecycle states.
WRITING = "writing"
QUEUED = "queued"
READING = "reading"
FREED = "freed"

#: Default size of the per-mailbox cached small buffer.
CACHED_BUFFER_BYTES = 128


class Message:
    """A handle on a message's data area in CAB data memory."""

    __slots__ = (
        "mailbox",
        "owner",
        "block_addr",
        "block_size",
        "addr",
        "size",
        "state",
        "cached",
    )

    def __init__(self, mailbox: "Mailbox", block_addr: int, block_size: int, size: int, cached: bool):
        self.mailbox = mailbox
        #: The mailbox whose cached-buffer slot this is (if cached).
        self.owner = mailbox
        self.block_addr = block_addr
        self.block_size = block_size
        self.addr = block_addr
        self.size = size
        self.state = WRITING
        self.cached = cached

    # -- in-place data access (costs charged by callers) ------------------------

    def write(self, offset: int, data: bytes) -> None:
        """Write bytes into the message's data area (in place)."""
        if self.state not in (WRITING, READING):
            raise MailboxError(f"write to message in state {self.state}")
        if offset < 0 or offset + len(data) > self.size:
            raise MailboxError(
                f"write [{offset}, {offset + len(data)}) outside message of "
                f"{self.size} bytes"
            )
        self.mailbox.memory.write(self.addr + offset, data)

    def read(self, offset: int = 0, size: Optional[int] = None) -> bytes:
        """Read bytes from the message's data area (in place)."""
        if self.state not in (WRITING, QUEUED, READING):
            raise MailboxError(f"read of message in state {self.state}")
        if size is None:
            size = self.size - offset
        if offset < 0 or offset + size > self.size:
            raise MailboxError(
                f"read [{offset}, {offset + size}) outside message of "
                f"{self.size} bytes"
            )
        return self.mailbox.memory.read(self.addr + offset, size)

    def view(self, offset: int = 0, size: Optional[int] = None) -> memoryview:
        """A zero-copy read-only view of the message's data area.

        Same state and bounds checks as :meth:`read`, but no host copy —
        this is what the interrupt-time demux path uses to unpack headers
        and sum checksums in place (docs/buffers.md).  The view aliases CAB
        memory: it is only valid until the message's storage is released.
        """
        if self.state not in (WRITING, QUEUED, READING):
            raise MailboxError(f"view of message in state {self.state}")
        if size is None:
            size = self.size - offset
        if offset < 0 or offset + size > self.size:
            raise MailboxError(
                f"view [{offset}, {offset + size}) outside message of "
                f"{self.size} bytes"
            )
        return self.mailbox.memory.read_view(self.addr + offset, size)

    # -- adjust operations (paper: remove prefix/suffix without copying) ---------

    def trim_front(self, nbytes: int) -> None:
        """Adjust: drop ``nbytes`` of prefix without copying."""
        if nbytes < 0 or nbytes > self.size:
            raise MailboxError(f"trim_front of {nbytes} on {self.size}-byte message")
        self.addr += nbytes
        self.size -= nbytes

    def trim_back(self, nbytes: int) -> None:
        """Adjust: drop ``nbytes`` of suffix without copying."""
        if nbytes < 0 or nbytes > self.size:
            raise MailboxError(f"trim_back of {nbytes} on {self.size}-byte message")
        self.size -= nbytes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Message {self.size}B @{self.addr} state={self.state} "
            f"mbox={self.mailbox.name}>"
        )


class Mailbox:
    """One mailbox on a CAB."""

    def __init__(self, runtime, name: str, cached_buffer_bytes: int = CACHED_BUFFER_BYTES):
        self.runtime = runtime
        self.name = name
        self.memory = runtime.cab.data_mem
        self.heap = runtime.heap
        self.costs = runtime.costs
        self.cpu = runtime.cpu
        self.queue: Deque[Message] = deque()
        self._get_waiters: Deque[WaitToken] = deque()
        #: Reader upcall invoked as a side effect of end_put (paper Sec. 3.3:
        #: converts a cross-thread call into a local one).  A generator
        #: factory taking the mailbox; runs in the *writer's* context.
        self.reader_upcall: Optional[Callable[["Mailbox"], Generator]] = None
        #: Plain callables poked (no cost) whenever a message is queued —
        #: used by the host interface to signal host condition variables.
        self.message_hooks: list[Callable[["Mailbox"], None]] = []
        self.stats = CounterScope()

        self._cached_size = cached_buffer_bytes
        self._cached_addr: Optional[int] = (
            self.heap.try_alloc(cached_buffer_bytes) if cached_buffer_bytes > 0 else None
        )
        self._cached_in_use = False

    # ------------------------------------------------------------------ writing

    def begin_put(self, size: int) -> Generator:
        """Thread-context: allocate a data area; blocks until space exists."""
        with self.runtime.span("mailbox", "begin_put", {"mailbox": self.name, "bytes": size}):
            yield self.costs.rt_begin_put_ns
            while True:
                msg = self._try_alloc_message(size)
                if msg is not None:
                    yield self._alloc_cost(msg)
                    return msg
                token = WaitToken(name=f"heap:{self.name}")
                self.runtime.heap_waiters.append(token)
                yield Block(token)

    def ibegin_put(self, size: int) -> Generator:
        """Interrupt-context: allocate or return None (never blocks)."""
        yield self.costs.rt_begin_put_ns
        msg = self._try_alloc_message(size)
        if msg is not None:
            yield self._alloc_cost(msg)
        return msg

    def end_put(self, msg: Message) -> Generator:
        """Make a written message available to readers; fire the upcall."""
        with self.runtime.span("mailbox", "end_put", {"mailbox": self.name}):
            yield self.costs.rt_end_put_ns
            self._queue_message(msg)
            if self.reader_upcall is not None:
                yield self.costs.rt_upcall_ns
                yield from self.reader_upcall(self)

    # The interrupt-context version is identical in structure: the upcall runs
    # at interrupt time, which is exactly the paper's IP-input design.
    iend_put = end_put

    def abort_put(self, msg: Message) -> Generator:
        """Discard an owned message without queueing it (bad CRC, demux
        failure, protocol-internal release)."""
        if msg.state not in (WRITING, READING):
            raise MailboxError(f"abort_put of message in state {msg.state}")
        yield self._free_cost(msg)
        self._release_storage(msg)

    iabort_put = abort_put

    # ------------------------------------------------------------------- reading

    def begin_get(self) -> Generator:
        """Thread-context: return the next message; blocks while empty."""
        with self.runtime.span("mailbox", "begin_get", {"mailbox": self.name}):
            yield self.costs.rt_begin_get_ns
            while not self.queue:
                token = WaitToken(name=f"get:{self.name}")
                self._get_waiters.append(token)
                yield Block(token)
            return self._take_message()

    def ibegin_get(self) -> Generator:
        """Interrupt-context: next message or None (never blocks)."""
        yield self.costs.rt_begin_get_ns
        if not self.queue:
            return None
        return self._take_message()

    def end_get(self, msg: Message) -> Generator:
        """Release a message's storage."""
        if msg.state is not READING:
            raise MailboxError(f"end_get of message in state {msg.state}")
        yield self.costs.rt_end_get_ns
        yield self._free_cost(msg)
        self._release_storage(msg)

    iend_get = end_get

    # ------------------------------------------------------------------- moving

    def enqueue(self, msg: Message, dest: "Mailbox") -> Generator:
        """Move a message to another mailbox without copying (paper Sec. 3.3).

        The caller must own the message (state WRITING or READING).  Works
        across mailboxes because buffer space comes from the shared heap.
        """
        if msg.state not in (WRITING, READING):
            raise MailboxError(f"enqueue of message in state {msg.state}")
        if dest.runtime is not self.runtime:
            raise MailboxError("enqueue across CABs is impossible (shared heap only)")
        yield self.costs.rt_enqueue_ns
        msg.mailbox = dest
        dest._queue_message(msg)
        if dest.reader_upcall is not None:
            yield self.costs.rt_upcall_ns
            yield from dest.reader_upcall(dest)

    ienqueue = enqueue

    # ---------------------------------------------------- host (shared-memory) side

    def host_queue_message(self, msg: Message) -> None:
        """Queue a message *without* waking CAB threads.

        Used by the shared-memory host implementation (paper Sec. 3.3): the
        host updates the mailbox data structures directly over the VME
        mapping, then rings the CAB doorbell so :meth:`kick_readers` runs on
        the CAB.  Reader/writer structures are separate, so no mutual
        exclusion is needed as long as all readers are on one side.
        """
        if msg.state not in (WRITING, READING):
            raise MailboxError(f"queueing message in state {msg.state}")
        msg.state = QUEUED
        self.queue.append(msg)
        self.stats.add("messages_queued")
        for hook in self.message_hooks:
            hook(self)

    def kick_readers(self) -> Generator:
        """CAB interrupt-context: wake a blocked reader / run the upcall.

        The doorbell handler runs this after a host process queued messages.
        """
        yield self.costs.rt_signal_ns
        while self._get_waiters and self.queue:
            token = self._get_waiters.popleft()
            if token.cancelled or token.fired:
                continue
            self.cpu.wake(token)
            break
        if self.reader_upcall is not None and self.queue:
            yield self.costs.rt_upcall_ns
            yield from self.reader_upcall(self)

    def host_take_message(self) -> Optional[Message]:
        """Dequeue for a host reader (no CAB-side work)."""
        if not self.queue:
            return None
        return self._take_message()

    def host_release_storage(self, msg: Message) -> bool:
        """Free storage from the host side.

        Returns True when CAB threads are blocked waiting for heap space, in
        which case the caller must ring the CAB doorbell so they retry.
        """
        self._release_storage_quiet(msg)
        return bool(self.runtime.heap_waiters)

    # ------------------------------------------------------------------ internal

    def _try_alloc_message(self, size: int) -> Optional[Message]:
        if size <= 0:
            raise MailboxError(f"message size must be positive, got {size}")
        if (
            self._cached_addr is not None
            and not self._cached_in_use
            and size <= self._cached_size
        ):
            self._cached_in_use = True
            self.stats.add("cached_allocs")
            return Message(self, self._cached_addr, self._cached_size, size, cached=True)
        addr = self.heap.try_alloc(size)
        if addr is None:
            self.stats.add("alloc_stalls")
            return None
        self.stats.add("heap_allocs")
        return Message(self, addr, self.heap.size_of(addr), size, cached=False)

    def _alloc_cost(self, msg: Message) -> int:
        if msg.cached:
            return self.costs.rt_cached_buffer_ns
        return self.costs.rt_heap_alloc_ns

    def _free_cost(self, msg: Message) -> int:
        if msg.cached:
            return self.costs.rt_cached_buffer_ns
        return self.costs.rt_heap_free_ns

    def _queue_message(self, msg: Message) -> None:
        if msg.state not in (WRITING, READING):
            raise MailboxError(f"queueing message in state {msg.state}")
        faults = self.runtime.faults
        if faults is not None and faults.mailbox_lose(
            self.runtime.name, self.name, msg
        ):
            # Injected host-CAB interface loss: the message vanishes while
            # being queued.  Its storage is released so the fault degrades
            # into packet loss that reliable transports recover from.
            self.stats.add("fault_lost_messages")
            self._release_storage(msg)
            return
        msg.state = QUEUED
        self.queue.append(msg)
        self.stats.add("messages_queued")
        while self._get_waiters:
            token = self._get_waiters.popleft()
            if token.cancelled or token.fired:
                continue
            self.cpu.wake(token)
            break
        for hook in self.message_hooks:
            hook(self)

    def _take_message(self) -> Message:
        msg = self.queue.popleft()
        msg.state = READING
        self.stats.add("messages_taken")
        return msg

    def _release_storage_quiet(self, msg: Message) -> None:
        if msg.cached:
            # A cached buffer may have been enqueued to another mailbox; the
            # owner mailbox gets its cache slot back either way.
            msg.owner._cached_in_use = False
        else:
            self.heap.free(msg.block_addr)
        msg.state = FREED

    def _release_storage(self, msg: Message) -> None:
        self._release_storage_quiet(msg)
        if not msg.cached:
            self.runtime.wake_heap_waiters()

    def __len__(self) -> int:
        return len(self.queue)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Mailbox {self.name} queued={len(self.queue)}>"
