"""The CAB device driver and the host side of the runtime interface.

This module is the host's half of paper Sec. 3.2-3.4:

* it lets host processes **map CAB memory** into their address space (after
  which mailbox and sync operations need no system calls);
* it implements the **shared-memory mailbox operations** — the host updates
  mailbox data structures directly over the VME mapping, paying ~1 us per
  32-bit access, and rings the CAB doorbell when CAB threads must be woken;
* it also implements the **RPC-based mailbox operations** (each operation is
  a host-to-CAB RPC round trip) — the paper kept both and found shared
  memory about 2x faster; our ablation benchmark reproduces that comparison;
* it provides **host condition variables** (wait by polling, with no system
  call, or by blocking in the driver with a wakeup interrupt), the **signal
  queues** in both directions, **host-side sync operations** (Write is
  offloaded to the CAB), and the **host-to-CAB RPC** facility built on them.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Generator, Optional

from repro.cab.cpu import Block, WaitToken
from repro.errors import HeapExhausted, MailboxError, NectarError
from repro.host.machine import Host
from repro.hw.vme import VMEBus
from repro.runtime.mailbox import Mailbox, Message
from repro.runtime.signaling import CabDoorbell, HostCondition, SignalQueue
from repro.runtime.syncs import Sync, SyncPool
from repro.system import NectarNode

__all__ = ["CABDriver"]

#: Driver-registered doorbell opcodes.
OP_MAILBOX_KICK = "mailbox-kick"
OP_HEAP_WAKE = "heap-wake"
OP_RPC_CALL = "rpc-call"
OP_MAILBOX_OP = "mailbox-op"
#: Host signal queue opcode (CAB -> host direction).
OP_HOST_CONDITION = "host-condition"

#: VME word accesses charged per shared-memory mailbox operation (descriptor
#: reads/updates).  [derived: a handful of pointer words per op]
_OP_VME_WORDS = 5

#: Host access modes, selectable per mailbox (paper Sec. 3.3: "both
#: implementations coexist, and the appropriate implementation can be
#: selected dynamically on a per-mailbox basis").
MODE_SHARED = "shared-memory"
MODE_RPC = "rpc"


class CABDriver:
    """The CAB device driver of one host."""

    def __init__(self, host: Host, node: NectarNode, vme: VMEBus):
        self.host = host
        self.node = node
        self.vme = vme
        self.runtime = node.runtime
        self.costs = host.costs
        self.sim = host.sim

        # CAB-side doorbell (host -> CAB requests).
        self.doorbell = CabDoorbell(self.runtime)
        self.runtime.stats.mount("sig", self.doorbell.queue.stats)
        self.doorbell.register(OP_MAILBOX_KICK, self._cab_mailbox_kick)
        self.doorbell.register(OP_HEAP_WAKE, self._cab_heap_wake)
        self.doorbell.register(OP_RPC_CALL, self._cab_rpc_call)
        self.doorbell.register(OP_MAILBOX_OP, self._cab_mailbox_op)

        # Host signal queue (CAB -> host requests) and its sleepers.
        self.host_signal_queue = SignalQueue(f"{host.name}.host-signal-queue")
        host.stats.mount("sig", self.host_signal_queue.stats)
        self._sleepers: Dict[HostCondition, list[WaitToken]] = {}

        # Sync pools: one per side (paper Sec. 3.4).
        self.host_syncs = SyncPool(self.costs, name=f"{host.name}.host-syncs")

        # Per-mailbox host conditions for blocking reads, and access modes.
        self._mailbox_conditions: Dict[str, HostCondition] = {}
        self._mailbox_modes: Dict[str, str] = {}

        # Heap-space host condition (host Begin_Put blocking).
        self.heap_condition = HostCondition(f"{host.name}.heap-space")
        self.runtime.heap_space_hooks.append(self.heap_condition.fire)

        self.stats = host.stats
        self._mapped = False

    # ================================================== setup (program init)

    def map_cab_memory(self) -> Generator:
        """mmap CAB memory into the process (one system call, done once)."""
        yield self.costs.host_syscall_ns
        self._mapped = True

    def _require_mapped(self) -> None:
        if not self._mapped:
            raise NectarError(
                "CAB memory is not mapped; call map_cab_memory() during "
                "program initialization"
            )

    # ======================================================= VME data movement

    def vme_copy(self, nbytes: int) -> Generator:
        """Host-context transfer of ``nbytes`` across the VME bus."""
        return self.vme.copy(self.host.cpu, nbytes)

    def _vme_words(self, words: int) -> Generator:
        """Descriptor accesses: short programmed I/O charged to the host CPU.

        These words do not wait for or hold the bus, so a descriptor access
        never queues behind a bulk transfer (contention is not modelled
        here; the data itself always crosses by :meth:`vme_copy`).
        """
        yield words * self.costs.vme_word_ns

    # ===================================================== doorbell (host->CAB)

    def ring_cab(self, opcode: str, param: Any) -> Generator:
        """Host-context: push a CAB signal queue entry and interrupt the CAB."""
        yield self.costs.rt_signal_queue_ns
        yield from self._vme_words(2)
        if not self.doorbell.queue.push(opcode, param):
            raise NectarError("CAB signal queue overflow")
        self.doorbell.ring(self.vme)
        self.stats.add("cab_doorbells")

    # -- CAB-side opcode handlers (interrupt context) ---------------------------

    def _cab_mailbox_kick(self, mailbox: Mailbox) -> Generator:
        yield from mailbox.kick_readers()

    def _cab_heap_wake(self, _param) -> Generator:
        yield self.runtime.costs.rt_signal_ns
        self.runtime.wake_heap_waiters()

    def _cab_rpc_call(self, param) -> Generator:
        """Fork a CAB system thread to run the request; result via sync."""
        thunk, sync = param
        yield self.runtime.costs.rt_signal_queue_ns

        def runner():
            result = yield from thunk()
            yield from sync.pool.write(sync, result)

        self.runtime.fork_system(runner(), name="host-rpc")

    def _cab_mailbox_op(self, param) -> Generator:
        """RPC-based mailbox operation, serviced at interrupt time.

        The paper's RPC-based mailbox implementation routed each operation
        through the host-to-CAB RPC mechanism; the operation itself is
        non-blocking so it runs straight in the signal-queue handler.
        """
        op, mailbox, arg, sync = param
        if op == "begin_put":
            result = yield from mailbox.ibegin_put(arg)
        elif op == "end_put":
            yield from mailbox.iend_put(arg)
            result = True
        elif op == "begin_get":
            result = yield from mailbox.ibegin_get()
        elif op == "end_get":
            yield from mailbox.iend_get(arg)
            result = True
        else:
            raise MailboxError(f"unknown RPC mailbox op {op!r}")
        yield from sync.pool.iwrite(sync, result)

    # ================================================== host conditions (Sec 3.2)

    def new_host_condition(self, name: str) -> HostCondition:
        """A host condition wired to this driver's wakeup path."""
        hc = HostCondition(name)
        hc.signal_hooks.append(self._maybe_interrupt_host(hc))
        return hc

    def _maybe_interrupt_host(self, hc: HostCondition) -> Callable[[HostCondition], None]:
        def hook(_hc: HostCondition) -> None:
            if self._sleepers.get(hc):
                # Blocking waiters exist: queue the condition's address and
                # interrupt the host (paper Fig. 4).
                self.host_signal_queue.push(OP_HOST_CONDITION, hc)
                self.vme.post_interrupt(
                    lambda: self.host.cpu.post_interrupt(
                        self._host_interrupt_handler(), name="cab-to-host"
                    )
                )

        return hook

    def _host_interrupt_handler(self) -> Generator:
        """Host interrupt context: drain the host signal queue, wake sleepers."""
        yield self.costs.host_interrupt_ns
        while True:
            entry = self.host_signal_queue.pop()
            if entry is None:
                return
            opcode, param = entry
            if opcode == OP_HOST_CONDITION:
                for token in self._sleepers.pop(param, []):
                    if not token.cancelled and not token.fired:
                        self.host.cpu.wake(token)
            else:
                raise NectarError(f"unknown host signal opcode {opcode!r}")

    def wait_poll(self, hc: HostCondition, snapshot: Optional[int] = None) -> Generator:
        """Wait by polling (no system call; wastes host CPU)."""
        self._require_mapped()
        yield from hc.wait_poll(self.host.cpu, self.costs, snapshot)

    def wait_blocking(self, hc: HostCondition, snapshot: Optional[int] = None) -> Generator:
        """Wait by sleeping in the driver (one system call + one interrupt).

        ``snapshot`` is the poll value observed *before* the caller decided
        to block; a signal that slipped in during the system call is caught
        by re-checking it after the syscall completes.
        """
        self._require_mapped()
        if snapshot is None:
            snapshot = hc.poll_value
        yield self.costs.host_syscall_ns
        if hc.poll_value != snapshot:
            return  # signalled while entering the kernel
        token = WaitToken(name=f"sleep:{hc.name}")
        self._sleepers.setdefault(hc, []).append(token)
        yield Block(token)
        yield self.costs.host_syscall_ns

    def signal_from_host(self, hc: HostCondition) -> Generator:
        """Host-context signal: one VME word write."""
        self._require_mapped()
        yield self.costs.host_mailbox_op_ns
        yield from self._vme_words(1)
        hc.fire()

    # ===================================================== host sync operations

    def sync_alloc(self) -> Generator:
        """Allocate a sync from the host-side pool."""
        yield self.costs.rt_sync_op_ns
        return self.host_syncs.alloc_nocost()

    def sync_read(self, sync: Sync) -> Generator:
        """Host read: polls the sync word over the VME mapping."""
        self._require_mapped()
        value = yield from sync.pool.read(sync, self.host.cpu)
        yield self.costs.host_poll_interval_ns
        return value

    def sync_write(self, sync: Sync, value: Any) -> Generator:
        """Host write: offloaded to the CAB via the signaling mechanism."""
        self._require_mapped()
        from repro.runtime.signaling import OP_SYNC_WRITE
        yield from self.ring_cab(OP_SYNC_WRITE, (sync, value))

    # ===================================================== host-to-CAB RPC (Sec 3.2)

    def call_cab(self, thunk: Callable[[], Generator]) -> Generator:
        """Run ``thunk()`` in a CAB system thread; return its result.

        The simple host-to-CAB RPC facility: a signal queue request plus a
        sync carrying the return value.
        """
        self._require_mapped()
        sync = yield from self.sync_alloc()
        yield from self.ring_cab(OP_RPC_CALL, (thunk, sync))
        result = yield from self.sync_read(sync)
        return result

    def _mailbox_rpc(self, op: str, mailbox: Mailbox, arg) -> Generator:
        """One RPC-based mailbox operation (host side)."""
        sync = yield from self.sync_alloc()
        yield from self.ring_cab(OP_MAILBOX_OP, (op, mailbox, arg, sync))
        result = yield from self.sync_read(sync)
        return result

    # ================================================= mailbox access (Sec 3.3)

    def set_mailbox_mode(self, mailbox: Mailbox, mode: str) -> None:
        """Select the host access implementation for one mailbox."""
        if mode not in (MODE_SHARED, MODE_RPC):
            raise MailboxError(f"unknown mailbox access mode {mode!r}")
        self._mailbox_modes[mailbox.name] = mode

    def _mode(self, mailbox: Mailbox) -> str:
        return self._mailbox_modes.get(mailbox.name, MODE_SHARED)

    def mailbox_condition(self, mailbox: Mailbox) -> HostCondition:
        """The host condition fired whenever the mailbox receives a message."""
        if mailbox.name not in self._mailbox_conditions:
            hc = self.new_host_condition(f"{mailbox.name}.host-readers")
            self._mailbox_conditions[mailbox.name] = hc
            mailbox.message_hooks.append(lambda _mb: hc.fire())
        return self._mailbox_conditions[mailbox.name]

    # -- two-phase writes ---------------------------------------------------------

    def begin_put(self, mailbox: Mailbox, size: int) -> Generator:
        """Host Begin_Put.  Blocks (by polling) while the heap is full."""
        self._require_mapped()
        if self._mode(mailbox) == MODE_RPC:
            msg = yield from self._mailbox_rpc("begin_put", mailbox, size)
            while msg is None:
                yield from self.wait_poll(self.heap_condition)
                msg = yield from self._mailbox_rpc("begin_put", mailbox, size)
            return msg
        yield self.costs.host_mailbox_op_ns
        yield from self._vme_words(_OP_VME_WORDS)
        while True:
            msg = mailbox._try_alloc_message(size)
            if msg is not None:
                return msg
            yield from self.wait_poll(self.heap_condition)

    def fill(self, msg: Message, data: bytes, offset: int = 0) -> Generator:
        """Write message contents over the VME mapping (in place, no copy
        on the CAB side — this is the whole point of the design)."""
        yield from self.vme_copy(len(data))
        msg.write(offset, data)

    def end_put(self, mailbox: Mailbox, msg: Message) -> Generator:
        """Host End_Put: publish the message and kick CAB readers."""
        self._require_mapped()
        if self._mode(mailbox) == MODE_RPC:
            yield from self._mailbox_rpc("end_put", mailbox, msg)
            return
        yield self.costs.host_mailbox_op_ns
        yield from self._vme_words(_OP_VME_WORDS)
        mailbox.host_queue_message(msg)
        yield from self.ring_cab(OP_MAILBOX_KICK, mailbox)

    # -- two-phase reads ------------------------------------------------------------

    def begin_get(self, mailbox: Mailbox, blocking: bool = False) -> Generator:
        """Host Begin_Get: take the next message, waiting if empty.

        ``blocking=False`` waits by polling (fast, wastes CPU);
        ``blocking=True`` sleeps in the driver until the CAB interrupts.
        """
        self._require_mapped()
        hc = self.mailbox_condition(mailbox)
        if self._mode(mailbox) == MODE_RPC:
            while True:
                snapshot = hc.poll_value
                msg = yield from self._mailbox_rpc("begin_get", mailbox, None)
                if msg is not None:
                    return msg
                if blocking:
                    yield from self.wait_blocking(hc, snapshot)
                else:
                    yield from self.wait_poll(hc, snapshot)
        yield self.costs.host_mailbox_op_ns
        yield from self._vme_words(_OP_VME_WORDS)
        while True:
            snapshot = hc.poll_value
            msg = mailbox.host_take_message()
            if msg is not None:
                return msg
            if blocking:
                yield from self.wait_blocking(hc, snapshot)
            else:
                yield from self.wait_poll(hc, snapshot)

    def read(self, msg: Message, offset: int = 0, size: Optional[int] = None) -> Generator:
        """Read message contents over the VME mapping."""
        if size is None:
            size = msg.size - offset
        yield from self.vme_copy(size)
        return msg.read(offset, size)

    def end_get(self, mailbox: Mailbox, msg: Message) -> Generator:
        """Host End_Get: release the storage; wake CAB heap waiters if any."""
        self._require_mapped()
        if self._mode(mailbox) == MODE_RPC:
            yield from self._mailbox_rpc("end_get", mailbox, msg)
            return
        yield self.costs.host_mailbox_op_ns
        yield from self._vme_words(_OP_VME_WORDS)
        if mailbox.host_release_storage(msg):
            yield from self.ring_cab(OP_HEAP_WAKE, None)
