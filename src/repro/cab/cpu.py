"""The CPU execution engine: preemptive threads plus interrupt handlers.

This module models a single processor (the CAB's SPARC, or a host CPU)
executing two kinds of activity, exactly as the paper's runtime does
(Sec. 3.1):

* **Threads** — generator coroutines scheduled by a preemptive,
  priority-based scheduler.  System threads (protocol processing) run at a
  higher priority than application threads.  A context switch costs the
  SPARC register-window save/restore time (~20 us on the CAB).
* **Interrupt handlers** — generators that preempt any thread, run to
  completion with further interrupts masked (the paper's CAB does not use
  nested interrupts), and may only perform non-blocking operations.

Thread bodies yield what they do next:

* a non-negative ``int`` — consume that many nanoseconds of CPU time;
  preemptible by interrupts (the engine sleeps the whole burst in one heap
  entry and an interrupt arriving mid-burst cuts the sleep short).  It is
  the same spelling a simulation process uses to sleep, and the value
  always comes from the cost model.
* ``Block(token)`` — block until :meth:`CPU.wake` is called with the token;
  resumes with the value passed to ``wake``.
* ``YieldCPU()`` — relinquish the processor (round-robin within priority).
* ``SetMask(True/False)`` — mask/unmask interrupts (critical sections shared
  with interrupt handlers; see the sync implementation, paper Sec. 3.4).

Interrupt handlers may yield only a non-negative ``int``: they compute with
interrupts masked and never block.

Higher-level synchronization (mutexes, condition variables, mailboxes) is
built from these in :mod:`repro.runtime`.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Callable, Deque, Generator, Optional

from repro.errors import CABError
from repro.sim.core import Event, Interrupt, Simulator
from repro.telemetry.metrics import CounterScope

__all__ = [
    "CPU",
    "Block",
    "PRIORITY_APPLICATION",
    "PRIORITY_SYSTEM",
    "SetMask",
    "TCB",
    "WaitToken",
    "YieldCPU",
]

#: Scheduling priorities (paper Sec. 3.1: "system threads running at a higher
#: priority than application threads").  Larger number wins.
PRIORITY_SYSTEM = 10
PRIORITY_APPLICATION = 1

#: A deadline is armed one slice at a time: a wait that beats its deadline
#: (the usual case) leaves at most one slice-long entry in the event heap,
#: however long its timeout (2 ms).
DEADLINE_SLICE_NS = 2_000_000

# Thread states.
_READY = "ready"
_RUNNING = "running"
_BLOCKED = "blocked"
_DONE = "done"
_NEW = "new"


class _Op:
    """Base class for operations a thread may yield to the engine."""

    __slots__ = ()


class Block(_Op):
    """Block until the engine's wake() is called with this token."""

    __slots__ = ("token",)

    def __init__(self, token: "WaitToken"):
        self.token = token


class YieldCPU(_Op):
    """Voluntarily relinquish the processor."""

    __slots__ = ()


class SetMask(_Op):
    """Mask (True) or unmask (False) interrupts for the current thread."""

    __slots__ = ("masked",)

    def __init__(self, masked: bool):
        self.masked = masked


class WaitToken:
    """A one-shot rendezvous between a blocking thread and its waker."""

    __slots__ = ("name", "tcb", "fired", "value", "cancelled")

    def __init__(self, name: str = "token"):
        self.name = name
        self.tcb: Optional["TCB"] = None
        self.fired = False
        self.value: Any = None
        self.cancelled = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<WaitToken {self.name} fired={self.fired}>"


class TCB:
    """Thread control block."""

    __slots__ = (
        "name",
        "priority",
        "gen",
        "state",
        "resume_value",
        "resume_exc",
        "pending_compute_ns",
        "join_tokens",
        "result",
        "cpu",
        "seq",
    )

    def __init__(self, name: str, priority: int, gen: Generator, cpu: "CPU", seq: int):
        self.name = name
        self.priority = priority
        self.gen = gen
        # Scheduler bookkeeping label, not a guarded FSM: the kernel exits
        # _NEW by direct assignment when it first runs the thread.
        self.state = _NEW  # nectarlint: disable=NP302
        self.resume_value: Any = None
        self.resume_exc: Optional[BaseException] = None
        self.pending_compute_ns = 0
        self.join_tokens: list[WaitToken] = []
        self.result: Any = None
        self.cpu = cpu
        self.seq = seq

    @property
    def alive(self) -> bool:
        return self.state != _DONE

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<TCB {self.name} prio={self.priority} state={self.state}>"


class _EventWait(WaitToken):
    """A wait token that is its own event callback: firing wakes its thread."""

    __slots__ = ("cpu",)

    def __init__(self, cpu: "CPU", name: str):
        super().__init__(name)
        self.cpu = cpu

    def __call__(self, event: Event) -> None:
        self.cpu.wake(self, event.value)


def wait_sim_event(cpu: "CPU", event: Event) -> Generator:
    """Thread-context helper: block the current thread on a raw sim event.

    Bridges the two worlds — hardware/device processes complete sim events;
    threads block on wait tokens.  Returns the event's value.
    """
    if event.fired:
        return event.value
    token = _EventWait(cpu, event.name)
    event.callbacks.append(token)
    value = yield Block(token)
    return value


#: ``CPU._irq_arrival`` while an unmasked burst is in flight and uncut.
_ARMED = object()


class CPU:
    """One simulated processor executing threads and interrupt handlers."""

    def __init__(
        self,
        sim: Simulator,
        name: str = "cpu",
        context_switch_ns: int = 20_000,
        dispatch_ns: int = 3_000,
        interrupt_entry_ns: int = 4_000,
        interrupt_exit_ns: int = 2_000,
        timer_handler_ns: int = 500,
    ):
        self.sim = sim
        self.name = name
        self.context_switch_ns = context_switch_ns
        self.dispatch_ns = dispatch_ns
        self.interrupt_entry_ns = interrupt_entry_ns
        self.interrupt_exit_ns = interrupt_exit_ns
        self.timer_handler_ns = timer_handler_ns
        self.stats = CounterScope()

        self.current: Optional[TCB] = None
        self._active_handler: Optional[str] = None
        self._ready: list[tuple[int, int, TCB]] = []  # (-priority, seq, tcb)
        self._seq = 0
        self._pending_irqs: Deque[tuple[str, Callable[[], Optional[Generator]]]] = deque()
        self._mask_depth = 0
        #: The event the engine idles on (no thread ready, no interrupt
        #: pending); fired by the next _make_ready or post_interrupt.
        self._idle: Optional[Event] = None
        # Per-event names, built once.
        self._idle_name = f"{name}.idle"
        self._irq_arrival_name = f"{name}.irq_arrival"
        self._timer_name = f"{name}.timer"
        self._sched_track = f"{name}/sched"
        #: None outside an unmasked compute burst, ``_ARMED`` during one, and
        #: the zero-delay arrival event once an interrupt has been posted
        #: into it — bound to that burst, so a late arrival cuts nothing.
        self._irq_arrival: Any = None
        self._last_ran: Optional[TCB] = None
        self.busy_ns = 0
        self._engine = sim.process(self._engine_loop(), name=f"{name}.engine")

    # ------------------------------------------------------------ public API

    def add_thread(
        self, gen: Generator, priority: int = PRIORITY_APPLICATION, name: str = "thread"
    ) -> TCB:
        """Create a thread from a generator and make it runnable."""
        self._seq += 1
        tcb = TCB(name, priority, gen, self, self._seq)
        self._make_ready(tcb)
        return tcb

    def wake(self, token: WaitToken, value: Any = None) -> bool:
        """Fire a wait token, unblocking the thread parked on it (if any).

        May be called from interrupt handlers, other threads' operations, or
        device callbacks.  Returns False if the token was cancelled.
        """
        if token.cancelled:
            return False
        if token.fired:
            raise CABError(f"{self.name}: token {token.name} woken twice")
        token.fired = True
        token.value = value
        tcb = token.tcb
        if tcb is not None:
            if tcb.state != _BLOCKED:
                raise CABError(
                    f"{self.name}: token {token.name} bound to non-blocked "
                    f"thread {tcb.name} ({tcb.state})"
                )
            tcb.resume_value = value
            self._make_ready(tcb)
        return True

    def wake_after(self, token: WaitToken, delay_ns: int, value: Any = None) -> None:
        """Schedule a timer interrupt that wakes ``token`` after ``delay_ns``.

        Modelled as a real (tiny) interrupt so that a sleeping high-priority
        thread preempts a computing low-priority one when its timer fires.
        """
        timer = Event(self.sim, self._timer_name)
        timer.callbacks.append(self._timer_expired)
        timer.succeed((token, value), delay=delay_ns)

    def _timer_expired(self, timer: Event) -> None:
        token, value = timer.value
        if not token.cancelled and not token.fired:
            self.post_interrupt(self._timer_handler(token, value), name="timer")

    def wake_at(self, token: WaitToken, deadline_ns: int) -> None:
        """A timer interrupt that wakes ``token`` at ``deadline_ns``, unless
        something wakes it first.

        The timer is armed in :data:`DEADLINE_SLICE_NS` slices, each re-armed
        by a plain callback (no interrupt, no simulated cycle), so a
        retransmission timeout of seconds leaves no seconds-deep backlog of
        dead entries behind the waits that beat it.
        """
        slice_ns = min(max(0, deadline_ns - self.sim.now), DEADLINE_SLICE_NS)
        timer = Event(self.sim, self._timer_name)
        timer.callbacks.append(self._deadline_slice)
        timer.succeed((token, deadline_ns), delay=slice_ns)

    def _deadline_slice(self, timer: Event) -> None:
        token, deadline_ns = timer.value
        if token.cancelled or token.fired:
            return
        if self.sim.now < deadline_ns:
            self.wake_at(token, deadline_ns)
        else:
            self.post_interrupt(self._timer_handler(token, None), name="timer")

    def _timer_handler(self, token: WaitToken, value: Any) -> Generator:
        yield self.timer_handler_ns
        if not token.cancelled and not token.fired:
            self.wake(token, value)

    def post_interrupt(self, handler: Any, name: str = "irq") -> None:
        """Queue an interrupt.

        ``handler`` is a generator (run with interrupts masked; may yield
        only a non-negative ``int`` of compute nanoseconds) or a plain
        callable (invoked with no arguments).
        """
        self._pending_irqs.append((name, handler))
        self.stats.add("interrupts_posted")
        # Kick the engine if it is mid-compute (the first interrupt posted
        # into a burst cuts it) or idle.
        if self._irq_arrival is _ARMED:
            self._irq_arrival = arrival = Event(self.sim, self._irq_arrival_name)
            arrival.callbacks.append(self._cut_burst)
            arrival.succeed()
        self._wake_idle()

    def _cut_burst(self, arrival: Event) -> None:
        """``arrival`` fired: end the burst it was posted into, if still on."""
        if self._irq_arrival is arrival:
            self._engine.interrupt()

    def interrupts_pending(self) -> int:
        """Number of queued, unserviced interrupts."""
        return len(self._pending_irqs)

    @property
    def context_label(self) -> Optional[str]:
        """The logical execution context: an interrupt handler, the current
        thread, or None (device/engine context).  Used to put trace spans
        and per-context counters on the right track."""
        if self._active_handler is not None:
            return f"{self.name}/irq:{self._active_handler}"
        if self.current is not None:
            return f"{self.name}/thread:{self.current.name}"
        return None

    @property
    def span_track(self) -> str:
        """The trace track for a span opened now: :attr:`context_label`, or
        ``<cpu>/ext`` outside any context.  Callers capture it at span begin
        and reuse it at span end, so a span stays on one track."""
        label = self.context_label
        return label if label is not None else f"{self.name}/ext"

    # ------------------------------------------------------------- scheduling

    def _make_ready(self, tcb: TCB) -> None:
        tcb.state = _READY
        self._seq += 1
        heapq.heappush(self._ready, (-tcb.priority, self._seq, tcb))
        self._wake_idle()

    def _wake_idle(self) -> None:
        """Fire the event the engine idles on, if it is idle."""
        idle = self._idle
        if idle is not None:
            self._idle = None
            idle.succeed()

    # ----------------------------------------------------------------- engine

    def _engine_loop(self) -> Generator:
        """The engine process: one flat loop, one case per pass, in order.

        1. A pending interrupt, when unmasked, is serviced (entry, the
           handler's compute bursts, exit); a thread held across it is
           preempted if a higher-priority one is now ready.
        2. With no thread held, the best ready one is taken (the engine
           idles on an event when there is none), charging a context switch
           unless it ran last.
        3. A pending burst is charged: masked in one sleep, unmasked in one
           sleep cut short by :meth:`post_interrupt`.  Either way the
           engine goes on behind everything already queued for the
           nanosecond it woke in: one zero-delay hop when the heap head
           shares ``now``, none when nothing does.
        4. The held thread yields to a higher-priority ready one.
        5. The thread is stepped and what it yields dispatched: an ``int``
           (tested first) is its next burst.
        """
        sim = self.sim
        queue = sim._queue  # read in line: sim.peek_next_time() without the call
        # Kernel spans go to the sink, every busy nanosecond to the profiler.
        tracer = sim.tracer
        pending_irqs = self._pending_irqs
        ready = self._ready
        stats = self.stats
        tcb: Optional[TCB] = None  # the thread holding the processor
        while True:
            if pending_irqs and self._mask_depth == 0:
                name, handler = pending_irqs.popleft()
                stats.add("interrupts_serviced")
                # Span labels are built only while a trace sink listens.
                if tracer.sink is not None:
                    tracer.begin("kernel", f"irq:{name}", track=f"{self.name}/irq:{name}")
                # Entry, handler body and exit are non-preemptible busy time.
                if self.interrupt_entry_ns > 0:
                    self.busy_ns += self.interrupt_entry_ns
                    yield self.interrupt_entry_ns
                if tracer.profiler is not None:
                    tracer.profiler.account(
                        self.name, "irq-overhead", "entry", self.interrupt_entry_ns
                    )
                self._active_handler = name
                try:
                    if hasattr(handler, "send"):
                        for op in handler:
                            if op.__class__ is not int:
                                handler.close()
                                raise CABError(
                                    f"{self.name}: interrupt handler {name!r} "
                                    f"attempted a blocking operation "
                                    f"({type(op).__name__}); handlers may only "
                                    f"compute"
                                )
                            if op < 0:
                                handler.close()
                                raise CABError(f"negative compute time {op}")
                            if op > 0:
                                self.busy_ns += op
                                yield op
                            if tracer.profiler is not None:
                                tracer.profiler.account(self.name, "irq", name, op)
                    else:
                        handler()
                finally:
                    self._active_handler = None
                if self.interrupt_exit_ns > 0:
                    self.busy_ns += self.interrupt_exit_ns
                    yield self.interrupt_exit_ns
                if tracer.profiler is not None:
                    tracer.profiler.account(
                        self.name, "irq-overhead", "exit", self.interrupt_exit_ns
                    )
                if tracer.sink is not None:
                    tracer.end("kernel", f"irq:{name}", track=f"{self.name}/irq:{name}")
                if tcb is not None:
                    while ready and ready[0][2].state != _READY:
                        heapq.heappop(ready)
                    if ready and ready[0][2].priority > tcb.priority:
                        self._make_ready(tcb)
                        self.current = tcb = None
                continue

            if tcb is None:
                while ready:
                    tcb = heapq.heappop(ready)[2]
                    if tcb.state == _READY:
                        break
                    tcb = None
                if tcb is None:
                    self._idle = idle = Event(sim, self._idle_name)
                    yield idle
                    continue
                if self._last_ran is not tcb:
                    switch_ns = self.dispatch_ns + self.context_switch_ns
                    if tracer.sink is not None:
                        tracer.begin(
                            "kernel",
                            "context-switch",
                            {"to": tcb.name},
                            track=self._sched_track,
                        )
                    if switch_ns > 0:
                        self.busy_ns += switch_ns
                        yield switch_ns
                    if tracer.sink is not None:
                        tracer.end("kernel", "context-switch", track=self._sched_track)
                    if tracer.profiler is not None:
                        tracer.profiler.account(self.name, "sched", "context-switch", switch_ns)
                    stats.add("context_switches")
                    self._last_ran = tcb
                # Bookkeeping label: the dispatcher leaves _RUNNING by
                # assigning the next state directly (blocked/ready/done),
                # never by testing it.
                tcb.state = _RUNNING  # nectarlint: disable=NP302
                self.current = tcb
                continue  # an interrupt posted during the switch goes first

            remaining = tcb.pending_compute_ns
            if remaining > 0:
                if self._mask_depth > 0:
                    # Masked: interrupts cannot slice the burst.
                    self.busy_ns += remaining
                    yield remaining
                    if tracer.profiler is not None:
                        tracer.profiler.account(self.name, "thread", tcb.name, remaining)
                    tcb.pending_compute_ns = 0
                    continue
                start = sim.now
                self._irq_arrival = _ARMED
                try:
                    yield remaining
                except Interrupt:
                    pass
                self._irq_arrival = None
                if queue and queue[0][0] == sim.now:
                    yield 0
                elapsed = sim.now - start
                self.busy_ns += elapsed
                if tracer.profiler is not None:
                    tracer.profiler.account(self.name, "thread", tcb.name, elapsed)
                tcb.pending_compute_ns = remaining - elapsed
                continue

            while ready and ready[0][2].state != _READY:
                heapq.heappop(ready)
            if ready and ready[0][2].priority > tcb.priority:
                self._make_ready(tcb)
                self.current = tcb = None
                continue

            try:
                if tcb.resume_exc is not None:
                    exc, tcb.resume_exc = tcb.resume_exc, None
                    op = tcb.gen.throw(exc)
                else:
                    value, tcb.resume_value = tcb.resume_value, None
                    op = tcb.gen.send(value)
            except StopIteration as stop:
                self._finish_thread(tcb, stop.value)
                self.current = tcb = None
                continue
            except BaseException:
                tcb.state = _DONE
                self.current = None
                raise

            if op.__class__ is int:
                if op < 0:
                    raise CABError(f"negative compute time {op}")
                tcb.pending_compute_ns = op
            elif isinstance(op, Block):
                if self._mask_depth > 0:
                    raise CABError(
                        f"{self.name}: thread {tcb.name} blocked with "
                        f"interrupts masked"
                    )
                token = op.token
                if token.cancelled:
                    raise CABError(
                        f"{self.name}: thread {tcb.name} blocked on "
                        f"cancelled token {token.name}"
                    )
                if token.fired:
                    # wake() beat us to it: consume the value, keep running.
                    tcb.resume_value = token.value
                else:
                    token.tcb = tcb
                    tcb.state = _BLOCKED
                    self.current = tcb = None
            elif isinstance(op, YieldCPU):
                self._make_ready(tcb)
                self.current = tcb = None
            elif isinstance(op, SetMask):
                if op.masked:
                    self._mask_depth += 1
                else:
                    if self._mask_depth <= 0:
                        raise CABError(
                            f"{self.name}: unbalanced interrupt unmask in "
                            f"thread {tcb.name}"
                        )
                    self._mask_depth -= 1
            else:
                raise CABError(
                    f"{self.name}: thread {tcb.name} yielded unknown op "
                    f"{op!r}"
                )

    def _finish_thread(self, tcb: TCB, result: Any) -> None:
        tcb.state = _DONE
        tcb.result = result
        self.stats.add("threads_finished")
        tokens, tcb.join_tokens = tcb.join_tokens, []
        for token in tokens:
            self.wake(token, result)
