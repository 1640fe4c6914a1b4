"""Core of the discrete-event simulation kernel.

The kernel is deliberately small and deterministic:

* Simulated time is an integer number of nanoseconds (``sim.now``).
* An :class:`Event` is a one-shot occurrence that carries a value (or an
  exception) and a list of callbacks.
* A :class:`Process` wraps a Python generator.  The generator *yields* events;
  when a yielded event fires, the generator is resumed with the event's value
  (or the event's exception is thrown into it).  Yielding a non-negative
  ``int`` instead sleeps that many nanoseconds — the one way to wait for
  time alone; :meth:`Simulator.timeout` is for a delay needed *as an event*
  (a callback target, a value handed to a thread).  A process starts on a
  zero sleep of its own, and is itself an event that fires when the
  generator terminates, so processes can be joined by yielding them.
* :meth:`Process.interrupt` injects an :class:`Interrupt` exception at the
  process's current yield point.  This is how preemption and device
  cancellation are modelled throughout the library.

Events scheduled for the same nanosecond fire in the order they were
scheduled (a monotonically increasing sequence number breaks ties), so runs
are bit-for-bit reproducible.

For sharded (multi-process) simulation the scheduling-order tie-break is not
enough: an event injected from *another* shard has no meaningful local
scheduling order.  Such events (:meth:`Simulator.call_at`) are scheduled in
a second *band* with an explicit, shard-independent sort key; the queue
orders by ``(time, band, key, seq)``.  Two runs that schedule the same keyed
events for the same nanosecond therefore fire them in the same order no
matter which process scheduled them first — the property the cluster
layer's cross-shard frame exchange relies on.

Heap entries
    Three shapes share the queue.  An ordinary (band 0) event is
    ``(time, seq, event)``.  A sleeping process is ``(time, seq, process,
    None)``: no event object at all — it takes its sequence number where a
    :class:`Timeout` would, so it fires in the same slot.  A new process is
    such an entry with delay zero, numbered at spawn, so it starts behind
    everything already queued for the current nanosecond.  A keyed (band 1)
    call is ``(time, _KEYED, key, seq, fn)`` where ``_KEYED`` is a sentinel
    that compares greater than every sequence number.  Tuple comparison of
    the shapes therefore yields exactly the ``(time, band, key, seq)`` order
    without band 0 paying for a band and an empty key; sequence numbers are
    unique, so nothing after them is ever compared.  ``entry[-1]`` tells the
    shapes apart: ``None`` for a sleep, else ``entry[1] is _KEYED`` for a
    call.

Firing
    One loop (:meth:`Simulator._drain`) serves ``run``, ``run_until`` and
    ``step``: pop, check time is monotonic, set ``now``, then resume the
    sleeper, call the keyed function, or mark the event fired and dispatch
    its callbacks in place.

Resumption
    A process waiting on an event appends *itself* to ``event.callbacks``
    and records the event in ``_target``.  When the loop meets a process in
    a callback list it resumes it only if ``process._target is event``;
    :meth:`Process.interrupt` defuses the pending wake-up by clearing
    ``_target`` (and unregistering), so the event's later firing cannot
    resume the process a second time, even if it re-yields the same event.
    A sleeping process's ``_target`` is its own heap entry; an entry whose
    process has since been interrupted or has died no longer matches and
    pops as a no-op.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, Generator, Optional

from repro.sim.trace import Tracer

__all__ = [
    "Event",
    "Interrupt",
    "Process",
    "SimulationError",
    "Simulator",
    "Timeout",
]


class SimulationError(Exception):
    """Raised for misuse of the simulation kernel."""


class Interrupt(Exception):
    """Raised inside a process that has been interrupted.

    ``cause`` is the object passed to :meth:`Process.interrupt`.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Interrupt(cause={self.cause!r})"


# Event lifecycle states.
_PENDING = 0
_TRIGGERED = 1  # scheduled on the queue, not yet fired
_FIRED = 2

#: Second element of a keyed (band 1) heap entry: greater than every
#: sequence number, so keyed entries sort after band 0 in the same ns.
_KEYED = float("inf")


class Event:
    """A one-shot occurrence in simulated time.

    Events start *pending*.  Calling :meth:`succeed` or :meth:`fail` schedules
    the event to fire at the current simulation time; callbacks then run in
    registration order.  Processes wait for an event by yielding it.
    """

    __slots__ = ("sim", "callbacks", "value", "_exc", "_state", "name")

    def __init__(self, sim: "Simulator", name: str = ""):
        self.sim = sim
        self.callbacks: list[Callable[[Event], None]] = []
        self.value: Any = None
        self._exc: Optional[BaseException] = None
        self._state = _PENDING
        self.name = name

    # -- state inspection ---------------------------------------------------

    @property
    def triggered(self) -> bool:
        """True once the event has been scheduled (succeed/fail called)."""
        return self._state != _PENDING

    @property
    def fired(self) -> bool:
        """True once callbacks have run."""
        return self._state == _FIRED

    @property
    def ok(self) -> bool:
        """True if the event fired successfully (no exception)."""
        return self._state == _FIRED and self._exc is None

    # -- triggering ---------------------------------------------------------

    def succeed(self, value: Any = None, delay: int = 0) -> "Event":
        """Schedule this event to fire successfully after ``delay`` ns."""
        if self._state != _PENDING:
            raise SimulationError(f"event {self!r} already triggered")
        self._state = _TRIGGERED
        self.value = value
        sim = self.sim
        if delay:
            sim._schedule(delay, self)
        else:
            sim._seq = seq = sim._seq + 1
            heappush(sim._queue, (sim.now, seq, self))
        return self

    def fail(self, exc: BaseException, delay: int = 0) -> "Event":
        """Schedule this event to fire with an exception after ``delay`` ns."""
        if not isinstance(exc, BaseException):
            raise SimulationError("fail() requires an exception instance")
        if self._state != _PENDING:
            raise SimulationError(f"event {self!r} already triggered")
        self._state = _TRIGGERED
        self._exc = exc
        self.sim._schedule(delay, self)
        return self

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        label = self.name or type(self).__name__
        return f"<{label} state={self._state}>"


class Timeout(Event):
    """An event that fires after a fixed delay."""

    __slots__ = ()

    def __init__(self, sim: "Simulator", delay: int, value: Any = None):
        if delay < 0:
            raise SimulationError(f"negative timeout delay {delay}")
        self.sim = sim
        self.callbacks = []
        self.value = value
        self._exc = None
        self._state = _TRIGGERED
        self.name = "timeout"
        sim._seq = seq = sim._seq + 1
        heappush(sim._queue, (sim.now + int(delay), seq, self))


class Process(Event):
    """A coroutine driven by the simulator.

    The wrapped generator yields :class:`Event` objects, or a non-negative
    ``int`` to sleep that many nanoseconds.  The process itself is an event
    that fires when the generator returns (its value is the generator's
    return value) or raises (the process event fails).
    """

    __slots__ = ("_gen", "_target")

    def __init__(self, sim: "Simulator", gen: Generator, name: str = ""):
        if not hasattr(gen, "send"):
            raise SimulationError(f"process body must be a generator, got {gen!r}")
        super().__init__(sim, name=name or getattr(gen, "__name__", "process"))
        self._gen = gen
        # Kick off the generator at the current simulation time: a zero sleep.
        sim._seq = seq = sim._seq + 1
        #: The event waited on, or the heap entry of the current sleep.
        self._target: Any = (sim.now, seq, self, None)
        heappush(sim._queue, self._target)

    @property
    def alive(self) -> bool:
        """True while the generator has not terminated."""
        return self._state == _PENDING

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at its yield point.

        The interrupt is delivered immediately (synchronously).  Interrupting
        a terminated process is an error; interrupting a process that has not
        yet had its first step is allowed and kills it before it starts.
        """
        if self._state != _PENDING:
            raise SimulationError(f"cannot interrupt dead process {self.name}")
        target, self._target = self._target, None
        # Unregister too, so a re-yield of the same event queues behind the
        # callbacks added since; mid-firing the list is already detached and
        # the cleared _target alone defuses the wake-up (as it does a sleep,
        # whose heap entry stays queued and pops as a no-op).
        if (
            target is not None
            and target.__class__ is not tuple
            and self in target.callbacks
        ):
            target.callbacks.remove(self)
        self._step(None, Interrupt(cause))

    # -- driving the generator ----------------------------------------------

    def _step(self, value: Any, exc: Optional[BaseException]) -> None:
        """Resume the generator and register on whatever it yields next."""
        try:
            if exc is None:
                target = self._gen.send(value)
            else:
                target = self._gen.throw(exc)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except Interrupt:
            # An unhandled Interrupt terminates the process quietly: the
            # interruptor asked it to die and it complied.
            self.succeed(None)
            return
        except BaseException as err:
            self.fail(err)
            self.sim._failures.append(self)
            return
        if target.__class__ is int and target >= 0:
            # A sleep is its own heap entry, numbered where a Timeout would be.
            sim = self.sim
            sim._seq = seq = sim._seq + 1
            self._target = entry = (sim.now + target, seq, self, None)
            heappush(sim._queue, entry)
            return
        if target.__class__ not in _EVENT_CLASSES and not isinstance(target, Event):
            self._gen.close()
            if target.__class__ is int:
                problem = f"slept a negative delay {target}"
            else:
                problem = f"yielded non-event {target!r}"
            self.fail(SimulationError(f"process {self.name} {problem}"))
            self.sim._failures.append(self)
            return
        if target._state == _FIRED:
            # Already fired: resume on a fresh zero-delay event to preserve
            # run-to-yield semantics without recursion blowups.
            relay = Event(self.sim, "relay")
            if target._exc is not None:
                relay.fail(target._exc)
            else:
                relay.succeed(target.value)
            target = relay
        self._target = target
        target.callbacks.append(self)


#: Exact classes accepted from a yield without the isinstance() fallback.
_EVENT_CLASSES = frozenset((Event, Timeout, Process))


class Simulator:
    """The event loop: a priority queue of heap entries (see module doc)."""

    def __init__(self):
        self.now: int = 0
        #: Time of the last fired entry; ``now`` may lie beyond it once
        #: ``run(until=...)`` has advanced the clock to its horizon.
        self.last_event_ns: int = 0
        self._queue: list[tuple] = []
        self._seq = 0
        self._running = False
        self._failures: list[Process] = []
        #: The one tracer of this simulation: every instrumented component
        #: built on it emits here, and observers attach by setting its hooks.
        self.tracer = Tracer(lambda: self.now)

    def _claim_failure(self, process: Process) -> None:
        """Mark a failed process as handled (its exception was observed)."""
        if process in self._failures:
            self._failures.remove(process)

    # -- factories ------------------------------------------------------------

    def event(self, name: str = "") -> Event:
        """A fresh pending one-shot event."""
        return Event(self, name)

    def timeout(self, delay: int, value: Any = None) -> Timeout:
        """An event that fires ``delay`` ns from now, for a callback target
        or a thread's wait.  A process that only waits yields the delay."""
        return Timeout(self, int(delay), value)

    def process(self, gen: Generator, name: str = "") -> Process:
        """Spawn a generator as a simulation process."""
        return Process(self, gen, name)

    # -- scheduling -----------------------------------------------------------

    def _schedule(self, delay: int, event: Event) -> None:
        if delay < 0:
            raise SimulationError(f"cannot schedule event {delay} ns in the past")
        self._seq = seq = self._seq + 1
        heappush(self._queue, (self.now + int(delay), seq, event))

    def call_at(self, at_ns: int, fn: Callable[[], None], key: tuple) -> None:
        """Schedule ``fn`` at absolute time ``at_ns`` with a stable sort key.

        Keyed calls fire *after* every ordinary event of the same nanosecond
        (band 1 sorts after band 0) and order among themselves by ``key``,
        not by scheduling order.  This is the injection point for events
        whose cause lives outside this simulator — e.g. a frame arriving
        from another shard of a partitioned fleet — and it is also used for
        the local version of the same hand-off so that sharded and
        single-process runs interleave identically.
        """
        at_ns = int(at_ns)
        if at_ns < self.now:
            raise SimulationError(
                f"call_at({at_ns}) is in the past (now={self.now})"
            )
        self._seq = seq = self._seq + 1
        heappush(self._queue, (at_ns, _KEYED, tuple(key), seq, fn))

    def peek_next_time(self) -> Optional[int]:
        """The timestamp of the earliest queued event (None when idle)."""
        return self._queue[0][0] if self._queue else None

    @property
    def events_scheduled(self) -> int:
        """Total events ever scheduled — the engine-speed work counter."""
        return self._seq

    # -- execution ------------------------------------------------------------

    def _drain(
        self,
        until: Optional[int] = None,
        stop: Optional[Callable[[], bool]] = None,
        wanted: Optional[Event] = None,
    ) -> bool:
        """The one firing loop.  Fires heap entries in order until the queue
        drains, the next entry lies beyond ``until``, ``wanted`` has fired
        or a process failure is unclaimed (checked only with ``wanted``), or
        ``stop()`` holds.  Returns True only when ``stop`` halted it.
        """
        queue = self._queue
        failures = self._failures
        entry = None
        stopped = False
        while queue:
            if until is not None and queue[0][0] > until:
                break
            if wanted is not None and (wanted._state == _FIRED or failures):
                break
            if stop is not None and stop():
                stopped = True
                break
            entry = heappop(queue)
            when = entry[0]
            if when < self.now:  # pragma: no cover - guarded by _schedule
                raise SimulationError("event queue corrupted: time went backwards")
            self.now = when
            event = entry[-1]
            if event is None:
                # A sleep; stale when its process was interrupted or died.
                process = entry[2]
                if process._target is entry:
                    process._target = None
                    process._step(None, None)
            elif entry[1] is _KEYED:
                event()
            else:
                event._state = _FIRED
                callbacks = event.callbacks
                if callbacks:
                    event.callbacks = []
                    for callback in callbacks:
                        if callback.__class__ is not Process:
                            callback(event)
                        elif callback._target is event:
                            callback._target = None
                            callback._step(event.value, event._exc)
        if entry is not None:
            self.last_event_ns = self.now
        return stopped

    def step(self) -> bool:
        """Fire the next heap entry.  Returns False when the queue is empty."""
        if not self._queue:
            return False
        first = iter((False,))
        self._drain(stop=lambda: next(first, True))
        return True

    def run(
        self,
        until: Optional[int] = None,
        stop: Optional[Callable[[], bool]] = None,
    ) -> int:
        """Run until the queue drains or simulated time reaches ``until``.

        ``stop``, when given, is consulted before each step; a True return
        halts execution *before* the next event fires.  A run halted by
        ``stop`` — or one that exhausts its window while the predicate
        holds — leaves ``now`` at the last fired event (the clock is not
        advanced to ``until``), so the caller can resume exactly where it
        stopped — this is how a cluster shard parks itself the moment a
        cross-shard hand-off leaves its safety margin.

        Returns the simulation time at which execution stopped.
        """
        if self._running:
            raise SimulationError("run() is not reentrant")
        self._running = True
        try:
            if until is not None:
                until = int(until)
            stopped = self._drain(until, stop)
            # Advancing the clock to ``until`` is only legal when the stop
            # predicate holds nothing back: a shard parked on an undelivered
            # emission may be re-entered by that emission's echo well before
            # ``until``, so its clock must stay at the last fired event.
            if (
                not stopped
                and until is not None
                and self.now < until
                and (stop is None or not stop())
            ):
                self.now = until
        finally:
            self._running = False
        if self._failures:
            failed = self._failures[0]
            self._claim_failure(failed)
            raise failed._exc  # type: ignore[misc]
        return self.now

    def run_until(self, event: Event, limit: Optional[int] = None) -> Any:
        """Run until ``event`` fires (or ``limit`` ns pass, or the queue drains).

        Returns the event's value; raises its exception if it failed, and
        :class:`SimulationError` if the simulation stalled before it fired.
        A process failure is raised before the next event fires.
        """
        self._drain(until=limit, wanted=event)
        if event._state != _FIRED:
            if self._failures:
                failed = self._failures[0]
                self._claim_failure(failed)
                raise failed._exc  # type: ignore[misc]
            if self._queue:
                raise SimulationError(
                    f"time limit {limit} ns reached before {event!r} fired"
                )
            raise SimulationError(
                f"simulation stalled at t={self.now} ns before {event!r} fired"
            )
        if isinstance(event, Process):
            self._claim_failure(event)
        if event._exc is not None:
            raise event._exc
        return event.value

    def run_process(self, gen: Generator, name: str = "", until: Optional[int] = None) -> Any:
        """Convenience: spawn ``gen``, run the simulation, return its value.

        Raises the process's exception if it failed, and
        :class:`SimulationError` if the queue drained before it finished.
        """
        proc = self.process(gen, name=name)
        self.run(until=until)
        if proc.alive:
            raise SimulationError(
                f"simulation ended at t={self.now} ns with process "
                f"{proc.name!r} still blocked (deadlock?)"
            )
        if proc._exc is not None:
            raise proc._exc
        return proc.value

    @property
    def pending_events(self) -> int:
        return len(self._queue)
