"""Reference event kernel: the semantics of ``repro.sim.core`` frozen before
its fast path was written.  Test-only and deliberately naive — every heap
entry is the full ``(time, band, key, seq, event)`` 5-tuple, every wait
allocates a wake token, every firing goes through ``step() -> _fire()``, a
bare-``int`` sleep is a ``Timeout`` and a keyed call an event with a lambda —
so ``test_kernel_oracle`` can drive it and the real kernel with the same
programs and demand the same fire order, clock, values and event count.
"""

import heapq

_PENDING, _TRIGGERED, _FIRED = 0, 1, 2


class SimulationError(Exception):
    pass


class Interrupt(Exception):
    def __init__(self, cause=None):
        super().__init__(cause)
        self.cause = cause


class Event:
    def __init__(self, sim, name=""):
        self.sim, self.name = sim, name
        self.callbacks = []
        self.value = None
        self._exc = None
        self._state = _PENDING

    triggered = property(lambda self: self._state != _PENDING)
    fired = property(lambda self: self._state == _FIRED)

    def succeed(self, value=None, delay=0):
        if self._state != _PENDING:
            raise SimulationError(f"event {self!r} already triggered")
        self._state = _TRIGGERED
        self.value = value
        self.sim._schedule(delay, self)
        return self

    def fail(self, exc, delay=0):
        if not isinstance(exc, BaseException):
            raise SimulationError("fail() requires an exception instance")
        if self._state != _PENDING:
            raise SimulationError(f"event {self!r} already triggered")
        self._state = _TRIGGERED
        self._exc = exc
        self.sim._schedule(delay, self)
        return self

    def _fire(self):
        self._state = _FIRED
        callbacks, self.callbacks = self.callbacks, []
        for callback in callbacks:
            callback(self)

    def __repr__(self):
        return f"<{self.name or type(self).__name__} state={self._state}>"


class Timeout(Event):
    def __init__(self, sim, delay, value=None):
        if delay < 0:
            raise SimulationError(f"negative timeout delay {delay}")
        super().__init__(sim, "timeout")
        self._state = _TRIGGERED
        self.value = value
        sim._schedule(delay, self)


class _Resumption:
    """Wake token: defused (``live = False``) when its process is interrupted."""

    def __init__(self, process):
        self.process, self.live = process, True

    def __call__(self, event):
        if self.live:
            self.live = False
            self.process._resume(event)


class Process(Event):
    def __init__(self, sim, gen, name=""):
        if not hasattr(gen, "send"):
            raise SimulationError(f"process body must be a generator, got {gen!r}")
        super().__init__(sim, name or getattr(gen, "__name__", "process"))
        self._gen = gen
        self._resumption = None
        self._started = False
        start = Event(sim, "start")
        start.callbacks.append(lambda _ev: self._first_step())
        start.succeed()

    alive = property(lambda self: self._state == _PENDING)

    def interrupt(self, cause=None):
        if not self.alive:
            raise SimulationError(f"cannot interrupt dead process {self.name}")
        if self._resumption is not None:
            self._resumption.live = False
            self._resumption = None
        self._step(Interrupt(cause), True)

    def _first_step(self):
        if not self._started and self.alive:
            self._step(None, False)

    def _resume(self, event):
        self._resumption = None
        if event._exc is not None:
            self._step(event._exc, True)
        else:
            self._step(event.value, False)

    def _step(self, value, is_exc):
        self._started = True
        try:
            target = self._gen.throw(value) if is_exc else self._gen.send(value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except Interrupt:
            self.succeed(None)
            return
        except BaseException as exc:
            self.fail(exc)
            self.sim._failures.append(self)
            return
        problem = None
        if type(target) is int:  # a bare delay is, naively, a Timeout
            if target < 0:
                problem = f"slept a negative delay {target}"
            else:
                target = Timeout(self.sim, target)
        elif not isinstance(target, Event):
            problem = f"yielded non-event {target!r}"
        if problem is not None:
            self._gen.close()
            self.fail(SimulationError(f"process {self.name} {problem}"))
            self.sim._failures.append(self)
            return
        token = self._resumption = _Resumption(self)
        if target.fired:
            relay = Event(self.sim, "relay")
            relay.callbacks.append(token)
            if target._exc is not None:
                relay.fail(target._exc)
            else:
                relay.succeed(target.value)
        else:
            target.callbacks.append(token)


class Simulator:
    def __init__(self):
        self.now = 0
        self._queue = []
        self._seq = 0
        self._running = False
        self._failures = []

    def _claim_failure(self, process):
        if process in self._failures:
            self._failures.remove(process)

    def _raise_first_failure(self):
        failed = self._failures[0]
        self._claim_failure(failed)
        raise failed._exc

    def event(self, name=""):
        return Event(self, name)

    def timeout(self, delay, value=None):
        return Timeout(self, int(delay), value)

    def process(self, gen, name=""):
        return Process(self, gen, name)

    def _schedule(self, delay, event, band=0, key=()):
        if delay < 0:
            raise SimulationError(f"cannot schedule event {delay} ns in the past")
        self._seq += 1
        heapq.heappush(self._queue, (self.now + int(delay), band, key, self._seq, event))

    def call_at(self, at_ns, fn, key, name="keyed"):
        at_ns = int(at_ns)
        if at_ns < self.now:
            raise SimulationError(f"call_at({at_ns}) is in the past (now={self.now})")
        event = Event(self, name)
        event.callbacks.append(lambda _ev: fn())
        event._state = _TRIGGERED
        self._seq += 1
        heapq.heappush(self._queue, (at_ns, 1, tuple(key), self._seq, event))
        return event

    def peek_next_time(self):
        return self._queue[0][0] if self._queue else None

    events_scheduled = property(lambda self: self._seq)
    pending_events = property(lambda self: len(self._queue))

    def step(self):
        if not self._queue:
            return False
        when, _band, _key, _seq, event = heapq.heappop(self._queue)
        if when < self.now:
            raise SimulationError("event queue corrupted: time went backwards")
        self.now = when
        event._fire()
        return True

    def run(self, until=None, stop=None):
        if self._running:
            raise SimulationError("run() is not reentrant")
        self._running = True
        try:
            if until is not None:
                until = int(until)
            stopped = False
            while self._queue and (until is None or self._queue[0][0] <= until):
                if stop is not None and stop():
                    stopped = True
                    break
                self.step()
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
            self._raise_first_failure()
        return self.now

    def run_until(self, event, limit=None):
        while not event.fired:
            if self._failures:
                self._raise_first_failure()
            if limit is not None and self._queue and self._queue[0][0] > limit:
                raise SimulationError(f"time limit {limit} ns reached before {event!r} fired")
            if not self.step():
                raise SimulationError(
                    f"simulation stalled at t={self.now} ns before {event!r} fired"
                )
        if isinstance(event, Process):
            self._claim_failure(event)
        if event._exc is not None:
            raise event._exc
        return event.value
