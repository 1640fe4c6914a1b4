"""The threads package: mutexes and condition variables.

Derived (conceptually) from the Mach C Threads package, as the paper's
runtime was (Sec. 3.1): forking and joining of threads, mutual exclusion
with locks, and synchronization by means of condition variables, on top of
the preemptive priority scheduler in :mod:`repro.cab.cpu`.

All operations here are *thread-context generators*: call them with
``yield from`` inside a thread body.  Interrupt handlers may use the
``i``-prefixed variants, which never block (paper Sec. 3.1 discusses exactly
this split between handler and thread context).
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Generator, Optional

from repro.cab.cpu import CPU, Block, TCB, WaitToken
from repro.errors import NectarError
from repro.model.costs import CostModel

__all__ = ["Condition", "Mutex", "ThreadOps"]


class Mutex:
    """A mutual exclusion lock with FIFO wakeup (barging allowed)."""

    def __init__(self, name: str = "mutex"):
        self.name = name
        self.owner: Optional[TCB] = None
        self.waiters: Deque[WaitToken] = deque()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        owner = self.owner.name if self.owner else None
        return f"<Mutex {self.name} owner={owner} waiters={len(self.waiters)}>"


class Condition:
    """A condition variable (Mesa semantics)."""

    def __init__(self, name: str = "cond"):
        self.name = name
        self.waiters: Deque[WaitToken] = deque()

    @property
    def waiting(self) -> int:
        return sum(
            1 for token in self.waiters if not token.fired and not token.cancelled
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Condition {self.name} waiting={self.waiting}>"


class ThreadOps:
    """Thread/synchronization operations bound to one CPU and cost model."""

    def __init__(self, cpu: CPU, costs: CostModel):
        self.cpu = cpu
        self.costs = costs

    # -- basic thread operations ------------------------------------------------

    def fork(self, gen: Generator, name: str = "thread", priority: int = 1) -> Generator:
        """Thread-context fork: charge the fork cost, return the new TCB."""
        yield self.costs.rt_fork_ns
        return self.cpu.add_thread(gen, priority=priority, name=name)

    def join(self, tcb: TCB) -> Generator:
        """Block until ``tcb`` terminates; returns its result."""
        yield self.costs.rt_lock_ns
        if not tcb.alive:
            return tcb.result
        token = WaitToken(name=f"join:{tcb.name}")
        tcb.join_tokens.append(token)
        result = yield Block(token)
        return result

    def sleep(self, ns: int) -> Generator:
        """Block the calling thread for ``ns`` simulated nanoseconds."""
        if ns < 0:
            raise NectarError(f"negative sleep {ns}")
        token = WaitToken(name="sleep")
        self.cpu.wake_after(token, ns)
        yield Block(token)

    # -- mutexes --------------------------------------------------------------

    def lock(self, mutex: Mutex) -> Generator:
        """Acquire a mutex, blocking while another thread owns it."""
        yield self.costs.rt_lock_ns
        while mutex.owner is not None:
            if mutex.owner is self.cpu.current:
                raise NectarError(
                    f"thread {self.cpu.current.name} relocking mutex "
                    f"{mutex.name} it already owns"
                )
            token = WaitToken(name=f"lock:{mutex.name}")
            mutex.waiters.append(token)
            yield Block(token)
        mutex.owner = self.cpu.current

    def unlock(self, mutex: Mutex) -> Generator:
        """Release a mutex owned by the calling thread."""
        if mutex.owner is not self.cpu.current:
            raise NectarError(
                f"unlock of {mutex.name} by non-owner "
                f"{self.cpu.current.name if self.cpu.current else '<none>'}"
            )
        yield self.costs.rt_lock_ns
        mutex.owner = None
        self._wake_one(mutex.waiters)

    # -- condition variables -----------------------------------------------------

    def wait(self, cond: Condition, mutex: Mutex) -> Generator:
        """Release ``mutex``, block on ``cond``, reacquire ``mutex``.

        The token is queued before the wait's compute burst: an interrupt
        handler that makes the predicate true and signals during that burst
        finds the token, instead of signalling an empty queue (a lost wakeup).
        """
        token = WaitToken(name=f"wait:{cond.name}")
        cond.waiters.append(token)
        yield self.costs.rt_wait_ns
        yield from self.unlock(mutex)
        yield Block(token)
        yield from self.lock(mutex)

    def wait_until(
        self,
        cond: Condition,
        mutex: Mutex,
        done: Callable[[], bool],
        deadline_ns: int,
    ) -> Generator:
        """The one timed wait: block on ``cond`` until ``done()`` holds or
        the clock reaches ``deadline_ns``; returns ``done()``.

        The caller holds ``mutex``, as for :meth:`wait`, and each wake
        re-tests the predicate, so a signal that lands in the same instant
        as the deadline still counts and a wake that leaves it false waits
        out the same deadline instead of starting a fresh one.  Each token
        is queued before its compute burst, as in :meth:`wait`.
        """
        sim = self.cpu.sim
        while not done():
            if sim.now >= deadline_ns:
                return False
            token = WaitToken(name=f"wait-until:{cond.name}")
            cond.waiters.append(token)
            yield self.costs.rt_wait_ns
            self.cpu.wake_at(token, deadline_ns)
            yield from self.unlock(mutex)
            yield Block(token)
            token.cancelled = True  # a later signal must skip this token
            yield from self.lock(mutex)
        return True

    def signal(self, cond: Condition) -> Generator:
        """Thread-context signal: wake one waiter."""
        yield self.costs.rt_signal_ns
        self._wake_one(cond.waiters)

    def broadcast(self, cond: Condition) -> Generator:
        """Wake every waiter of a condition variable."""
        yield self.costs.rt_signal_ns
        while self._wake_one(cond.waiters):
            pass

    def signal_nocost(self, cond: Condition) -> bool:
        """Plain-call signal for device callbacks (no CPU context at all)."""
        return self._wake_one(cond.waiters)

    # -- internal ---------------------------------------------------------------

    def _wake_one(self, waiters: Deque[WaitToken]) -> bool:
        while waiters:
            token = waiters.popleft()
            if token.cancelled or token.fired:
                continue
            self.cpu.wake(token)
            return True
        return False
