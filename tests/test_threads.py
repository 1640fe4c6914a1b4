"""Tests for the CThreads-style threads package (mutexes, conditions)."""

import pytest

from repro.cab.board import CAB
from repro.errors import NectarError
from repro.model.costs import CostModel
from repro.runtime.kernel import Runtime
from repro.sim import Simulator


@pytest.fixture
def rt():
    sim = Simulator()
    cab = CAB(sim, CostModel(), "cab0")
    return Runtime(cab)


def run(rt, horizon=None):
    rt.sim.run(until=horizon)


def test_fork_and_join(rt):
    results = []

    def child():
        yield from rt.ops.sleep(10_000)
        return "payload"

    def parent():
        tcb = yield from rt.ops.fork(child(), name="child")
        value = yield from rt.ops.join(tcb)
        results.append((value, rt.sim.now))

    rt.fork_application(parent(), "parent")
    run(rt)
    assert results[0][0] == "payload"
    assert results[0][1] >= 10_000


def test_join_finished_thread(rt):
    results = []

    def child():
        yield from rt.ops.sleep(0)
        return 5

    def parent(tcb):
        yield from rt.ops.sleep(50_000)
        value = yield from rt.ops.join(tcb)
        results.append(value)

    tcb = rt.fork_application(child(), "child")
    rt.fork_application(parent(tcb), "parent")
    run(rt)
    assert results == [5]


def test_mutex_excludes(rt):
    mutex = rt.mutex()
    trace = []

    def worker(tag):
        yield from rt.ops.lock(mutex)
        trace.append((tag, "in"))
        yield from rt.ops.sleep(5_000)
        trace.append((tag, "out"))
        yield from rt.ops.unlock(mutex)

    rt.fork_application(worker("a"), "a")
    rt.fork_application(worker("b"), "b")
    run(rt)
    assert trace in (
        [("a", "in"), ("a", "out"), ("b", "in"), ("b", "out")],
        [("b", "in"), ("b", "out"), ("a", "in"), ("a", "out")],
    )


def test_relock_by_owner_rejected(rt):
    mutex = rt.mutex()

    def worker():
        yield from rt.ops.lock(mutex)
        yield from rt.ops.lock(mutex)

    rt.fork_application(worker(), "w")
    with pytest.raises(NectarError, match="relocking"):
        run(rt)


def test_unlock_by_non_owner_rejected(rt):
    mutex = rt.mutex()

    def worker():
        yield from rt.ops.unlock(mutex)

    rt.fork_application(worker(), "w")
    with pytest.raises(NectarError, match="non-owner"):
        run(rt)


def test_condition_signal_wakes_one(rt):
    cond = rt.condition()
    mutex = rt.mutex()
    woken = []

    def waiter(tag):
        yield from rt.ops.lock(mutex)
        yield from rt.ops.wait(cond, mutex)
        woken.append(tag)
        yield from rt.ops.unlock(mutex)

    def signaller():
        yield from rt.ops.sleep(50_000)
        yield from rt.ops.signal(cond)

    rt.fork_application(waiter("a"), "a")
    rt.fork_application(waiter("b"), "b")
    rt.fork_application(signaller(), "s")
    run(rt)
    assert len(woken) == 1


def test_broadcast_wakes_all(rt):
    cond = rt.condition()
    mutex = rt.mutex()
    woken = []

    def waiter(tag):
        yield from rt.ops.lock(mutex)
        yield from rt.ops.wait(cond, mutex)
        woken.append(tag)
        yield from rt.ops.unlock(mutex)

    def signaller():
        yield from rt.ops.sleep(50_000)
        yield from rt.ops.broadcast(cond)

    for tag in range(3):
        rt.fork_application(waiter(tag), f"w{tag}")
    rt.fork_application(signaller(), "s")
    run(rt)
    assert sorted(woken) == [0, 1, 2]


def test_timed_wait_timeout(rt):
    cond = rt.condition()
    mutex = rt.mutex()
    outcome = []

    def waiter():
        yield from rt.ops.lock(mutex)
        done = yield from rt.ops.wait_until(cond, mutex, lambda: False, 30_000)
        outcome.append((done, rt.sim.now))
        yield from rt.ops.unlock(mutex)

    rt.fork_application(waiter(), "w")
    run(rt)
    assert outcome[0][0] is False
    assert outcome[0][1] >= 30_000


def test_timed_wait_signalled(rt):
    cond = rt.condition()
    mutex = rt.mutex()
    ready = []
    outcome = []

    def waiter():
        yield from rt.ops.lock(mutex)
        done = yield from rt.ops.wait_until(cond, mutex, lambda: bool(ready), 1_000_000)
        outcome.append((done, rt.sim.now))
        yield from rt.ops.unlock(mutex)

    def signaller():
        yield from rt.ops.sleep(10_000)
        ready.append(True)
        yield from rt.ops.signal(cond)

    rt.fork_application(waiter(), "w")
    rt.fork_application(signaller(), "s")
    run(rt)
    assert outcome[0][0] is True
    assert outcome[0][1] < 1_000_000


def test_wait_until_keeps_its_deadline_across_false_wakes(rt):
    """A signal that leaves the predicate false re-parks the waiter until
    the same deadline; it does not start a fresh timeout."""
    cond = rt.condition()
    mutex = rt.mutex()
    outcome = []

    def waiter():
        yield from rt.ops.lock(mutex)
        done = yield from rt.ops.wait_until(cond, mutex, lambda: False, 100_000)
        outcome.append((done, rt.sim.now))
        yield from rt.ops.unlock(mutex)

    def signaller():
        yield from rt.ops.sleep(60_000)
        yield from rt.ops.signal(cond)

    rt.fork_application(waiter(), "w")
    rt.fork_application(signaller(), "s")
    run(rt)
    done, woke_ns = outcome[0]
    assert done is False
    assert 100_000 <= woke_ns < 160_000


def test_late_signal_after_timeout_not_lost_for_others(rt):
    """A signal arriving after a timed wait expired must wake a later waiter."""
    cond = rt.condition()
    mutex = rt.mutex()
    ready = []
    outcome = []

    def early_waiter():
        yield from rt.ops.lock(mutex)
        done = yield from rt.ops.wait_until(cond, mutex, lambda: bool(ready), 5_000)
        outcome.append(("early", done))
        yield from rt.ops.unlock(mutex)

    def late_waiter():
        yield from rt.ops.sleep(50_000)
        yield from rt.ops.lock(mutex)
        done = yield from rt.ops.wait_until(
            cond, mutex, lambda: bool(ready), 1_000_000
        )
        outcome.append(("late", done))
        yield from rt.ops.unlock(mutex)

    def signaller():
        yield from rt.ops.sleep(200_000)
        ready.append(True)
        yield from rt.ops.signal(cond)

    rt.fork_application(early_waiter(), "e")
    rt.fork_application(late_waiter(), "l")
    rt.fork_application(signaller(), "s")
    run(rt)
    assert ("early", False) in outcome
    assert ("late", True) in outcome


@pytest.mark.parametrize("timed", [False, True], ids=["wait", "timed_wait"])
def test_signal_inside_the_wait_burst_is_not_lost(rt, timed):
    """An interrupt posted while the waiter computes its ``rt_wait_ns`` sets
    the predicate and signals with ``signal_nocost``: the waiter must wake
    signalled, not sleep on to its timeout (or forever)."""
    cond = rt.condition()
    mutex = rt.mutex()
    ready = []
    outcome = []

    def handler():
        ready.append(rt.sim.now)
        rt.ops.signal_nocost(cond)

    def post_mid_burst():
        yield rt.costs.rt_wait_ns // 2
        rt.cab.cpu.post_interrupt(handler, name="ready")

    def waiter():
        yield from rt.ops.lock(mutex)
        started = rt.sim.now
        rt.sim.process(post_mid_burst(), name="poster")
        if timed:
            signalled = yield from rt.ops.wait_until(
                cond, mutex, lambda: bool(ready), started + 1_000_000
            )
        else:
            yield from rt.ops.wait(cond, mutex)
            signalled = True
        outcome.append((signalled, bool(ready), rt.sim.now - started))
        yield from rt.ops.unlock(mutex)

    rt.fork_application(waiter(), "w")
    run(rt)
    assert ready and ready[0] > 0
    assert len(outcome) == 1
    signalled, saw_ready, waited_ns = outcome[0]
    assert signalled and saw_ready
    assert waited_ns < 1_000_000


def test_sleep_duration(rt):
    stamps = []

    def body():
        start = rt.sim.now
        yield from rt.ops.sleep(123_000)
        stamps.append(rt.sim.now - start)

    rt.fork_application(body(), "b")
    run(rt)
    assert stamps[0] >= 123_000
    # Timer interrupt overhead should be small (well under 10 us).
    assert stamps[0] < 133_000


def test_context_switch_cost_is_20us():
    """Paper Sec. 3.1: context switch time ~20 usec."""
    sim = Simulator()
    cab = CAB(sim, CostModel(), "cab0")
    rt = Runtime(cab)
    assert cab.cpu.context_switch_ns == 20_000
