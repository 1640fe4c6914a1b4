"""Unit tests for the discrete-event simulation kernel."""

import pytest

from repro.sim import Event, Interrupt, SimulationError, Simulator


def test_timeout_advances_time():
    sim = Simulator()

    def body():
        yield sim.timeout(1_000)
        yield sim.timeout(500)
        return sim.now

    assert sim.run_process(body()) == 1_500


def test_zero_delay_timeout_runs_same_time():
    sim = Simulator()

    def body():
        yield sim.timeout(0)
        return sim.now

    assert sim.run_process(body()) == 0


def test_negative_timeout_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.timeout(-1)


def test_event_value_passes_through():
    sim = Simulator()
    ev = sim.event()

    def producer():
        yield sim.timeout(10)
        ev.succeed("payload")

    def consumer():
        value = yield ev
        return value

    sim.process(producer())
    assert sim.run_process(consumer()) == "payload"


def test_event_failure_raises_inside_process():
    sim = Simulator()
    ev = sim.event()

    def producer():
        yield sim.timeout(5)
        ev.fail(ValueError("boom"))

    def consumer():
        with pytest.raises(ValueError, match="boom"):
            yield ev
        return "handled"

    sim.process(producer())
    assert sim.run_process(consumer()) == "handled"


def test_event_cannot_trigger_twice():
    sim = Simulator()
    ev = sim.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)
    with pytest.raises(SimulationError):
        ev.fail(RuntimeError("x"))


def test_same_time_events_fire_in_schedule_order():
    sim = Simulator()
    order = []

    def make(tag):
        def body():
            yield sim.timeout(100)
            order.append(tag)

        return body

    for tag in range(5):
        sim.process(make(tag)())
    sim.run()
    assert order == [0, 1, 2, 3, 4]


def test_process_join_returns_value():
    sim = Simulator()

    def child():
        yield sim.timeout(42)
        return "done"

    def parent():
        proc = sim.process(child())
        value = yield proc
        return (value, sim.now)

    assert sim.run_process(parent()) == ("done", 42)


def test_joining_already_finished_process():
    sim = Simulator()

    def child():
        yield sim.timeout(1)
        return 7

    def parent(proc):
        yield sim.timeout(100)
        value = yield proc
        return value

    proc = sim.process(child())
    assert sim.run_process(parent(proc)) == 7


def test_interrupt_delivers_cause():
    sim = Simulator()

    def victim():
        try:
            yield sim.timeout(1_000_000)
        except Interrupt as intr:
            return ("interrupted", intr.cause, sim.now)
        return "not reached"

    def attacker(proc):
        yield sim.timeout(100)
        proc.interrupt("why")

    proc = sim.process(victim())
    sim.process(attacker(proc))
    sim.run()
    assert proc.value == ("interrupted", "why", 100)


def test_interrupted_wait_does_not_resume_twice():
    sim = Simulator()
    hits = []

    def victim():
        try:
            yield sim.timeout(50)
        except Interrupt:
            pass
        yield sim.timeout(500)
        hits.append(sim.now)

    def attacker(proc):
        yield sim.timeout(10)
        proc.interrupt()

    proc = sim.process(victim())
    sim.process(attacker(proc))
    sim.run()
    # The original timeout at t=50 must not wake the process again.
    assert hits == [510]


def test_unhandled_interrupt_terminates_quietly():
    sim = Simulator()

    def victim():
        yield sim.timeout(1_000)

    def attacker(proc):
        yield sim.timeout(1)
        proc.interrupt()

    proc = sim.process(victim())
    sim.process(attacker(proc))
    sim.run()
    assert proc.fired and proc.ok


def test_interrupting_dead_process_is_error():
    sim = Simulator()

    def quick():
        yield sim.timeout(1)

    proc = sim.process(quick())
    sim.run()
    with pytest.raises(SimulationError):
        proc.interrupt()


def test_process_exception_surfaces_from_run():
    sim = Simulator()

    def bad():
        yield sim.timeout(1)
        raise RuntimeError("broken process")

    sim.process(bad())
    with pytest.raises(RuntimeError, match="broken process"):
        sim.run()


def test_yielding_non_event_fails_process():
    for junk in (None, 4.0, True, "7", (1,)):  # only a plain int is a delay
        sim = Simulator()

        def bad():
            yield junk

        proc = sim.process(bad())
        with pytest.raises(SimulationError, match="non-event"):
            sim.run()
        assert not proc.ok


def test_sleeping_a_negative_delay_fails_process():
    sim = Simulator()
    cleaned = []

    def bad():
        try:
            yield -1
        finally:
            cleaned.append(sim.now)

    proc = sim.process(bad())
    with pytest.raises(SimulationError, match="negative delay -1"):
        sim.run()
    assert not proc.ok
    assert cleaned == [0]


def test_bare_int_sleeps_without_an_event():
    sim = Simulator()
    log = []

    def sleeper():
        got = yield 30
        log.append((sim.now, got))
        yield 0
        log.append((sim.now, "hop"))

    proc = sim.process(sleeper())
    assert sim.run() == 30
    assert log == [(30, None), (30, "hop")]
    assert proc.ok
    # start + two sleeps + termination: a sleep costs exactly one entry.
    assert sim.events_scheduled == 4


def test_sleep_takes_the_slot_a_timeout_would():
    def order(sleep):
        sim = Simulator()
        fired = []

        def first():
            yield sim.timeout(5)
            fired.append("first")

        def second():
            yield sleep(sim)
            fired.append("second")

        def third():
            yield sim.timeout(5)
            fired.append("third")

        for body in (first, second, third):
            sim.process(body())
        sim.run()
        return fired, sim.events_scheduled

    assert order(lambda sim: 5) == order(lambda sim: sim.timeout(5))


def test_interrupted_sleep_leaves_an_inert_entry():
    sim = Simulator()
    log = []

    def sleeper():
        try:
            yield 100
        except Interrupt as intr:
            log.append((sim.now, intr.cause))
        yield 200
        log.append((sim.now, "woke"))

    def kicker():
        yield 40
        proc.interrupt("kick")

    proc = sim.process(sleeper())
    sim.process(kicker())
    sim.run(until=150)
    # The stale entry of the first sleep popped at t=100 and resumed nothing.
    assert log == [(40, "kick")]
    assert sim.last_event_ns == 100
    sim.run()
    assert log == [(40, "kick"), (240, "woke")]


def test_dead_process_with_a_stale_sleep_entry():
    sim = Simulator()

    def sleeper():
        yield 100

    def killer():
        yield 10
        proc.interrupt()

    proc = sim.process(sleeper())
    sim.process(killer())
    assert sim.run_until(proc) is None
    assert sim.now == 10 and sim.pending_events == 2
    assert sim.step() and sim.step() and not sim.step()
    assert sim.now == 100 and not proc.alive


def test_step_fires_one_entry_of_any_shape():
    sim = Simulator()
    fired = []
    sim.call_at(3, lambda: fired.append("keyed"), key=())

    def sleeper():
        yield 3
        fired.append("slept")

    sim.process(sleeper())
    sim.timeout(7)
    seen = []
    while sim.step():
        seen.append((sim.now, list(fired)))
    assert seen == [
        (0, []),  # start
        (3, ["slept"]),
        (3, ["slept"]),  # the process's own termination event
        (3, ["slept", "keyed"]),
        (7, ["slept", "keyed"]),
    ]


def test_last_event_ns_is_not_the_run_horizon():
    sim = Simulator()

    def body():
        yield 70

    sim.process(body())
    assert sim.run(until=1_000) == 1_000
    assert sim.last_event_ns == 70
    assert sim.run(until=2_000) == 2_000  # nothing fired: unchanged
    assert sim.last_event_ns == 70
    sim.timeout(0)
    sim.run()
    assert sim.now == sim.last_event_ns == 2_000


def test_run_until_event():
    sim = Simulator()
    ev = sim.event()

    def producer():
        yield sim.timeout(77)
        ev.succeed("v")

    sim.process(producer())
    assert sim.run_until(ev) == "v"
    assert sim.now == 77


def test_run_until_stalled_raises():
    sim = Simulator()
    ev = sim.event()
    with pytest.raises(SimulationError, match="stalled"):
        sim.run_until(ev)


def test_run_with_until_bound():
    sim = Simulator()

    def ticker():
        while True:
            yield sim.timeout(10)

    sim.process(ticker())
    assert sim.run(until=105) == 105


def test_a_process_starts_on_its_own_zero_sleep():
    """No start event: the first step is a sleep entry numbered where one
    would be, so it runs behind what this nanosecond already holds."""
    sim = Simulator()
    log = []
    sim.timeout(0).callbacks.append(lambda _ev: log.append("timeout"))

    def body():
        log.append("started")
        yield 0

    proc = sim.process(body())
    assert proc._target == (0, 2, proc, None)
    assert sorted(sim._queue)[1] is proc._target  # no event object queued
    sim.run()
    assert log == ["timeout", "started"]


def test_deadlock_detected_by_run_process():
    sim = Simulator()
    ev = sim.event()

    def stuck():
        yield ev

    with pytest.raises(SimulationError, match="blocked"):
        sim.run_process(stuck())


# -- keyed (band-1) events: the cross-shard injection point --------------------


def test_call_at_fires_at_absolute_time():
    sim = Simulator()
    fired = []
    sim.call_at(500, lambda: fired.append(sim.now), key=("a",))
    sim.run()
    assert fired == [500]


def test_call_at_orders_by_key_not_scheduling_order():
    sim = Simulator()
    fired = []
    # Scheduled in the opposite of key order, same nanosecond.
    sim.call_at(100, lambda: fired.append("b"), key=("hub-b", 1, 1))
    sim.call_at(100, lambda: fired.append("a"), key=("hub-a", 1, 1))
    sim.run()
    assert fired == ["a", "b"]


def test_keyed_events_fire_after_ordinary_events_of_same_ns():
    sim = Simulator()
    fired = []
    sim.call_at(100, lambda: fired.append("keyed"), key=())

    def body():
        yield sim.timeout(100)
        fired.append("ordinary")

    sim.process(body())
    sim.run()
    assert fired == ["ordinary", "keyed"]


def test_call_at_rejects_the_past():
    sim = Simulator()

    def body():
        yield sim.timeout(1_000)

    sim.run_process(body())
    with pytest.raises(SimulationError, match="in the past"):
        sim.call_at(500, lambda: None, key=())


def test_peek_next_time():
    sim = Simulator()
    assert sim.peek_next_time() is None
    sim.call_at(300, lambda: None, key=())

    def body():
        yield sim.timeout(700)

    sim.process(body())
    assert sim.peek_next_time() == 0  # the process's start entry
    sim.run()
    assert sim.peek_next_time() is None
    assert sim.now == 700
