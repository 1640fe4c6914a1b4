"""Tests of the CPU execution engine: scheduling, preemption, interrupts."""

import pytest

from repro.errors import CABError
from repro.cab.cpu import (
    CPU,
    DEADLINE_SLICE_NS,
    Block,
    PRIORITY_APPLICATION,
    PRIORITY_SYSTEM,
    SetMask,
    WaitToken,
    YieldCPU,
    wait_sim_event,
)
from repro.sim import Simulator


def make_cpu(sim, **kwargs):
    defaults = dict(
        context_switch_ns=20_000,
        dispatch_ns=0,
        interrupt_entry_ns=4_000,
        interrupt_exit_ns=2_000,
    )
    defaults.update(kwargs)
    return CPU(sim, name="cpu", **defaults)


def test_single_thread_compute_charges_time():
    sim = Simulator()
    cpu = make_cpu(sim)
    done = []

    def body():
        yield 10_000
        done.append(sim.now)

    cpu.add_thread(body(), name="t")
    sim.run()
    # 20 us context switch (first dispatch) + 10 us compute.
    assert done == [30_000]


def test_threads_serialize_on_one_cpu():
    sim = Simulator()
    cpu = make_cpu(sim, context_switch_ns=0)
    finish = {}

    def body(tag):
        yield 10_000
        finish[tag] = sim.now

    cpu.add_thread(body("a"))
    cpu.add_thread(body("b"))
    sim.run()
    assert finish["a"] == 10_000
    assert finish["b"] == 20_000


def test_priority_order():
    sim = Simulator()
    cpu = make_cpu(sim, context_switch_ns=0)
    order = []

    def body(tag):
        yield 1_000
        order.append(tag)

    cpu.add_thread(body("app"), priority=PRIORITY_APPLICATION)
    cpu.add_thread(body("sys"), priority=PRIORITY_SYSTEM)
    sim.run()
    assert order == ["sys", "app"]


def test_block_and_wake():
    sim = Simulator()
    cpu = make_cpu(sim, context_switch_ns=0)
    token = WaitToken()
    result = []

    def sleeper():
        value = yield Block(token)
        result.append((value, sim.now))

    def waker():
        yield 5_000
        cpu.wake(token, "hello")

    cpu.add_thread(sleeper(), name="sleeper")
    cpu.add_thread(waker(), name="waker")
    sim.run()
    assert result == [("hello", 5_000)]


def test_wake_before_block_is_consumed():
    sim = Simulator()
    cpu = make_cpu(sim, context_switch_ns=0)
    token = WaitToken()
    cpu.wake(token, 99)
    result = []

    def body():
        value = yield Block(token)
        result.append(value)

    cpu.add_thread(body())
    sim.run()
    assert result == [99]


def test_double_wake_raises():
    sim = Simulator()
    cpu = make_cpu(sim)
    token = WaitToken()
    cpu.wake(token, 1)
    with pytest.raises(CABError):
        cpu.wake(token, 2)


def test_cancelled_token_wake_is_noop():
    sim = Simulator()
    cpu = make_cpu(sim)
    token = WaitToken()
    token.cancelled = True
    assert cpu.wake(token) is False


def test_preemption_by_higher_priority_on_wake():
    """A system thread woken by an interrupt preempts an app thread mid-burst."""
    sim = Simulator()
    cpu = make_cpu(sim, context_switch_ns=1_000)
    token = WaitToken()
    timeline = []

    def app():
        timeline.append(("app-start", sim.now))
        yield 100_000
        timeline.append(("app-end", sim.now))

    def system():
        yield Block(token)
        timeline.append(("sys-run", sim.now))
        yield 10_000
        timeline.append(("sys-end", sim.now))

    def irq():
        yield 1_000
        cpu.wake(token)

    def device():
        yield sim.timeout(30_000)
        cpu.post_interrupt(irq(), name="dev")

    cpu.add_thread(system(), priority=PRIORITY_SYSTEM, name="sys")
    cpu.add_thread(app(), priority=PRIORITY_APPLICATION, name="app")
    sim.process(device())
    sim.run()

    labels = [label for label, _t in timeline]
    assert labels == ["app-start", "sys-run", "sys-end", "app-end"]
    sys_run = dict(timeline)["sys-run"]
    app_end = dict(timeline)["app-end"]
    # The system thread ran long before the app's 100 us burst could finish.
    assert sys_run < 50_000
    assert app_end > 100_000


def test_interrupt_slices_compute_but_time_is_conserved():
    sim = Simulator()
    cpu = make_cpu(
        sim, context_switch_ns=0, interrupt_entry_ns=1_000, interrupt_exit_ns=1_000
    )
    end = []

    def body():
        yield 50_000
        end.append(sim.now)

    def handler():
        yield 3_000

    def device():
        yield sim.timeout(10_000)
        cpu.post_interrupt(handler(), name="dev")

    cpu.add_thread(body())
    sim.process(device())
    sim.run()
    # 50 us of thread compute + 5 us of interrupt service, no lost work.
    assert end == [55_000]


def test_masked_thread_defers_interrupts():
    sim = Simulator()
    cpu = make_cpu(
        sim, context_switch_ns=0, interrupt_entry_ns=0, interrupt_exit_ns=0
    )
    served = []

    def handler():
        yield 0
        served.append(sim.now)

    def body():
        yield SetMask(True)
        yield 40_000
        yield SetMask(False)
        yield 0

    def device():
        yield sim.timeout(10_000)
        cpu.post_interrupt(handler(), name="dev")

    cpu.add_thread(body())
    sim.process(device())
    sim.run()
    # Interrupt arrived at t=10us but was held until the mask dropped at 40us.
    assert served == [40_000]


def test_blocking_while_masked_is_error():
    sim = Simulator()
    cpu = make_cpu(sim)
    token = WaitToken()

    def body():
        yield SetMask(True)
        yield Block(token)

    cpu.add_thread(body())
    with pytest.raises(CABError, match="masked"):
        sim.run()


def test_unbalanced_unmask_is_error():
    sim = Simulator()
    cpu = make_cpu(sim)

    def body():
        yield SetMask(False)

    cpu.add_thread(body())
    with pytest.raises(CABError, match="unbalanced"):
        sim.run()


def test_handler_blocking_is_error():
    sim = Simulator()
    cpu = make_cpu(sim)

    def handler():
        yield Block(WaitToken())

    cpu.post_interrupt(handler(), name="bad")
    with pytest.raises(CABError, match="blocking"):
        sim.run()


@pytest.mark.parametrize("context", ["thread", "handler"])
@pytest.mark.parametrize(
    "op, error",
    [
        (-1, "negative compute time -1"),
        (2.5, "unknown op|blocking"),
        (True, "unknown op|blocking"),
    ],
)
def test_only_a_non_negative_int_is_compute_time(context, op, error):
    """A float is not truncated and a bool is not a burst: both fail loudly,
    as does a negative int, in a thread and in a handler alike."""
    sim = Simulator()
    cpu = make_cpu(sim)

    def body():
        yield op

    if context == "thread":
        cpu.add_thread(body())
    else:
        cpu.post_interrupt(body(), name="bad")
    with pytest.raises(CABError, match=error):
        sim.run()


def test_plain_callable_interrupt():
    sim = Simulator()
    cpu = make_cpu(sim, interrupt_entry_ns=500, interrupt_exit_ns=500)
    hits = []
    cpu.post_interrupt(lambda: hits.append(sim.now), name="cb")
    sim.run()
    assert hits == [500]


def test_yield_cpu_round_robin():
    sim = Simulator()
    cpu = make_cpu(sim, context_switch_ns=0)
    order = []

    def body(tag):
        order.append((tag, 1))
        yield YieldCPU()
        order.append((tag, 2))
        yield 0

    cpu.add_thread(body("a"))
    cpu.add_thread(body("b"))
    sim.run()
    assert order == [("a", 1), ("b", 1), ("a", 2), ("b", 2)]


def test_wake_after_timer():
    sim = Simulator()
    cpu = make_cpu(sim, context_switch_ns=0, interrupt_entry_ns=0, interrupt_exit_ns=0)
    token = WaitToken()
    out = []

    def body():
        value = yield Block(token)
        out.append((value, sim.now))

    cpu.add_thread(body())
    cpu.wake_after(token, 25_000, value="timer")
    sim.run()
    assert out[0][0] == "timer"
    assert out[0][1] >= 25_000


def test_wake_at_fires_at_a_deadline_many_slices_away():
    sim = Simulator()
    cpu = make_cpu(sim, context_switch_ns=0, interrupt_entry_ns=0, interrupt_exit_ns=0)
    token = WaitToken()
    out = []

    def body():
        yield Block(token)
        out.append(sim.now)

    cpu.add_thread(body())
    deadline = 3 * DEADLINE_SLICE_NS + 12_345
    cpu.wake_at(token, deadline)
    sim.run()
    assert deadline <= out[0] < deadline + 10_000


def test_wake_at_beaten_leaves_one_slice_behind():
    """A token woken long before its deadline leaves one slice-long heap
    entry, not one that lasts until the deadline."""
    sim = Simulator()
    cpu = make_cpu(sim, context_switch_ns=0, interrupt_entry_ns=0, interrupt_exit_ns=0)
    token = WaitToken()
    out = []

    def body():
        yield Block(token)
        out.append(sim.now)

    def waker():
        yield 50_000
        cpu.wake(token, "early")

    cpu.add_thread(body())
    cpu.wake_at(token, 100 * DEADLINE_SLICE_NS)
    sim.process(waker())
    sim.run()
    assert out == [50_000]
    assert sim.now == DEADLINE_SLICE_NS


def test_thread_exception_propagates():
    sim = Simulator()
    cpu = make_cpu(sim)

    def body():
        yield 100
        raise ValueError("thread crashed")

    cpu.add_thread(body())
    with pytest.raises(ValueError, match="thread crashed"):
        sim.run()


def test_join_tokens_fire_on_finish():
    sim = Simulator()
    cpu = make_cpu(sim, context_switch_ns=0)
    results = []

    def child():
        yield 1_000
        return "child-result"

    def parent():
        tcb = cpu.add_thread(child(), name="child")
        token = WaitToken()
        tcb.join_tokens.append(token)
        value = yield Block(token)
        results.append(value)

    cpu.add_thread(parent(), name="parent")
    sim.run()
    assert results == ["child-result"]


def test_wait_sim_event_bridges_device_to_thread():
    sim = Simulator()
    cpu = make_cpu(sim, context_switch_ns=0)
    ev = sim.event()
    out = []

    def device():
        yield sim.timeout(12_345)
        ev.succeed("from-device")

    def body():
        value = yield from wait_sim_event(cpu, ev)
        out.append((value, sim.now))

    sim.process(device())
    cpu.add_thread(body())
    sim.run()
    assert out == [("from-device", 12_345)]


def test_context_switch_counted_once_per_switch():
    sim = Simulator()
    cpu = make_cpu(sim, context_switch_ns=20_000)

    def body():
        yield 1_000
        yield 1_000  # same thread: no extra switch

    cpu.add_thread(body())
    sim.run()
    assert cpu.stats.value("context_switches") == 1
    assert sim.now == 22_000


def test_busy_accounting():
    sim = Simulator()
    cpu = make_cpu(sim, context_switch_ns=0)

    def body():
        yield 7_000

    cpu.add_thread(body())
    sim.run()
    assert cpu.busy_ns == 7_000
