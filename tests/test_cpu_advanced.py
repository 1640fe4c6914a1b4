"""Advanced CPU-engine behaviour: masking in handlers, utilization, storms."""

import pytest

from repro.cab.cpu import (
    CPU,
    Block,
    PRIORITY_APPLICATION,
    PRIORITY_SYSTEM,
    SetMask,
    WaitToken,
)
from repro.sim import Simulator


def make_cpu(sim, **kwargs):
    defaults = dict(
        context_switch_ns=1_000,
        dispatch_ns=0,
        interrupt_entry_ns=500,
        interrupt_exit_ns=500,
    )
    defaults.update(kwargs)
    return CPU(sim, name="cpu", **defaults)


def test_interrupts_do_not_nest():
    """A second interrupt posted during a handler waits for the first
    (the paper's CAB does not use nested interrupts)."""
    sim = Simulator()
    cpu = make_cpu(sim)
    order = []

    def first_handler():
        order.append(("first-start", sim.now))
        cpu.post_interrupt(second_handler(), name="second")
        yield 10_000
        order.append(("first-end", sim.now))

    def second_handler():
        order.append(("second-start", sim.now))
        yield 1_000

    cpu.post_interrupt(first_handler(), name="first")
    sim.run()
    events = [name for name, _t in order]
    assert events == ["first-start", "first-end", "second-start"]


def test_interrupt_storm_starves_application_threads():
    """Back-to-back interrupts keep the CPU; the app thread finishes late.

    This is exactly why the paper worries about time spent at interrupt
    level (Sec. 3.1)."""
    sim = Simulator()
    cpu = make_cpu(sim)
    finished = {}

    def app():
        yield 50_000
        finished["app"] = sim.now

    def handler():
        yield 9_000

    def device():
        for _ in range(20):
            cpu.post_interrupt(handler(), name="storm")
            yield sim.timeout(10_000)

    cpu.add_thread(app(), priority=PRIORITY_APPLICATION)
    sim.process(device())
    sim.run()
    # 50 us of work took over 200 us of wall time under the storm.
    assert finished["app"] > 200_000


def test_utilization_accounting_with_idle_gaps():
    sim = Simulator()
    cpu = make_cpu(sim, context_switch_ns=0)

    def worker():
        yield 10_000
        token = WaitToken()
        cpu.wake_after(token, 100_000)  # idle for ~100 us
        yield Block(token)
        yield 10_000

    cpu.add_thread(worker())
    sim.run()
    # Busy: 2x10 us of compute plus the small timer-handler overhead.
    assert 20_000 <= cpu.busy_ns <= 30_000
    assert sim.now >= 120_000


def test_equal_priority_threads_do_not_preempt_each_other():
    sim = Simulator()
    cpu = make_cpu(sim, context_switch_ns=0)
    order = []

    def thread(tag):
        order.append((tag, "start"))
        yield 10_000
        order.append((tag, "end"))

    cpu.add_thread(thread("a"), priority=PRIORITY_SYSTEM)
    cpu.add_thread(thread("b"), priority=PRIORITY_SYSTEM)
    sim.run()
    assert order == [("a", "start"), ("a", "end"), ("b", "start"), ("b", "end")]


def test_mask_survives_across_computes():
    sim = Simulator()
    cpu = make_cpu(sim, interrupt_entry_ns=0, interrupt_exit_ns=0, context_switch_ns=0)
    served = []

    def handler():
        served.append(sim.now)
        yield 0

    def thread():
        yield SetMask(True)
        yield 5_000
        yield 5_000  # still masked between computes
        yield SetMask(False)
        yield 1_000

    cpu.add_thread(thread())

    def device():
        yield sim.timeout(2_000)
        cpu.post_interrupt(handler(), name="d")

    sim.process(device())
    sim.run()
    assert served == [10_000]


def test_nested_masking_depth():
    sim = Simulator()
    cpu = make_cpu(sim, interrupt_entry_ns=0, interrupt_exit_ns=0, context_switch_ns=0)
    served = []

    def handler():
        served.append(sim.now)
        yield 0

    def thread():
        yield SetMask(True)
        yield SetMask(True)
        yield SetMask(False)  # still masked: depth 1
        yield 10_000
        yield SetMask(False)  # now unmasked
        yield 1_000

    cpu.add_thread(thread())

    def device():
        yield sim.timeout(1_000)
        cpu.post_interrupt(handler(), name="d")

    sim.process(device())
    sim.run()
    assert served == [10_000]


def test_timer_after_cancelled_token_is_silent():
    sim = Simulator()
    cpu = make_cpu(sim)
    token = WaitToken()
    cpu.wake_after(token, 5_000)
    token.cancelled = True
    sim.run()
    assert not token.fired


def test_many_threads_round_robin_fairness():
    sim = Simulator()
    cpu = make_cpu(sim, context_switch_ns=0)
    counts = {tag: 0 for tag in range(5)}

    def worker(tag):
        from repro.cab.cpu import YieldCPU

        for _ in range(10):
            counts[tag] += 1
            yield 100
            yield YieldCPU()

    for tag in range(5):
        cpu.add_thread(worker(tag))
    sim.run()
    assert all(count == 10 for count in counts.values())
