"""Differential oracle for the event kernel.

Seeded random programs run on ``repro.sim.core`` and on the frozen naive
kernel in ``tests/reference_kernel.py``; both must produce the same fire
order, the same ``now`` after every step, the same resumed values and
exceptions and the same ``events_scheduled``.  The fast kernel may change
how an event is queued and dispatched, never which events exist or when
they fire.
"""

import random

import pytest

from repro.sim import core as fast
from tests import reference_kernel as ref

DELAYS = (0, 0, 0, 1, 1, 2, 3, 5)
OPS = (
    "sleep", "nap", "nap", "nap", "wait", "wait", "crowd", "crowd",
    "spawn", "kick", "kick", "keyed", "boom",
)


def _exc(exc):
    return (type(exc).__name__, str(exc))


class Program:
    """One random program, built from ``seed`` against ``kernel``'s API only.

    Every random draw happens in firing order, so two kernels that fire in
    the same order consume the same draws; a divergence shows in ``log``.
    """

    def __init__(self, kernel, seed):
        self.kernel = kernel
        self.rng = random.Random(seed)
        self.sim = kernel.Simulator()
        self.log = []
        self.shared = [self.sim.event(f"shared{i}") for i in range(5)]
        self.procs = []
        for index, event in enumerate(self.shared):
            self.sim.process(self.trigger(index, event))
        self.roots = [self.spawn((n,), 0) for n in range(4)]

    def note(self, *what):
        self.log.append((self.sim.now,) + what)

    def spawn(self, tag, depth):
        proc = self.sim.process(self.worker(tag, depth), name=f"worker{tag}")
        self.procs.append(proc)
        return proc

    def trigger(self, index, event):
        """Fire or fail one shared event at a random time."""
        rng = self.rng
        yield self.sim.timeout(rng.choice(DELAYS) + index)
        if rng.random() < 0.2:
            event.fail(KeyError(index), delay=rng.choice((0, 2)))
        else:
            event.succeed(100 + index, delay=rng.choice((0, 0, 2)))

    def pick_target(self, tag, step):
        """The event a worker waits on next: the named cases of the kernel."""
        rng, sim = self.rng, self.sim
        op = rng.choice(OPS)
        if op == "sleep":
            return op, sim.timeout(rng.choice(DELAYS), value=(tag, step))
        if op == "nap":  # a bare delay: no event object in the fast kernel
            return op, rng.choice(DELAYS)
        if op == "wait":  # may already have fired: the relay path
            return op, rng.choice(self.shared)
        return op, None

    def crowd(self, tag, step, depth):
        """Spawn behind a zero-delay event and a zero timeout of this
        nanosecond, sometimes killing the newborn before its first step;
        the caller then naps zero, so the start lies among same-ns sleeps."""
        rng, sim = self.rng, self.sim
        zero = sim.event("zero")
        zero.callbacks.append(lambda _ev: self.note(tag, step, "zero fired"))
        zero.succeed()
        sim.timeout(0).callbacks.append(lambda _ev: self.note(tag, step, "timeout fired"))
        child = self.spawn(tag + (step,), depth + 1)
        if rng.random() < 0.4:
            self.note(tag, step, "smothers", child.name)
            child.interrupt((tag, step))
        return 0

    def worker(self, tag, depth):
        rng, sim = self.rng, self.sim
        self.note(tag, "starts")
        for step in range(rng.randint(2, 6)):
            op, target = self.pick_target(tag, step)
            if op == "spawn" and depth < 2:  # nested processes and joins
                child = self.spawn(tag + (step,), depth + 1)
                target = child if rng.random() < 0.7 else None
            elif op == "crowd" and depth < 2:
                target = self.crowd(tag, step, depth)
            elif op == "kick":  # interrupt someone, waiting or not yet started
                victim = rng.choice(self.procs)
                # Not me, nor a kicker up the stack whose kick stepped me.
                if victim.alive and not victim._gen.gi_running:
                    self.note(tag, step, "kicks", victim.name)
                    victim.interrupt((tag, step))
            elif op == "keyed":  # band 1, colliding with band-0 events
                key = (rng.randrange(3),)
                at = sim.now + rng.choice(DELAYS)
                sim.call_at(at, lambda key=key: self.note("keyed", key), key)
            elif op == "boom":
                if rng.random() < 0.3:
                    raise ValueError(f"boom{tag}")
                if rng.random() < 0.2:
                    target = -1 - step  # a negative delay fails the process
            while target is not None:
                try:
                    got = yield target
                except self.kernel.Interrupt as intr:
                    self.note(tag, step, op, "interrupted", intr.cause)
                    if rng.random() < 0.5:
                        continue  # re-yield the same (maybe stale) event or delay
                    break  # a kicked nap leaves its heap entry behind
                except (KeyError, ValueError, self.kernel.SimulationError) as exc:
                    self.note(tag, step, op, "raised", _exc(exc))
                    break
                self.note(tag, step, op, "got", got)
                break
        return tag

    def finish(self):
        sim = self.sim
        self.log.append(
            (
                "end",
                sim.now,
                sim.events_scheduled,
                sim.pending_events,
                [(p.name, p.alive, p.value, p._exc and _exc(p._exc)) for p in self.procs],
                [_exc(p._exc) for p in sim._failures],
            )
        )
        return self.log


def drive_steps(program):
    """step() to exhaustion: ``now`` after every single event."""
    sim = program.sim
    while sim.step():
        program.log.append(("now", sim.now, sim.pending_events, sim.peek_next_time()))


def drive_windows(program):
    """run(until, stop) in short windows: parking on ``stop`` and resuming."""
    sim, rng = program.sim, random.Random(program.rng.random())
    for _window in range(10_000):
        if not sim.pending_events:
            return
        budget = [rng.randint(0, 4)]

        def stop():
            budget[0] -= 1
            return budget[0] < 0

        until = rng.choice((None, sim.now, sim.now + 1, sim.now + 4, sim.now + 50))
        try:
            returned = sim.run(until, stop if rng.random() < 0.7 else None)
        except (KeyError, ValueError, program.kernel.SimulationError) as exc:
            returned = _exc(exc)
        program.log.append(("window", until, returned, sim.now, sim.peek_next_time()))
    raise AssertionError("windows did not drain the queue")


def drive_run_until(program):
    """run_until() each root (failures surface, limits, stalls), then drain."""
    sim, rng = program.sim, random.Random(program.rng.random())
    for root in program.roots:
        limit = rng.choice((None, None, sim.now + 3, sim.now + 40))
        try:
            outcome = sim.run_until(root, limit)
        except (KeyError, ValueError, program.kernel.SimulationError) as exc:
            outcome = _exc(exc)
        program.log.append(("run_until", root.name, limit, outcome, sim.now))
    drive_steps(program)


@pytest.mark.parametrize("drive", [drive_steps, drive_windows, drive_run_until])
@pytest.mark.parametrize("seed", range(60))
def test_fast_kernel_matches_reference(seed, drive):
    logs = []
    for kernel in (ref, fast):
        program = Program(kernel, seed)
        drive(program)
        logs.append(program.finish())
    assert logs[0] == logs[1]
    assert logs[0][-1][2] > 20  # events_scheduled: the program did run


def test_random_programs_reach_every_named_case():
    """The generator is only an oracle if it actually visits the hard cases."""
    seen = set()
    for seed in range(60):
        program = Program(ref, seed)
        drive_steps(program)
        for entry in program.finish():
            words = [word for word in entry if isinstance(word, str)]
            seen.update(words)
            if "nap" in words:
                seen.add(" ".join(words))
            if entry[0] == "end":
                seen.update(
                    "negative delay" for _kind, text in entry[-1] if "negative delay" in text
                )
    assert {"interrupted", "kicks", "keyed", "raised", "got", "wait"} <= seen
    # Births among same-ns entries, and processes killed before their start.
    assert {"crowd", "zero fired", "timeout fired", "smothers"} <= seen
    # Bare delays: completed, cut short (a stale heap entry), and negative.
    assert {"nap got", "nap interrupted", "negative delay"} <= seen


def _scripted(kernel):
    """Interrupt while waiting, re-yield the same event, then it fires: the
    waiter must be resumed once, *behind* the callback added in between."""
    sim = kernel.Simulator()
    log = []
    gate = sim.event("gate")

    def waiter():
        for attempt in range(2):
            try:
                log.append(("resumed", sim.now, (yield gate)))
                break
            except kernel.Interrupt as intr:
                log.append(("interrupted", sim.now, intr.cause, attempt))
        yield sim.timeout(0)
        log.append(("after", sim.now))

    def bystander():
        gate.callbacks.append(lambda ev: log.append(("bystander", sim.now)))
        proc.interrupt("again")
        yield sim.timeout(2)
        gate.succeed("open")
        sim.call_at(sim.now, lambda: log.append(("keyed", sim.now)), (0,))

    proc = sim.process(waiter())
    sim.process(bystander())
    sim.run()
    return log, sim.events_scheduled, sim.now


def test_reyield_after_interrupt_keeps_callback_order():
    assert _scripted(fast) == _scripted(ref)
    log, _events, _now = _scripted(fast)
    # "after" rides a zero-delay band-0 event, so it precedes the keyed call
    # of the same nanosecond although that call was scheduled first.
    assert [entry[0] for entry in log] == [
        "interrupted", "bystander", "resumed", "after", "keyed",
    ]


def _scripted_sleeps(kernel):
    """Bare delays through step(): a zero delay, a sleep interrupted and
    re-slept, and a process that dies with its stale entry still queued."""
    sim = kernel.Simulator()
    log = []

    def napper():
        yield 0
        log.append(("hop", sim.now))
        for attempt in range(2):
            try:
                yield 10
                log.append(("woke", sim.now, attempt))
            except kernel.Interrupt as intr:
                log.append(("cut", sim.now, intr.cause))

    def doomed():
        yield 50  # killed at t=4; this entry outlives the process

    def kicker():
        yield 4
        sleeper.interrupt("early")
        victim.interrupt()
        yield sim.timeout(6)  # ties with the stale entry of napper's first nap
        log.append(("kicker", sim.now))

    sleeper = sim.process(napper())
    victim = sim.process(doomed())
    sim.process(kicker())
    while sim.step():
        log.append(("now", sim.now, sim.pending_events, sim.peek_next_time()))
    return log, sim.events_scheduled, victim.alive, sleeper.alive


def test_sleep_entries_match_reference_timeouts_step_by_step():
    assert _scripted_sleeps(fast) == _scripted_sleeps(ref)
    log, events, *_alive = _scripted_sleeps(fast)
    assert [entry for entry in log if entry[0] != "now"] == [
        ("hop", 0), ("cut", 4, "early"), ("kicker", 10), ("woke", 14, 1),
    ]
    assert ("now", 50, 0, None) in log  # the dead process's entry still popped
    assert events == 12


def test_run_until_raises_a_failure_before_firing_the_next_event():
    sim = fast.Simulator()
    fired = []

    def failing():
        yield sim.timeout(1)
        raise ValueError("boom")

    def bystander():
        yield sim.timeout(1)
        fired.append(sim.now)

    sim.process(failing())
    sim.process(bystander())
    never = sim.event("never")
    with pytest.raises(ValueError, match="boom"):
        sim.run_until(never)
    assert fired == [], "the event after the failure fired before it surfaced"
    assert sim.pending_events == 2  # the bystander's timeout, the failed process
