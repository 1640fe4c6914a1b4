"""Differential oracle for the CPU engine's compute burst.

``AnyOfCPU`` carries the burst as it was before it became one sleep — an
arrival ``Event`` plus a ``Timeout`` under an ``AnyOf``, two heap hops per
burst — frozen here as the reference.  Seeded random thread / interrupt /
mask programs run on it and on the shipped :class:`CPU`, two processors to a
simulator and every delay from a small set so same-nanosecond ties are the
common case.  What a program can observe — who ran what at which ``now``,
``busy_ns``, every counter — must be identical; only the number of heap
entries may differ.
"""

import random

import pytest

from repro.cab.cpu import (
    CPU,
    PRIORITY_APPLICATION,
    PRIORITY_SYSTEM,
    Block,
    Compute,
    SetMask,
    WaitToken,
    YieldCPU,
    wait_sim_event,
)
from repro.sim.core import Simulator

DELAYS = (0, 1, 1, 2, 2, 3, 5, 8)
SLOTS = 3
SEEDS = range(60)


class AnyOfCPU(CPU):
    """The pre-ISSUE-16 ``post_interrupt``/``_compute``, verbatim."""

    def post_interrupt(self, handler, name="irq"):
        self._pending_irqs.append((name, handler))
        self.stats.add("interrupts_posted")
        if self._irq_arrival is not None and not self._irq_arrival.triggered:
            self._irq_arrival.succeed()
        self._work.fire()

    def _compute(self, tcb):
        while tcb.pending_compute_ns > 0:
            if self._pending_irqs and self._mask_depth == 0:
                yield from self._service_one_irq()
                if self._should_preempt(tcb):
                    self._make_ready(tcb)
                    return False
                continue
            start = self.sim.now
            remaining = tcb.pending_compute_ns
            if self._mask_depth > 0:
                self.busy_ns += remaining
                yield self.sim.timeout(remaining)
                if self.profiler is not None:
                    self.profiler.account(self.name, "thread", tcb.name, remaining)
                tcb.pending_compute_ns = 0
                break
            self._irq_arrival = self.sim.event(self._irq_arrival_name)
            winner_index, _event = yield self.sim.any_of(
                [self.sim.timeout(remaining), self._irq_arrival]
            )
            self._irq_arrival = None
            elapsed = self.sim.now - start
            self.busy_ns += elapsed
            if self.profiler is not None:
                self.profiler.account(self.name, "thread", tcb.name, elapsed)
            tcb.pending_compute_ns = max(0, remaining - elapsed)
            if winner_index == 0:
                tcb.pending_compute_ns = 0
        return True


class Profile:
    """Stand-in profiler: the order and size of every busy-time charge."""

    def __init__(self, log, sim):
        self.log, self.sim = log, sim

    def account(self, cpu, category, name, ns):
        self.log.append((self.sim.now, cpu, "charge", category, name, ns))


class Rig:
    """One pre-drawn program: every random draw happens here, before the run,
    so both engines execute the same script whatever order they fire in."""

    def __init__(self, cpu_class, seed):
        rng = self.rng = random.Random(seed)
        sim = self.sim = Simulator()
        self.log = []
        self.cpus = [
            cpu_class(
                sim,
                name=f"cpu{index}",
                context_switch_ns=rng.choice((0, 2, 3)),
                dispatch_ns=rng.choice((0, 1)),
                interrupt_entry_ns=rng.choice((0, 1, 2)),
                interrupt_exit_ns=rng.choice((0, 1)),
            )
            for index in range(2)
        ]
        self.slots = {cpu: [[] for _ in range(SLOTS)] for cpu in self.cpus}
        for cpu in self.cpus:
            cpu.profiler = Profile(self.log, sim)
            for thread in range(3):
                name = f"{cpu.name}.t{thread}"
                priority = rng.choice(
                    (PRIORITY_APPLICATION, PRIORITY_APPLICATION, PRIORITY_SYSTEM)
                )
                # A raw sim event readies its thread from device context, even
                # into another thread's masked section, where the newcomer may
                # not block: "masked" and "event" go to different processors.
                barred = ("event", "masked")[self.cpus.index(cpu)]
                script = [self.draw_op(barred) for _ in range(rng.randint(5, 12))]
                cpu.add_thread(self.thread(cpu, name, script), priority, name)
        for device in range(2):
            script = [
                (rng.choice(DELAYS), self.draw_poke()) for _ in range(rng.randint(4, 10))
            ]
            sim.process(self.device(f"dev{device}", script))

    # -- drawing -----------------------------------------------------------

    def draw_poke(self):
        rng = self.rng
        return (
            rng.randrange(len(self.cpus)),
            rng.randrange(SLOTS),
            rng.choice(DELAYS),
            rng.choice(("gen", "gen", "call")),
        )

    def draw_op(self, barred):
        rng = self.rng
        kind = rng.choice(
            [
                kind
                for kind in (
                    "compute", "compute", "compute", "masked", "masked", "sleep",
                    "block", "wake", "yield", "poke", "event", "event", "keyed",
                )
                if kind != barred
            ]
        )
        if kind == "compute":
            return kind, rng.choice(DELAYS) + rng.choice((0, 0, 10))
        if kind == "masked":
            return kind, rng.choice(DELAYS), self.draw_poke(), rng.choice(DELAYS)
        if kind in ("sleep", "event"):
            return kind, rng.choice(DELAYS)
        if kind == "block":
            return kind, rng.randrange(SLOTS), rng.choice(DELAYS) + 10
        if kind == "wake":
            return kind, rng.randrange(SLOTS)
        if kind == "poke":
            return kind, self.draw_poke()
        if kind == "keyed":
            return kind, rng.choice(DELAYS), rng.randrange(3), self.draw_poke()
        return (kind,)

    # -- running -----------------------------------------------------------

    def note(self, who, *what):
        self.log.append((self.sim.now, who) + what)

    def wake_slot(self, cpu, slot, who):
        tokens, self.slots[cpu][slot] = self.slots[cpu][slot], []
        for token in tokens:
            if not token.fired:
                cpu.wake(token, who)

    def poke(self, who, poke):
        target, slot, burst, kind = poke
        cpu = self.cpus[target]
        label = f"{who}>{cpu.name}"

        def handler():
            self.note(label, "irq-in", cpu.interrupts_pending())
            yield Compute(burst)
            self.wake_slot(cpu, slot, label)
            self.note(label, "irq-out")

        def call():
            self.note(label, "irq-call")
            self.wake_slot(cpu, slot, label)

        cpu.post_interrupt(handler() if kind == "gen" else call, name=kind)

    def device(self, name, script):
        for delay, poke in script:
            yield delay
            self.note(name, "poke", poke)
            self.poke(name, poke)

    def thread(self, cpu, name, script):
        sim = self.sim
        for step, op in enumerate(script):
            kind = op[0]
            self.note(name, step, kind)
            got = None
            if kind == "compute":
                yield Compute(op[1])
            elif kind == "masked":
                yield SetMask(True)
                yield Compute(op[1])
                self.poke(name, op[2])  # held back until the unmask
                yield Compute(op[3])
                yield SetMask(False)
            elif kind == "sleep":
                token = WaitToken(name)
                cpu.wake_after(token, op[1], value="slept")
                got = yield Block(token)
            elif kind == "block":
                token = WaitToken(name)
                self.slots[cpu][op[1]].append(token)
                cpu.wake_after(token, op[2], value="gave-up")
                got = yield Block(token)
            elif kind == "wake":
                self.wake_slot(cpu, op[1], name)
            elif kind == "yield":
                yield YieldCPU()
            elif kind == "poke":
                self.poke(name, op[1])
            elif kind == "event":
                got = yield from wait_sim_event(cpu, sim.timeout(op[1], value=step))
            elif kind == "keyed":
                _kind, delay, key, poke = op
                sim.call_at(sim.now + delay, lambda: self.poke(name, poke), (key,))
            self.note(name, step, "done", got)
        return name

    def outcome(self):
        self.sim.run()
        return {
            "log": self.log,
            "now": self.sim.now,
            "busy_ns": [cpu.busy_ns for cpu in self.cpus],
            "counters": [cpu.stats.snapshot() for cpu in self.cpus],
            "pending_irqs": [cpu.interrupts_pending() for cpu in self.cpus],
        }


@pytest.mark.parametrize("seed", SEEDS)
def test_one_sleep_burst_matches_any_of_burst(seed):
    old, new = Rig(AnyOfCPU, seed), Rig(CPU, seed)
    assert new.outcome() == old.outcome()
    assert len(new.log) > 100  # the program did run
    assert new.sim.events_scheduled <= old.sim.events_scheduled


def test_programs_cut_bursts_and_the_engine_sheds_events():
    """The oracle only counts if bursts are cut mid-flight, arrivals outlive
    their burst, and heap entries really go away."""
    arrivals = {"cut": 0, "late": 0}

    class CountingCPU(CPU):
        def _cut_burst(self, arrival):
            arrivals["cut" if self._irq_arrival is arrival else "late"] += 1
            super()._cut_burst(arrival)

    shed = 0
    for seed in SEEDS:
        old, new = Rig(AnyOfCPU, seed), Rig(CountingCPU, seed)
        old.sim.run()
        new.sim.run()
        shed += old.sim.events_scheduled - new.sim.events_scheduled
    assert arrivals["cut"] > 100
    assert arrivals["late"] > 10
    assert shed > 500
