"""Differential oracle for the CPU engine.

``NestedCPU`` carries the engine as it was before it became one flat
generator — ``_engine_loop`` delegating to ``_run_thread``, ``_compute``,
``_service_one_irq`` and ``_run_handler``, and idling on a broadcast
``_Signal`` — frozen here as the reference, verbatim but for how it
recognises a compute op (an ``int`` now, where it was a ``Compute``).
Seeded random thread / interrupt / mask programs run on it and on the
shipped :class:`CPU`, two processors to a simulator and every delay from a
small set so same-nanosecond ties are the common case.  Everything a program can observe — who ran what at
which ``now``, ``busy_ns``, every counter, every profiler charge and trace
span — must be identical, and so must the number of heap entries.
"""

import heapq
import random
from typing import Any, Generator, Optional

import pytest

from repro.cab.cpu import (
    _ARMED,
    _BLOCKED,
    _DONE,
    _READY,
    _RUNNING,
    CPU,
    PRIORITY_APPLICATION,
    PRIORITY_SYSTEM,
    TCB,
    Block,
    SetMask,
    WaitToken,
    YieldCPU,
    wait_sim_event,
)
from repro.errors import CABError
from repro.sim.core import Event, Interrupt, Simulator

DELAYS = (0, 1, 1, 2, 2, 3, 5, 8)
SLOTS = 3
SEEDS = range(60)


class _Signal:
    """The broadcast pulse the nested engine idled on, frozen."""

    def __init__(self, sim, name="signal"):
        self.sim = sim
        self._waiters = []
        self._wait_name = f"wait:{name}"

    def wait(self):
        event = Event(self.sim, self._wait_name)
        self._waiters.append(event)
        return event

    def fire(self):
        waiters, self._waiters = self._waiters, []
        for event in waiters:
            event.succeed()


class NestedCPU(CPU):
    """The nested engine, verbatim but for the frozen ``_Signal`` and the
    compute op being an ``int``."""

    def __init__(self, sim, **kwargs):
        super().__init__(sim, **kwargs)
        self._work = _Signal(sim, name=f"{self.name}.work")

    # The frozen engine reads the two hooks it was once wired with per CPU;
    # both now hang on the simulation's one tracer.
    @property
    def tracer(self):
        return self.sim.tracer

    @property
    def profiler(self):
        return self.sim.tracer.profiler

    def post_interrupt(self, handler: Any, name: str = "irq") -> None:
        self._pending_irqs.append((name, handler))
        self.stats.add("interrupts_posted")
        # Kick the engine if it is mid-compute (the first interrupt posted
        # into a burst cuts it) or idle.
        if self._irq_arrival is _ARMED:
            self._irq_arrival = arrival = Event(self.sim, self._irq_arrival_name)
            arrival.callbacks.append(self._cut_burst)
            arrival.succeed()
        self._work.fire()

    def _make_ready(self, tcb: TCB) -> None:
        tcb.state = _READY
        self._seq += 1
        heapq.heappush(self._ready, (-tcb.priority, self._seq, tcb))
        self._work.fire()

    def _pop_ready(self) -> Optional[TCB]:
        while self._ready:
            _neg, _seq, tcb = heapq.heappop(self._ready)
            if tcb.state == _READY:
                return tcb
        return None

    def _top_ready_priority(self) -> Optional[int]:
        while self._ready and self._ready[0][2].state != _READY:
            heapq.heappop(self._ready)
        if self._ready:
            return self._ready[0][2].priority
        return None

    def _should_preempt(self, tcb: TCB) -> bool:
        top = self._top_ready_priority()
        return top is not None and top > tcb.priority

    # ----------------------------------------------------------------- engine

    def _engine_loop(self) -> Generator:
        while True:
            if self._pending_irqs and self._mask_depth == 0:
                yield from self._service_one_irq()
                continue
            tcb = self._pop_ready()
            if tcb is None:
                yield self._work.wait()
                continue
            yield from self._run_thread(tcb)

    def _service_one_irq(self) -> Generator:
        name, handler = self._pending_irqs.popleft()
        self.stats.add("interrupts_serviced")
        tracer = self.tracer
        if tracer is not None:
            track = f"{self.name}/irq:{name}"
            tracer.begin("kernel", f"irq:{name}", track=track)
        # Entry, handler body and exit are non-preemptible busy time.
        if self.interrupt_entry_ns > 0:
            self.busy_ns += self.interrupt_entry_ns
            yield self.interrupt_entry_ns
        if self.profiler is not None:
            self.profiler.account(
                self.name, "irq-overhead", "entry", self.interrupt_entry_ns
            )
        self._active_handler = name
        try:
            if hasattr(handler, "send"):
                yield from self._run_handler(name, handler)
            else:
                handler()
        finally:
            self._active_handler = None
        if self.interrupt_exit_ns > 0:
            self.busy_ns += self.interrupt_exit_ns
            yield self.interrupt_exit_ns
        if self.profiler is not None:
            self.profiler.account(
                self.name, "irq-overhead", "exit", self.interrupt_exit_ns
            )
        if tracer is not None:
            tracer.end("kernel", f"irq:{name}", track=track)

    def _run_handler(self, name: str, gen: Generator) -> Generator:
        """Run an interrupt handler generator to completion, masked."""
        value: Any = None
        while True:
            try:
                op = gen.send(value)
            except StopIteration:
                return
            value = None
            if op.__class__ is int:
                if op > 0:
                    self.busy_ns += op
                    yield op
                if self.profiler is not None:
                    self.profiler.account(self.name, "irq", name, op)
            else:
                gen.close()
                raise CABError(
                    f"{self.name}: interrupt handler {name!r} attempted a "
                    f"blocking operation ({type(op).__name__}); handlers may "
                    f"only compute"
                )

    def _run_thread(self, tcb: TCB) -> Generator:
        if self._last_ran is not tcb:
            switch_ns = self.dispatch_ns + self.context_switch_ns
            if self.tracer is not None:
                self.tracer.begin(
                    "kernel",
                    "context-switch",
                    {"to": tcb.name},
                    track=self._sched_track,
                )
            if switch_ns > 0:
                self.busy_ns += switch_ns
                yield switch_ns
            if self.tracer is not None:
                self.tracer.end("kernel", "context-switch", track=self._sched_track)
            if self.profiler is not None:
                self.profiler.account(self.name, "sched", "context-switch", switch_ns)
            self.stats.add("context_switches")
            self._last_ran = tcb
        # Bookkeeping label: the dispatcher leaves _RUNNING by assigning the
        # next state directly (blocked/ready/done), never by testing it.
        tcb.state = _RUNNING  # nectarlint: disable=NP302
        self.current = tcb

        while True:
            # Finish an interrupted compute burst before stepping the thread.
            if tcb.pending_compute_ns > 0:
                finished = yield from self._compute(tcb)
                if not finished:
                    self.current = None
                    return  # preempted; tcb was re-queued by _compute

            if self._pending_irqs and self._mask_depth == 0:
                yield from self._service_one_irq()
                if self._should_preempt(tcb):
                    self._make_ready(tcb)
                    self.current = None
                    return
                continue

            if self._should_preempt(tcb):
                self._make_ready(tcb)
                self.current = None
                return

            # Step the thread generator.
            try:
                if tcb.resume_exc is not None:
                    exc, tcb.resume_exc = tcb.resume_exc, None
                    op = tcb.gen.throw(exc)
                else:
                    value, tcb.resume_value = tcb.resume_value, None
                    op = tcb.gen.send(value)
            except StopIteration as stop:
                self._finish_thread(tcb, stop.value)
                self.current = None
                return
            except BaseException:
                tcb.state = _DONE
                self.current = None
                raise

            if op.__class__ is int:
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
                    self.current = None
                    return
            elif isinstance(op, YieldCPU):
                self._make_ready(tcb)
                self.current = None
                return
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

    def _compute(self, tcb: TCB) -> Generator:
        """Charge tcb.pending_compute_ns, slicing on interrupt arrival.

        Returns True if the burst completed, False if the thread was
        preempted (in which case it has been re-queued with the remainder).

        An unmasked burst is one sleep, cut short by :meth:`post_interrupt`.
        Either way the engine goes on behind everything already queued for
        the nanosecond it woke in: one zero-delay hop when the heap head
        shares ``now``, none when nothing does.
        """
        sim = self.sim
        while tcb.pending_compute_ns > 0:
            if self._pending_irqs and self._mask_depth == 0:
                yield from self._service_one_irq()
                if self._should_preempt(tcb):
                    self._make_ready(tcb)
                    return False
                continue
            remaining = tcb.pending_compute_ns
            if self._mask_depth > 0:
                # Masked: interrupts cannot slice the burst.
                self.busy_ns += remaining
                yield remaining
                if self.profiler is not None:
                    self.profiler.account(self.name, "thread", tcb.name, remaining)
                tcb.pending_compute_ns = 0
                break
            start = sim.now
            self._irq_arrival = _ARMED
            try:
                yield remaining
            except Interrupt:
                pass
            self._irq_arrival = None
            if sim.peek_next_time() == sim.now:
                yield 0
            elapsed = sim.now - start
            self.busy_ns += elapsed
            if self.profiler is not None:
                self.profiler.account(self.name, "thread", tcb.name, elapsed)
            tcb.pending_compute_ns = remaining - elapsed
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
        sim.tracer.profiler = Profile(self.log, sim)
        sim.tracer.sink = self.log.append
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
            yield burst
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
                yield op[1]
            elif kind == "masked":
                yield SetMask(True)
                yield op[1]
                self.poke(name, op[2])  # held back until the unmask
                yield op[3]
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
    """The flat engine against the frozen nested one (the test keeps the
    name it had when the reference was the ``any_of`` burst)."""
    old, new = Rig(NestedCPU, seed), Rig(CPU, seed)
    assert new.outcome() == old.outcome()
    assert len(new.log) > 100  # the program did run
    assert new.sim.events_scheduled == old.sim.events_scheduled


def test_programs_cut_bursts_and_idle_the_engine():
    """The oracle only counts if bursts are cut mid-flight, arrivals outlive
    their burst, and the engine idles and is woken both ways."""
    seen = {"cut": 0, "late": 0, "ready-wake": 0, "irq-wake": 0}

    class CountingCPU(CPU):
        def _cut_burst(self, arrival):
            seen["cut" if self._irq_arrival is arrival else "late"] += 1
            super()._cut_burst(arrival)

        def _make_ready(self, tcb):
            seen["ready-wake"] += self._idle is not None
            super()._make_ready(tcb)

        def post_interrupt(self, handler, name="irq"):
            seen["irq-wake"] += self._idle is not None
            super().post_interrupt(handler, name)

    for seed in SEEDS:
        Rig(CountingCPU, seed).sim.run()
    assert seen["cut"] > 100
    assert seen["late"] > 10
    assert seen["ready-wake"] > 50
    assert seen["irq-wake"] > 100
