"""The fault injector: evaluates a :class:`FaultPlan` at the hook points.

One :class:`Injector` instance serves a whole :class:`~repro.system.NectarSystem`.
The instrumented layers call in through narrow hooks, each behind a single
if-guard, so a system with no injector pays one attribute test per site:

* ``on_link_frame(src, dest, frame)`` — fabric egress
  (:meth:`~repro.hub.network.NectarNetwork._link_tx_loop`): applies
  ``drop``/``corrupt`` faults and ``crash`` blackouts.
* ``link_delay_ns(src)`` — same site: extra ``stall`` delay for the frame.
* ``on_fanout_branch(src, dest, replica)`` — HUB crossbar fan-out
  (:meth:`~repro.hub.network._HubForwarder.accept_tree`): directed ``drop``
  faults and ``crash`` blackouts on individual branches of a fan-out tree.
* ``mailbox_lose(node, mailbox, msg)`` — mailbox queueing: ``mbox-lose``
  faults eat a message as it is queued.
* ``install(system)`` — wires the hooks into an assembled system and
  schedules ``squeeze`` window processes on the matching FIFOs.

Every decision is deterministic: per-spec occurrence counters advance in
simulation event order, and randomness comes from per-spec seeded RNGs.
The injector records each firing as ``(time_ns, kind, site)`` in
:attr:`Injector.fired` (a timed event log, not a count), and counts per-kind
totals in :attr:`Injector.stats`, which :meth:`Injector.install` mounts as
the system's ``fault.*`` counters.
"""

from __future__ import annotations

import random
from typing import Callable, Generator, List, Optional, Tuple

from repro.faults.plan import (
    CORRUPT,
    CRASH,
    DROP,
    MBOX_LOSE,
    SQUEEZE,
    STALL,
    FaultPlan,
    FaultSpec,
)
from repro.telemetry.metrics import CounterScope

__all__ = ["Injector"]


class _SpecState:
    """Mutable evaluation state for one spec: counters + its RNG stream."""

    __slots__ = ("spec", "index", "rng", "occurrences", "fires", "counter")

    def __init__(self, spec: FaultSpec, index: int, rng: random.Random):
        self.spec = spec
        self.index = index
        self.rng = rng
        self.occurrences = 0
        self.fires = 0
        #: The ``fault.*`` counter this spec's firings count into.
        self.counter = f"fault_{spec.kind}"

    def decide(self) -> bool:
        """Advance the occurrence counter and decide whether to fire.

        Call only after kind/site/window already matched: the occurrence
        counter must advance exactly once per matching occurrence for
        ``nth``/``every_nth`` schedules to be reproducible.
        """
        spec = self.spec
        self.occurrences += 1
        if spec.max_fires is not None and self.fires >= spec.max_fires:
            return False
        if spec.nth:
            hit = self.occurrences == spec.nth
        elif spec.every_nth:
            hit = self.occurrences % spec.every_nth == 0
        elif spec.probability:
            hit = self.rng.random() < spec.probability
        else:
            hit = True
        return hit


class Injector:
    """Evaluates one :class:`FaultPlan` against the live simulation."""

    def __init__(self, plan: FaultPlan, clock: Optional[Callable[[], int]] = None):
        self.plan = plan
        self._clock: Callable[[], int] = clock if clock is not None else (lambda: 0)
        self.stats = CounterScope()
        #: Every firing, in simulation order: ``(time_ns, kind, site)``.
        self.fired: List[Tuple[int, str, str]] = []
        self._states = [
            _SpecState(spec, index, plan.rng_for(index))
            for index, spec in enumerate(plan.specs)
        ]
        self._squeezed_fifos: list = []

    # ------------------------------------------------------------- plumbing

    def bind_clock(self, clock: Callable[[], int]) -> None:
        """Attach the simulated-time source (done by ``install``)."""
        self._clock = clock

    def install(self, system) -> None:
        """Wire this injector into an assembled :class:`NectarSystem`.

        Binds the clock, attaches the link hooks and per-runtime guards,
        and spawns the window processes that apply/revert FIFO squeezes.
        Nodes added to the system *after* installation are wired by
        :meth:`~repro.system.NectarSystem.add_node` itself.
        """
        self.bind_clock(lambda: system.sim.now)
        system.metrics.mount("fault", self.stats)
        system.network.fault_hooks = self
        for node in system.nodes.values():
            node.runtime.faults = self
        for state in self._states:
            if state.spec.kind == SQUEEZE:
                system.sim.process(
                    self._squeeze_window(system, state),
                    name=f"fault-squeeze[{state.index}]",
                )

    # ------------------------------------------------------------ matching

    def _fire(self, state: _SpecState, site: str) -> None:
        """Record one firing (time, kind, site) and bump the spec's count."""
        state.fires += 1
        self.fired.append((self._clock(), state.spec.kind, site))
        self.stats.add(state.counter)

    def _active(self, kind: str, site: str):
        """Spec states of ``kind`` whose window and site match right now."""
        now = self._clock()
        for state in self._states:
            spec = state.spec
            if spec.kind == kind and spec.in_window(now) and spec.matches_site(site):
                yield state

    def _active_link(self, kind: str, src: str, dest: str):
        """Matching ``(state, site)`` pairs for a link-egress fault kind.

        Plain ``where`` patterns keep their historical meaning — matched
        against the *sending* CAB name.  Patterns containing ``"->"`` are
        *directed-pair* selectors matched against ``"src->dest"``, which
        pins a spec to one fiber direction (e.g. ``multicast-storm`` drops
        only the multicast replicas bound for one member).
        """
        now = self._clock()
        pair = f"{src}->{dest}"
        for state in self._states:
            spec = state.spec
            if spec.kind != kind or not spec.in_window(now):
                continue
            if "->" in spec.where:
                if spec.matches_site(pair):
                    yield state, pair
            elif spec.matches_site(src):
                yield state, src

    # ------------------------------------------------------- link-level hooks

    def on_link_frame(self, src: str, dest: str, frame) -> None:
        """Fabric egress hook: may corrupt the frame or mark it dropped.

        ``crash`` blackouts eat every frame touching the crashed CAB;
        ``drop``/``corrupt`` specs match the sending CAB (or, with a
        ``"src->dst"`` pattern, one directed CAB pair); ``corrupt`` flips
        one seeded payload byte so the receiver's hardware CRC rejects the
        frame at end-of-packet.
        """
        for state in self._states:
            spec = state.spec
            if spec.kind != CRASH or not spec.in_window(self._clock()):
                continue
            if spec.matches_site(src) or spec.matches_site(dest):
                frame.drop = True
                self._fire(state, src if spec.matches_site(src) else dest)
        if not frame.drop:
            for state, site in self._active_link(DROP, src, dest):
                if state.decide():
                    frame.drop = True
                    self._fire(state, site)
        if not frame.drop:
            for state, site in self._active_link(CORRUPT, src, dest):
                if state.decide():
                    frame.corrupt(state.rng.randrange(frame.size))
                    self._fire(state, site)

    def on_fanout_branch(self, src: str, dest: str, replica) -> None:
        """HUB fan-out hook: may drop one replica on one branch of the tree.

        Replicas share payload storage with their siblings (zero-copy
        crossbar fan-out), so only loss faults apply here — a ``corrupt``
        would flip the byte in every sibling at once.  ``crash`` blackouts
        eat replicas headed for the crashed CAB; ``drop`` specs apply only
        with a directed ``"sender->branch"`` pattern, keeping plain
        ``where`` specs' meaning (source egress, before replication)
        unchanged.
        """
        now = self._clock()
        for state in self._states:
            spec = state.spec
            if spec.kind != CRASH or not spec.in_window(now):
                continue
            if spec.matches_site(dest):
                replica.drop = True
                self._fire(state, dest)
        if replica.drop:
            return
        pair = f"{src}->{dest}"
        for state in self._states:
            spec = state.spec
            if spec.kind != DROP or "->" not in spec.where:
                continue
            if spec.in_window(now) and spec.matches_site(pair) and state.decide():
                replica.drop = True
                self._fire(state, pair)

    def link_delay_ns(self, src: str) -> int:
        """Extra delay the sending link must add before this frame (stall)."""
        total = 0
        for state in self._active(STALL, src):
            if state.decide():
                total += state.spec.stall_ns
                self._fire(state, src)
        return total

    # ---------------------------------------------------------- mailbox hook

    def mailbox_lose(self, node: str, mailbox: str, msg) -> bool:
        """Whether a message being queued into ``node:mailbox`` is lost."""
        site = f"{node}:{mailbox}"
        for state in self._active(MBOX_LOSE, site):
            if state.decide():
                self._fire(state, site)
                return True
        return False

    # ------------------------------------------------------- squeeze windows

    def _squeeze_window(self, system, state: _SpecState) -> Generator:
        """Apply a FIFO squeeze for the spec's window, then revert it.

        Reverting calls :meth:`~repro.hw.fifo.ByteFIFO.recheck_space` so
        producers blocked by the squeeze are granted space again — the
        back-pressure is transient, never a deadlock.
        """
        spec = state.spec
        start, end = spec.window_ns if spec.window_ns is not None else (0, None)
        if start > system.sim.now:
            yield start - system.sim.now
        fifos = [
            fifo
            for node in system.nodes.values()
            for fifo in (node.cab.fiber_in.fifo, node.cab.fiber_out.fifo)
            if spec.matches_site(fifo.name)
        ]
        for fifo in fifos:
            fifo.squeeze_reserve += spec.squeeze_bytes
            self._squeezed_fifos.append(fifo)
            self._fire(state, fifo.name)
        if end is None:
            return
        yield end - system.sim.now
        for fifo in fifos:
            fifo.squeeze_reserve -= spec.squeeze_bytes
            fifo.recheck_space()

    # ------------------------------------------------------------- reporting

    def describe_fires(self) -> str:
        """Stable per-spec summary: occurrences seen and faults fired."""
        lines = []
        for state in self._states:
            lines.append(
                f"  [{state.index}] {state.spec.describe()} -> "
                f"occurrences={state.occurrences} fires={state.fires}"
            )
        return "\n".join(lines) if lines else "  (no specs)"
