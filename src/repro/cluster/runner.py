"""One shard of a partitioned fleet: a Simulator plus its boundary queues.

A :class:`ShardRunner` owns the shard's :class:`~repro.system.NectarSystem`
(full stacks on its hubs, ghosts elsewhere), collects outbound
:class:`~repro.hub.network.Handoff` records from the network's boundary
seam, and re-injects inbound ones under their original fire time and sort
key.  The conductor drives it through *epochs* — windows sized from every
shard's live emission bounds rather than one global worst case — and the
runner contributes the two local ingredients:

* :meth:`sync_state` — the earliest pending event plus the network's
  conservative :meth:`~repro.hub.network.NectarNetwork.next_emission_bound`,
  the raw material of the conductor's per-pair adaptive lookahead.
* an *emission-margin park* inside :meth:`advance` — once a hand-off has
  left the shard, the runner keeps executing only while the next event is
  provably unaffected by anything that hand-off could cause (its own echo
  needs a propagation delay out, a forwarding hop, and a propagation delay
  back), then parks so the conductor can exchange.  This batches chatty
  windows without ever outrunning causality.

Two further speed levers live here: CABs no flow touches are built as
ghosts (their stacks would boot and then idle forever; their retransmit
counters are synthesized as zero, which is exactly what the reference
reports for them), and worker processes disable the cyclic garbage
collector (the simulation's object graph is acyclic-by-design reference
counting work; the collector only adds pauses).  Elision is off under a
fault plan, whose sites may name any CAB.

The same class also serves as the body of a worker process
(:func:`worker_main`), speaking a command protocol over a pipe while bulk
hand-off payloads ride a pair of shared-memory
:class:`~repro.buf.ring.HandoffRing` buffers.
"""

from __future__ import annotations

import gc
from typing import Iterable, List, Optional, Tuple

from repro.buf.ring import HandoffRing
from repro.cluster.fleet import FleetSpec, build_shard_system
from repro.cluster.partition import Partition
from repro.cluster.workload import Workload, WorkloadSpec, recovery_counters
from repro.hub.network import Handoff
from repro.telemetry.metrics import CounterScope

__all__ = ["ShardRunner", "worker_main"]

class ShardRunner:
    """Build and drive one shard's simulation."""

    def __init__(
        self,
        fleet: FleetSpec,
        partition: Partition,
        shard_id: int,
        workload_spec: WorkloadSpec,
        costs=None,
        fault_plan=None,
    ):
        self.shard_id = shard_id
        self.hub_names = partition.shards[shard_id]
        self.workload = Workload(workload_spec, fleet)
        active_cabs = None
        self._elided_cabs: tuple = ()
        # A fault plan may name any CAB's FIFOs or mailboxes as a site, so
        # idle-CAB elision is off whenever one is attached: every CAB must
        # exist for the shard's injector to see the same sites the
        # single-process reference does.
        if fault_plan is None:
            endpoints = {flow.src for flow in self.workload.flows} | {
                flow.dst for flow in self.workload.flows
            }
            for flow in self.workload.flows:
                endpoints.update(flow.members)
            active_cabs = frozenset(endpoints)
            self._elided_cabs = tuple(
                name
                for name in fleet.cabs_on(self.hub_names)
                if name not in active_cabs
            )
        self.system = build_shard_system(
            fleet, self.hub_names, costs=costs, active_cabs=active_cabs
        )
        if fault_plan is not None:
            self.system.attach_fault_plan(fault_plan)
        self.workload.install(self.system)
        self.outbox: List[Handoff] = []
        network = self.system.network
        network.boundary_egress = self.outbox.append
        # Events up to (first emission's fire time + this margin) are safe
        # to run before exchanging: anything the emitted frame causes on
        # the far side comes back no sooner than a forwarding hop, the
        # frame's serialization (at least its 16-byte datalink header,
        # 1,280 ns) and a propagation delay — more than the emission floor
        # plus one propagation delay.
        self._emit_margin_ns = (
            network.min_emission_delta_ns()
            + network.costs.fiber_propagation_ns
            - 1
        )

    # -- the conductor-facing surface ----------------------------------------

    def advance(self, until: Optional[int]) -> None:
        """Run every event with ``time <= until`` (inclusive; None = no bound),
        parking once a boundary emission's safety margin is exhausted."""
        outbox = self.outbox
        sim = self.system.sim
        margin = self._emit_margin_ns
        peek = sim.peek_next_time

        def parked() -> bool:
            if not outbox:
                return False
            horizon = outbox[0].fire_ns + margin
            when = peek()
            return when is None or when > horizon

        sim.run(until=until, stop=parked)

    def take_outbox(self) -> List[Handoff]:
        """Drain hand-offs that left the shard since the last call."""
        # Copy-and-clear in place: boundary_egress holds a bound append on
        # this exact list, so rebinding the attribute would orphan it.
        out = list(self.outbox)
        self.outbox.clear()
        return out

    def inject(self, handoffs: Iterable[Handoff]) -> None:
        """Deliver hand-offs from other shards (fire times are in our future)."""
        for handoff in handoffs:
            self.system.network.inject_handoff(handoff)

    def sync_state(self) -> Tuple[Optional[int], Optional[int]]:
        """(earliest pending event, conservative next-emission bound).

        The pair the conductor's epoch planner consumes: the first element
        says whether (and when) this shard has work, the second
        lower-bounds when it could next put a hand-off on a cut fiber —
        ``None`` meaning *provably never before the next injection*.
        """
        return (
            self.system.sim.peek_next_time(),
            self.system.network.next_emission_bound(),
        )

    def results(self) -> dict:
        """Protocol-level results plus this shard's meter readings."""
        results = self.workload.results(self.system)
        for name in self._elided_cabs:
            # An elided CAB never ran: every recovery counter of an empty scope.
            results["retransmits"][name] = recovery_counters(CounterScope())
        results["retransmits"] = dict(sorted(results["retransmits"].items()))
        results["events"] = self.system.sim.events_scheduled
        results["sim_ns"] = self.system.sim.now
        results["incomplete"] = list(self.workload.incomplete(self.system))
        return results


def worker_main(
    conn,
    fleet: FleetSpec,
    partition: Partition,
    shard_id: int,
    workload_spec: WorkloadSpec,
    rings=None,
    fault_plan=None,
) -> None:
    """Worker-process body: serve conductor commands over ``conn``.

    ``rings`` is ``(tx_storage, tx_head, tx_tail, rx_storage, rx_head,
    rx_tail)`` — the shared-memory buffers and index cells of this shard's
    outbound and inbound :class:`~repro.buf.ring.HandoffRing`.  Hand-off
    records ride the rings; the pipe carries only the command verbs, the
    per-window record counts, and any overflow records that did not fit
    (pickled via :meth:`Handoff.to_wire`, the legacy path).
    ``fault_plan``, when given, is attached to the shard's system before
    the workload installs — every shard evaluates the same plan against
    its local links, FIFOs, and mailboxes.

    Protocol (request -> response):

    * handshake -> ``("ok", sync_state)``
    * ``("advance", until)`` -> ``("ok", n_ringed, overflow, sync_state)``
    * ``("inject", n_ringed, overflow)`` -> ``("ok", sync_state)``
    * ``("results",)`` -> ``("ok", results_dict)``
    * ``("stop",)`` -> process exits

    Any exception is reported as ``("error", repr)`` and the worker exits.
    """
    try:
        runner = ShardRunner(
            fleet, partition, shard_id, workload_spec, fault_plan=fault_plan
        )
        # The worker is a short-lived batch process with an acyclic-by-design
        # object graph; cyclic collection only adds pauses to every window.
        gc.disable()
        tx_ring = rx_ring = None
        if rings is not None:
            tx_storage, tx_head, tx_tail, rx_storage, rx_head, rx_tail = rings
            tx_ring = HandoffRing(
                tx_storage, tx_head, tx_tail, label=f"shard{shard_id}-tx"
            )
            rx_ring = HandoffRing(
                rx_storage, rx_head, rx_tail, label=f"shard{shard_id}-rx"
            )
        pickle_bytes = 0
        conn.send(("ok", runner.sync_state()))
        while True:
            command = conn.recv()
            verb = command[0]
            if verb == "advance":
                runner.advance(command[1])
                ringed = 0
                overflow = []
                use_ring = tx_ring is not None
                for handoff in runner.take_outbox():
                    if use_ring and tx_ring.push(handoff):
                        ringed += 1
                    else:
                        # Once one record misses, the rest follow the pipe
                        # too: FIFO order across the seam is part of the
                        # determinism contract.
                        use_ring = False
                        wired = handoff.to_wire()
                        pickle_bytes += len(wired.payload)
                        overflow.append(wired)
                conn.send(("ok", ringed, overflow, runner.sync_state()))
            elif verb == "inject":
                count = command[1]
                batch = rx_ring.pop_many(count) if count else []
                batch.extend(command[2])
                runner.inject(batch)
                conn.send(("ok", runner.sync_state()))
            elif verb == "results":
                results = runner.results()
                results["seam"] = {
                    "ring_bytes": tx_ring.pushed_bytes if tx_ring else 0,
                    "ring_records": tx_ring.pushed_records if tx_ring else 0,
                    "pickle_bytes": pickle_bytes,
                }
                conn.send(("ok", results))
            elif verb == "stop":
                return
            else:
                conn.send(("error", f"unknown command {verb!r}"))
                return
    except EOFError:
        return
    except BaseException as exc:  # surface, don't hang the barrier
        try:
            conn.send(("error", f"shard {shard_id}: {exc!r}"))
        except (BrokenPipeError, OSError):
            pass
    finally:
        conn.close()
