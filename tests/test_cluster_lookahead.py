"""Adaptive lookahead: distance matrices, emission bounds, epoch grants.

The conductor's speed rests on three claims these tests pin down:

* `Partitioner.shard_distances` really is the per-pair minimum
  cut-crossing cost (BFS hops x one propagation delay, ``None`` when
  unreachable);
* a shard's `next_emission_bound` never over-promises — it is ``None``
  only when the shard provably cannot emit, and otherwise at least the
  next event time;
* the grant loop collapses idle time: a single worker runs the whole
  simulation in one epoch, an idle seam never forces exchanges
  (null-message elision), and the barrier count lands far below the old
  one-window-per-250ns scheme — all without giving up bit-exact parity.
"""

import pytest

from repro.cluster.conductor import Conductor, run_reference
from repro.cluster.fleet import (
    FleetSpec,
    build_shard_system,
    fat_tree_fleet,
    line_fleet,
    star_fleet,
)
from repro.cluster.partition import Partitioner
from repro.cluster.runner import ShardRunner
from repro.cluster.workload import WorkloadSpec
from repro.faults.plan import FaultPlan
from repro.model.costs import DEFAULT_COSTS
from repro.protocols.headers import DatalinkHeader

LINK_NS = DEFAULT_COSTS.fiber_propagation_ns


class TestShardDistances:
    def test_line_distances_scale_with_hop_count(self):
        fleet = line_fleet(4, 2, hub_ports=8)
        partition = Partitioner.partition(fleet, 4)
        distances = Partitioner.shard_distances(fleet, partition, LINK_NS)
        assert distances == (
            (0, LINK_NS, 2 * LINK_NS, 3 * LINK_NS),
            (LINK_NS, 0, LINK_NS, 2 * LINK_NS),
            (2 * LINK_NS, LINK_NS, 0, LINK_NS),
            (3 * LINK_NS, 2 * LINK_NS, LINK_NS, 0),
        )

    def test_star_leaves_are_two_hops_apart(self):
        fleet = star_fleet(3, 2, hub_ports=8)
        partition = Partitioner.partition(fleet, 4)  # center + 3 leaves
        distances = Partitioner.shard_distances(fleet, partition, LINK_NS)
        center = partition.shard_of("hub00")
        leaves = [partition.shard_of(f"hub{i:02d}") for i in (1, 2, 3)]
        for leaf in leaves:
            assert distances[center][leaf] == LINK_NS
        assert distances[leaves[0]][leaves[1]] == 2 * LINK_NS

    def test_fat_tree_leaves_meet_through_any_spine(self):
        fleet = fat_tree_fleet(2, 4, 2, hub_ports=8)
        partition = Partitioner.partition(fleet, 6, strategy="round-robin")
        distances = Partitioner.shard_distances(fleet, partition, LINK_NS)
        a = partition.shard_of("leaf00")
        b = partition.shard_of("leaf03")
        assert distances[a][b] == 2 * LINK_NS

    def test_severed_fleet_reports_none(self):
        fleet = FleetSpec(
            hubs=("hub00", "hub01"), links=(), cabs=(), hub_ports=8
        )
        partition = Partitioner.partition(fleet, 2)
        distances = Partitioner.shard_distances(fleet, partition, LINK_NS)
        assert distances[0][1] is None and distances[1][0] is None
        assert distances[0][0] == 0

    def test_matrix_is_symmetric_for_undirected_links(self):
        fleet = fat_tree_fleet(2, 6, 2, hub_ports=10)
        partition = Partitioner.partition(fleet, 4)
        distances = Partitioner.shard_distances(fleet, partition, LINK_NS)
        for a in range(4):
            for b in range(4):
                assert distances[a][b] == distances[b][a]


class TestEmissionBounds:
    def rig(self, shard_id=0):
        fleet = line_fleet(2, 2, hub_ports=8)
        partition = Partitioner.partition(fleet, 2)
        spec = WorkloadSpec(
            seed=5, rmp_flows=2, rpc_flows=1, tcp_flows=0, tcp_bytes=0
        )
        return ShardRunner(fleet, partition, shard_id, spec)

    def test_bound_never_precedes_the_next_event(self):
        runner = self.rig()
        next_time, bound = runner.sync_state()
        assert next_time is not None
        assert bound is not None
        assert bound >= next_time

    def test_fresh_shard_bound_is_event_plus_emission_floor(self):
        runner = self.rig()
        next_time, bound = runner.sync_state()
        # No transmission is in flight yet, so the only path to a cut is
        # event -> forwarding hop -> first byte on the fiber.
        delta = runner.system.network.min_emission_delta_ns()
        assert delta > 0
        assert bound == next_time + delta

    def test_emission_floor_accounts_for_hop_and_first_byte(self):
        """The floor is the CAB-link path's: HUB setup, propagation, a byte.

        Path by path, nothing the intents leave uncovered emits sooner:

        * a TX-DMA push wakes the link, which pops the frame, takes the
          free cut port (registering its exact emission) and pays setup
          + propagation + at least one byte after that event;
        * a frame waiting for a cut port leaves after the holder, whose
          intent already covers it;
        * an arrival whose next hop crosses the cut is covered from
          ``_schedule_arrival`` until it holds the port;
        * a frame that first crosses a fiber inside the shard pays
          propagation, a hop and its own serialization after that
          hand-off, and a datalink frame is never shorter than its header.
        """
        runner = self.rig()
        network = runner.system.network
        costs = network.costs
        assert network.min_emission_delta_ns() == (
            costs.hub_setup_ns + costs.fiber_propagation_ns + network._tx_floor_ns(1)
        )
        assert network.min_emission_delta_ns() == 1030
        shortest_inner_path = (
            costs.fiber_propagation_ns
            + costs.hub_hop_ns
            + costs.fiber_tx_ns(DatalinkHeader.SIZE)
        )
        assert shortest_inner_path >= network.min_emission_delta_ns()

    def test_drained_shard_reports_no_bound(self):
        fleet = line_fleet(2, 2, hub_ports=8)
        partition = Partitioner.partition(fleet, 2)
        # Zero flows: a fault plan keeps every CAB (no idle elision), so
        # the shard still boots its stacks, then goes quiet.
        spec = WorkloadSpec(
            seed=5, rmp_flows=0, rpc_flows=0, tcp_flows=0, tcp_bytes=0
        )
        runner = ShardRunner(
            fleet, partition, 0, spec, fault_plan=FaultPlan(seed=0)
        )
        assert runner.system.nodes
        runner.advance(None)
        assert runner.sync_state() == (None, None)

    def test_an_elided_cab_reports_the_recovery_keys_of_a_live_one(self):
        fleet = line_fleet(2, 3, hub_ports=8)
        partition = Partitioner.partition(fleet, 2)
        spec = WorkloadSpec(
            seed=5, rmp_flows=1, rpc_flows=0, tcp_flows=0, tcp_bytes=0
        )
        runner = ShardRunner(fleet, partition, 0, spec)
        runner.advance(None)
        retransmits = runner.results()["retransmits"]
        elided, live = runner._elided_cabs, list(runner.system.nodes)
        assert elided and live
        live_keys = set(retransmits[live[0]])
        for name in elided:
            assert set(retransmits[name]) == live_keys
            assert set(retransmits[name].values()) == {0}

    def test_intents_lower_the_bound_while_a_tx_is_in_flight(self):
        runner = self.rig()
        network = runner.system.network
        delta = network.min_emission_delta_ns()
        token = network._intent_register(100)
        try:
            next_time, bound = runner.sync_state()
            # An in-flight transmission promises an emission well before
            # the event-plus-floor fallback; the bound follows the intent.
            assert 100 < next_time + delta
            assert bound == 100
        finally:
            network._intent_clear(token)
        next_time, bound = runner.sync_state()
        assert bound == next_time + delta

    def test_stale_intent_is_clamped_to_the_next_event(self):
        runner = self.rig()
        network = runner.system.network
        next_time, _ = runner.sync_state()
        # An intent bound in the past cannot mean "emits before any event
        # fires": the clamp floors it at the next event time.
        token = network._intent_register(next_time - 10)
        try:
            assert runner.sync_state()[1] == next_time
        finally:
            network._intent_clear(token)


DL_TYPE_TEST = 0x7777


def cut_shard(n_hubs: int, local: tuple):
    """A shard build of a two-CAB-per-hub line, with an outbox at the cut."""
    system = build_shard_system(line_fleet(n_hubs, 2, hub_ports=8), local)
    outbox = []
    system.network.boundary_egress = outbox.append
    return system, outbox


def send_raw(system, src: str, dst: str, nbytes: int) -> None:
    node = system.nodes[src]
    dst_id = system.registry.node_id(dst)

    def sender():
        yield from node.datalink.send_raw(dst_id, DL_TYPE_TEST, b"x" * nbytes)

    node.runtime.fork_application(sender(), f"send-{src}")


def between_nanoseconds(system, until):
    """Step the shard, yielding at every instant a barrier could fall on
    (all of one nanosecond's entries fired) until ``until()`` holds."""
    sim = system.sim
    while not until():
        next_time = sim.peek_next_time()
        assert next_time is not None, "shard went idle"
        if next_time > sim.now:
            yield
        sim.step()


class TestIntentsAtTheCut:
    """A cut-bound frame declares its emission once it holds the cut port."""

    def test_a_frame_waiting_for_the_cut_port_is_covered_by_the_holder(self):
        system, outbox = cut_shard(2, ("hub00",))
        network = system.network
        hub = network.topology.hubs["hub00"]
        cut_port = 7  # line_fleet wires hub00's last port to hub01
        arbiter = hub._out_arbiters[cut_port]
        # Two single-chunk frames from both hub00 CABs to the same remote CAB.
        send_raw(system, "cab-00-00", "cab-01-00", 200)
        send_raw(system, "cab-00-01", "cab-01-00", 200)
        samples = []
        for _ in between_nanoseconds(system, lambda: len(outbox) == 2):
            samples.append(
                (
                    len(outbox),
                    bool(arbiter._waiters),
                    sorted(network._intents.values()),
                    network.next_emission_bound(),
                    system.sim.peek_next_time(),
                )
            )
        link_ns = network.costs.fiber_propagation_ns
        emissions = [handoff.fire_ns - link_ns for handoff in outbox]
        delta = network.min_emission_delta_ns()
        waiting = [s for s in samples if s[0] == 0 and s[1]]
        assert waiting, "the second frame never queued for the cut port"
        for _emitted, _queued, intents, bound, next_time in waiting:
            # One intent, the holder's, at its exact emission: the waiter
            # registered none, and nothing is clamped to the next event.
            assert intents == [emissions[0]]
            assert bound == min(emissions[0], next_time + delta)
        second_holds = [s for s in samples if s[0] == 1 and s[2]]
        assert second_holds
        for _emitted, _queued, intents, _bound, _next in second_holds:
            assert intents == [emissions[1]]
        assert network._intents == {}

    def test_an_arrival_headed_across_the_cut_is_covered_from_scheduling(self):
        # hub00 and hub01 are local, hub02 is not: the frame crosses the
        # inner fiber, then leaves hub01 across the cut.
        system, outbox = cut_shard(3, ("hub00", "hub01"))
        network = system.network
        send_raw(system, "cab-00-00", "cab-02-00", 200)
        def forwarded() -> bool:
            return network.stats.value("frames_forwarded") >= 1

        for _ in between_nanoseconds(system, forwarded):
            # On the inner link nothing is cut-bound yet.
            assert network._intents == {}
        samples = [
            (
                sorted(network._intents.values()),
                network.next_emission_bound(),
                system.sim.peek_next_time(),
            )
            for _ in between_nanoseconds(system, lambda: bool(outbox))
        ]
        emission = outbox[0].fire_ns - network.costs.fiber_propagation_ns
        delta = network.min_emission_delta_ns()
        assert len(samples) >= 2
        for intents, bound, next_time in samples:
            # Covered at every instant from the inner hand-off (the arrival
            # is scheduled) through the arrival to the cut emission.
            assert intents == [emission]
            assert bound == min(emission, next_time + delta)
        assert network._intents == {}


def adversarial_fleet() -> FleetSpec:
    """Three hubs in a line with every CAB on the first two: the
    hub00-hub01 seam is saturated while hub01-hub02 never carries a
    frame — one chatty boundary and one provably idle one."""
    base = line_fleet(3, 4, hub_ports=8)
    return FleetSpec(
        hubs=base.hubs,
        links=base.links,
        cabs=tuple(cab for cab in base.cabs if cab[1] != "hub02"),
        hub_ports=base.hub_ports,
    )


ADVERSARIAL_LOAD = WorkloadSpec(
    seed=6, rmp_flows=3, rpc_flows=2, tcp_flows=2, tcp_bytes=2048
)


class TestEpochGrants:
    def test_single_worker_runs_in_one_epoch(self):
        fleet = line_fleet(3, 2, hub_ports=8)
        load = WorkloadSpec(seed=3, rmp_flows=2, rpc_flows=1, tcp_flows=1, tcp_bytes=1024)
        result = Conductor(fleet, load, n_workers=1).run()
        assert result.barriers == 1
        assert result.epochs == 1
        assert result.handoffs == 0
        assert result.incomplete == []

    def test_idle_seam_is_elided_not_synchronized(self):
        fleet = adversarial_fleet()
        reference = run_reference(fleet, ADVERSARIAL_LOAD)
        result = Conductor(fleet, ADVERSARIAL_LOAD, n_workers=3).run()
        assert result.protocol_digest() == reference.protocol_digest()
        # The saturated seam really exchanged traffic...
        assert result.handoffs > 0
        # ...while the hub02 shard never had work and was skipped (its
        # null message elided) at every single barrier.
        assert result.null_elided >= result.barriers
        # Some barriers exchanged nothing and took the seam fast path.
        assert result.fastpath > 0
        # Every barrier slot is accounted for: granted or elided.
        assert result.epochs + result.null_elided == 3 * result.barriers

    def test_barriers_collapse_versus_fixed_windows(self):
        fleet = adversarial_fleet()
        result = Conductor(fleet, ADVERSARIAL_LOAD, n_workers=3).run()
        # The old scheme paid one barrier per fiber-propagation window of
        # active simulated time; adaptive epochs must beat it by an order
        # of magnitude on this rig.
        fixed_windows = result.sim_ns // LINK_NS
        assert result.barriers * 10 < fixed_windows

    def test_counters_are_mode_invariant(self):
        fleet = adversarial_fleet()
        inline = Conductor(fleet, ADVERSARIAL_LOAD, n_workers=3, mode="inline").run()
        process = Conductor(fleet, ADVERSARIAL_LOAD, n_workers=3, mode="process").run()
        for counter in ("barriers", "epochs", "null_elided", "fastpath", "handoffs", "events"):
            assert getattr(inline, counter) == getattr(process, counter), counter
        # Transport differs by construction: inline has no seam transport,
        # process mode carries the hand-offs in shared-memory rings.
        assert inline.ring_bytes == 0 and inline.pickle_bytes == 0
        assert process.ring_bytes > 0

    def test_grants_shrink_with_distance(self):
        # On a 4-shard line under load, far-apart shards get wider
        # windows than adjacent ones; the counter-level signature is that
        # total epochs stay well below barriers x shards.
        fleet = line_fleet(4, 4, hub_ports=8)
        load = WorkloadSpec(seed=9, rmp_flows=3, rpc_flows=2, tcp_flows=1, tcp_bytes=2048)
        result = Conductor(fleet, load, n_workers=4).run()
        assert result.epochs + result.null_elided == 4 * result.barriers
        assert result.null_elided > 0
