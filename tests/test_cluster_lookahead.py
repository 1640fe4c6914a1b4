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
from repro.cluster.fleet import FleetSpec, fat_tree_fleet, line_fleet, star_fleet
from repro.cluster.partition import Partitioner
from repro.cluster.runner import ShardRunner
from repro.cluster.workload import WorkloadSpec
from repro.faults.plan import FaultPlan
from repro.model.costs import DEFAULT_COSTS

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
        runner = self.rig()
        network = runner.system.network
        assert network.min_emission_delta_ns() == (
            network.costs.hub_hop_ns + network._tx_floor_ns(1)
        )

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
