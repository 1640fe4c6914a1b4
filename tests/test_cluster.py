"""Unit tests for the repro.cluster building blocks.

Fleet generators, the partitioner, workload determinism, and the
conductor's failure modes.  The headline parity guarantee has its
own file (test_cluster_parity.py).
"""

import multiprocessing
import os
import signal

import pytest

from repro.cluster import conductor as conductor_module
from repro.cluster.conductor import Conductor, _ProcessShard, run_reference
from repro.cluster.fleet import (
    FleetSpec,
    build_fleet_system,
    build_shard_system,
    fat_tree_fleet,
    line_fleet,
    make_fleet,
    star_fleet,
)
from repro.cluster.partition import Partitioner
from repro.cluster.workload import WorkloadSpec
from repro.errors import ConfigurationError


class TestFleetSpec:
    def test_line_fleet_shape(self):
        spec = line_fleet(4, 3, hub_ports=8)
        assert len(spec.hubs) == 4
        assert len(spec.links) == 3
        assert len(spec.cabs) == 12
        assert spec.cab_names()[0] == "cab-00-00"
        assert spec.cabs_on(["hub02"]) == ("cab-02-00", "cab-02-01", "cab-02-02")

    def test_star_fleet_shape(self):
        spec = star_fleet(3, 2, hub_ports=8)
        assert spec.hubs == ("hub00", "hub01", "hub02", "hub03")
        assert len(spec.links) == 3
        assert all(hub != "hub00" for _name, hub, _port in spec.cabs)

    def test_fat_tree_fleet_shape(self):
        spec = fat_tree_fleet(2, 3, 2, hub_ports=8)
        assert len(spec.hubs) == 5
        assert len(spec.links) == 6  # every leaf to every spine
        assert len(spec.cabs) == 6

    def test_generators_validate_port_budget(self):
        with pytest.raises(ConfigurationError):
            line_fleet(3, 15, hub_ports=16)  # 2 ports reserved for fibers
        with pytest.raises(ConfigurationError):
            star_fleet(17, 1, hub_ports=16)  # too many leaves for the center
        with pytest.raises(ConfigurationError):
            fat_tree_fleet(4, 2, 13, hub_ports=16)  # CABs + uplinks > ports

    def test_make_fleet_dispatch(self):
        assert len(make_fleet("line", 3, 2).hubs) == 3
        assert len(make_fleet("star", 4, 2).hubs) == 4  # 1 center + 3 leaves
        assert len(make_fleet("fat-tree", 5, 2).hubs) == 5
        with pytest.raises(ConfigurationError, match="unknown fleet shape"):
            make_fleet("ring", 4, 2)

    def test_fleet_system_builds_and_routes(self):
        spec = line_fleet(3, 2, hub_ports=8)
        system = build_fleet_system(spec)
        assert len(system.nodes) == 6
        assert len(system.hubs) == 3

    def test_shard_system_has_ghosts(self):
        spec = line_fleet(3, 2, hub_ports=8)
        shard = build_shard_system(spec, ["hub00"])
        # Stacks only on hub00's CABs; everyone still has a node id.
        assert sorted(shard.nodes) == ["cab-00-00", "cab-00-01"]
        assert shard.registry.node_id("cab-02-01") == 6
        assert shard.network.local_hubs == frozenset(["hub00"])
        # Ghost placement resolves routes from local CABs.
        assert shard.network.topology.compute_route("cab-00-00", "cab-02-00")

    def test_shard_system_node_ids_match_reference(self):
        spec = line_fleet(3, 2, hub_ports=8)
        reference = build_fleet_system(spec)
        shard = build_shard_system(spec, ["hub01"])
        for name, _hub, _port in spec.cabs:
            assert shard.registry.node_id(name) == reference.registry.node_id(name)

    def test_shard_system_rejects_unknown_hub(self):
        with pytest.raises(ConfigurationError, match="unknown hubs"):
            build_shard_system(line_fleet(2, 1, hub_ports=8), ["hub09"])


class TestPartitioner:
    def test_contiguous_partition(self):
        spec = line_fleet(5, 1, hub_ports=8)
        partition = Partitioner.partition(spec, 2)
        assert partition.shards == (("hub00", "hub01", "hub02"), ("hub03", "hub04"))
        assert partition.shard_of("hub03") == 1

    def test_round_robin_partition(self):
        spec = line_fleet(4, 1, hub_ports=8)
        partition = Partitioner.partition(spec, 2, strategy="round-robin")
        assert partition.shards == (("hub00", "hub02"), ("hub01", "hub03"))

    def test_cut_links_counts_severed_fibers(self):
        spec = line_fleet(4, 1, hub_ports=8)
        contiguous = Partitioner.partition(spec, 2)
        assert len(Partitioner.cut_links(spec, contiguous)) == 1
        scattered = Partitioner.partition(spec, 2, strategy="round-robin")
        assert len(Partitioner.cut_links(spec, scattered)) == 3

    def test_partition_validation(self):
        spec = line_fleet(2, 1, hub_ports=8)
        with pytest.raises(ConfigurationError):
            Partitioner.partition(spec, 0)
        with pytest.raises(ConfigurationError):
            Partitioner.partition(spec, 3)
        with pytest.raises(ConfigurationError, match="unknown partition strategy"):
            Partitioner.partition(spec, 2, strategy="metis")


class TestWorkloadSpec:
    def test_flows_are_deterministic_in_the_seed(self):
        fleet = line_fleet(3, 4, hub_ports=8)
        spec = WorkloadSpec(seed=42)
        assert spec.flows(fleet) == spec.flows(fleet)
        assert spec.flows(fleet) != WorkloadSpec(seed=43).flows(fleet)

    def test_flows_have_distinct_endpoints_and_kinds(self):
        fleet = line_fleet(3, 4, hub_ports=8)
        flows = WorkloadSpec(seed=5).flows(fleet)
        assert len(flows) == 18
        assert all(flow.src != flow.dst for flow in flows)
        kinds = {flow.kind for flow in flows}
        assert kinds == {"rmp", "rpc", "tcp"}

    def test_payloads_are_deterministic(self):
        fleet = line_fleet(2, 2, hub_ports=8)
        flow = WorkloadSpec(seed=1).flows(fleet)[0]
        assert flow.payload(0) == flow.payload(0)
        assert len(flow.payload(1)) == flow.size

    def test_needs_two_cabs(self):
        with pytest.raises(ConfigurationError, match="at least 2 CABs"):
            WorkloadSpec().flows(line_fleet(1, 1, hub_ports=8))


SMALL_FLEET = line_fleet(3, 2, hub_ports=8)
SMALL_LOAD = WorkloadSpec(seed=3, rmp_flows=2, rpc_flows=1, tcp_flows=1, tcp_bytes=1024)


class TestConductor:
    def test_rejects_unknown_mode(self):
        with pytest.raises(ConfigurationError, match="unknown conductor mode"):
            Conductor(SMALL_FLEET, SMALL_LOAD, mode="threads")

    def test_limit_ns_catches_runaway_fleets(self):
        conductor = Conductor(SMALL_FLEET, SMALL_LOAD, n_workers=2, limit_ns=1000)
        with pytest.raises(RuntimeError, match="past limit"):
            conductor.run()

    def test_all_flows_complete(self):
        result = Conductor(SMALL_FLEET, SMALL_LOAD, n_workers=3).run()
        assert result.incomplete == []
        assert len(result.flows) == 4
        assert result.barriers > 0
        for record in result.flows.values():
            assert record["bytes"] > 0
            assert record["completed_ns"] > 0

    def test_reference_runs_whole_fleet(self):
        result = run_reference(SMALL_FLEET, SMALL_LOAD)
        assert result.n_workers == 0
        assert result.incomplete == []
        assert len(result.retransmits) == len(SMALL_FLEET.cabs)

    @pytest.mark.parametrize("kill", ["before-send", "after-send"])
    def test_a_killed_worker_is_named_and_every_worker_is_reaped(
        self, kill, monkeypatch
    ):
        """SIGKILL shard 1 after the second barrier: the run fails naming
        the shard and its exit code (not a bare BrokenPipeError or
        EOFError), and the conductor's cleanup leaves no worker behind."""
        advance = _ProcessShard.begin_advance
        grants = []

        def begin_advance(shard, until):
            if shard.shard_id == 1:
                grants.append(until)
            if shard.shard_id != 1 or len(grants) != 3:
                return advance(shard, until)
            if kill == "after-send":
                advance(shard, until)
                # Kill only once the worker's reply sits in the pipe, so the
                # conductor always reads it and fails on its next send.
                assert shard.conn.poll(10)
            os.kill(shard.process.pid, signal.SIGKILL)
            shard.process.join(timeout=10)
            assert not shard.process.is_alive()
            if kill == "before-send":
                advance(shard, until)

        monkeypatch.setattr(_ProcessShard, "begin_advance", begin_advance)
        conductor = Conductor(
            line_fleet(2, 4, 6), WorkloadSpec(seed=0), n_workers=2, mode="process"
        )
        with pytest.raises(RuntimeError, match=r"^shard 1 worker exited \(exitcode -9\)"):
            conductor.run()
        # A reply read from the buffer lets the conductor finish that barrier
        # and grant shard 1 once more; that fourth grant is the send that fails.
        assert len(grants) == (3 if kill == "before-send" else 4)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("n_workers", [2, 4])
    def test_process_mode_forks_a_worker_per_shard_but_the_first(
        self, n_workers, monkeypatch
    ):
        """n shards run on n processes: the conductor hosts shard 0 and
        forks a worker for every other shard."""
        forked = []
        init = _ProcessShard.__init__

        def recording_init(shard, context, fleet, partition, shard_id, *args):
            forked.append(shard_id)
            init(shard, context, fleet, partition, shard_id, *args)

        monkeypatch.setattr(_ProcessShard, "__init__", recording_init)
        fleet = line_fleet(4, 2, hub_ports=8)
        result = Conductor(fleet, SMALL_LOAD, n_workers=n_workers, mode="process").run()
        assert forked == list(range(1, n_workers))
        assert result.incomplete == []
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("failure", ["worker-fork", "hosted-shard"])
    def test_a_shard_that_fails_to_start_leaves_no_worker(self, failure, monkeypatch):
        """A shard that cannot be built fails the run and the conductor
        stops every worker already forked: the last worker failing to fork,
        or the hosted shard's runner raising once the workers exist."""
        if failure == "worker-fork":
            init = _ProcessShard.__init__

            def failing_init(shard, context, fleet, partition, shard_id, *args):
                if shard_id == 2:
                    raise OSError("fork failed")
                init(shard, context, fleet, partition, shard_id, *args)

            monkeypatch.setattr(_ProcessShard, "__init__", failing_init)
        else:

            def failing_runner(*args, **kwargs):
                assert len(multiprocessing.active_children()) == 2
                raise OSError("shard 0 failed to build")

            monkeypatch.setattr(conductor_module, "ShardRunner", failing_runner)
        conductor = Conductor(SMALL_FLEET, SMALL_LOAD, n_workers=3, mode="process")
        with pytest.raises(OSError, match="fork failed|shard 0 failed to build"):
            conductor.run()
        assert multiprocessing.active_children() == []
