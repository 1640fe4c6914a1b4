"""The tentpole guarantee: sharded runs are bit-identical to the reference.

A 4-HUB / 64-CAB fleet under mixed RMP + RPC + TCP traffic must produce the
same protocol-level results — delivered bytes, per-flow message counts,
per-node retransmit counters, and completion times — whether the fleet runs
in one Simulator, as one shard behind the conductor, or split four ways,
for every seed.  See docs/scaling.md for why this holds by construction.
"""

import dataclasses

import pytest

from repro.cluster.conductor import Conductor, run_reference
from repro.cluster.fleet import fat_tree_fleet, line_fleet, star_fleet
from repro.cluster.workload import Flow, WorkloadSpec
from repro.faults.catalogue import Case, run_case
from repro.faults.plan import DROP, STALL, FaultPlan, FaultSpec
from repro.protocols.rto import MAX_RTO_NS
from repro.units import ms, us

# The acceptance rig: 4 HUBs in a line, 16 CABs each.
FLEET = line_fleet(4, 16, hub_ports=18)
SEEDS = [0, 1, 2]


def mixed_workload(seed: int) -> WorkloadSpec:
    return WorkloadSpec(seed=seed)  # 8 RMP + 6 RPC + 4 TCP flows


@pytest.mark.parametrize("seed", SEEDS)
def test_sharded_runs_match_reference_bit_for_bit(seed):
    workload = mixed_workload(seed)
    reference = run_reference(FLEET, workload)
    assert reference.incomplete == []
    assert len(reference.flows) == 18
    digest = reference.protocol_digest()
    for n_workers in (1, 4):
        result = Conductor(FLEET, workload, n_workers=n_workers).run()
        assert result.protocol_digest() == digest, (
            f"seed {seed}, {n_workers} workers diverged from the reference"
        )


def test_worker_count_does_not_change_results():
    workload = mixed_workload(7)
    digests = {
        n: Conductor(FLEET, workload, n_workers=n).run().protocol_digest()
        for n in (1, 2, 4)
    }
    assert digests[1] == digests[2] == digests[4]


def test_process_mode_matches_inline_mode():
    """The multiprocessing path changes wall-clock only, never results."""
    fleet = line_fleet(4, 4, hub_ports=8)
    workload = WorkloadSpec(seed=9, rmp_flows=3, rpc_flows=2, tcp_flows=1, tcp_bytes=2048)
    inline = Conductor(fleet, workload, n_workers=4, mode="inline").run()
    process = Conductor(fleet, workload, n_workers=4, mode="process").run()
    assert inline.protocol_digest() == process.protocol_digest()
    assert inline.barriers == process.barriers
    assert inline.events == process.events


def test_partition_strategy_does_not_change_results():
    fleet = star_fleet(4, 4, hub_ports=8)
    workload = WorkloadSpec(seed=11, rmp_flows=3, rpc_flows=2, tcp_flows=1, tcp_bytes=2048)
    contiguous = Conductor(fleet, workload, n_workers=3, strategy="contiguous").run()
    scattered = Conductor(fleet, workload, n_workers=3, strategy="round-robin").run()
    assert contiguous.protocol_digest() == scattered.protocol_digest()


# -- the full matrix: seeds x worker counts x modes x topologies -------------
#
# Every rig has eight hubs so the 8-worker split is a real one-hub-per-shard
# partition; workloads are kept light so the whole matrix stays tier-1
# friendly.  The reference digest is computed once per (topology, seed).

MATRIX_RIGS = {
    "line": line_fleet(8, 2, hub_ports=8),
    "star": star_fleet(8, 2, hub_ports=10),
    "fat-tree": fat_tree_fleet(2, 6, 2, hub_ports=10),
}
MATRIX_SEEDS = [0, 1, 2]
MATRIX_WORKERS = (1, 2, 4, 8)
MATRIX_MODES = ("inline", "process")


def light_workload(seed: int) -> WorkloadSpec:
    return WorkloadSpec(
        seed=seed, rmp_flows=2, rpc_flows=2, tcp_flows=1, tcp_bytes=1024
    )


@pytest.mark.parametrize("seed", MATRIX_SEEDS)
@pytest.mark.parametrize("shape", sorted(MATRIX_RIGS))
def test_parity_matrix(shape, seed):
    fleet = MATRIX_RIGS[shape]
    workload = light_workload(seed)
    reference = run_reference(fleet, workload)
    assert reference.incomplete == []
    digest = reference.protocol_digest()
    for n_workers in MATRIX_WORKERS:
        for mode in MATRIX_MODES:
            result = Conductor(
                fleet, workload, n_workers=n_workers, mode=mode
            ).run()
            assert result.protocol_digest() == digest, (
                f"{shape} seed={seed} workers={n_workers} mode={mode} "
                f"diverged from the reference"
            )


# -- the fan-out entry: multicast + barrier flows through the same matrix ----
#
# One-to-many flows stress the seams the unicast matrix never touches: group
# registration order, replicated-frame hand-offs between shards, and the
# collective engine's cross-shard ARRIVE/RELEASE traffic.

FANOUT_SEEDS = [5, 6]


def fanout_workload(seed: int) -> WorkloadSpec:
    return WorkloadSpec(
        seed=seed,
        rmp_flows=1,
        rpc_flows=0,
        tcp_flows=0,
        mcast_flows=2,
        mcast_group=6,
        barrier_flows=1,
    )


@pytest.mark.parametrize("seed", FANOUT_SEEDS)
def test_fanout_parity_across_workers_and_modes(seed):
    """Multicast/barrier results are worker-count and mode independent."""
    fleet = line_fleet(4, 4, hub_ports=8)
    workload = fanout_workload(seed)
    reference = run_reference(fleet, workload)
    assert reference.incomplete == []
    kinds = {record["kind"] for record in reference.flows.values()}
    assert "mcast" in kinds and "barrier" in kinds
    digest = reference.protocol_digest()
    for n_workers in (1, 4):
        for mode in ("inline", "process"):
            result = Conductor(
                fleet, workload, n_workers=n_workers, mode=mode
            ).run()
            assert result.protocol_digest() == digest, (
                f"fanout seed={seed} workers={n_workers} mode={mode} "
                f"diverged from the reference"
            )


# -- the lookahead entry: the benchmark's sharded fleet mix -----------------
#
# Cut-bound frames declare their emission once they hold the cut port, so a
# shard's windows widen to the CAB-link floor.  The sharded benchmark's mix
# (plus a barrier) must still land bit for bit on the reference at every
# seed and worker count; a window that outran a hand-off would fail here
# with ``call_at ... is in the past``.  ~4.5 s on a 2-vCPU box.

LOOKAHEAD_SEEDS = [1, 2, 3, 7, 11]


def sharded_bench_workload(seed: int) -> WorkloadSpec:
    return WorkloadSpec(
        seed=seed,
        rmp_flows=32,
        rpc_flows=24,
        tcp_flows=8,
        rmp_messages=5,
        rpc_calls=4,
        tcp_bytes=8192,
        mcast_flows=2,
        mcast_messages=10,
        barrier_flows=1,
    )


@pytest.mark.parametrize("seed", LOOKAHEAD_SEEDS)
def test_cut_port_intents_keep_parity_on_the_bench_mix(seed):
    workload = sharded_bench_workload(seed)
    reference = run_reference(FLEET, workload)
    assert reference.incomplete == []
    digest = reference.protocol_digest()
    for n_workers in (2, 4):
        result = Conductor(FLEET, workload, n_workers=n_workers).run()
        assert result.handoffs > 0
        assert result.protocol_digest() == digest, (
            f"seed {seed}, {n_workers} workers diverged from the reference"
        )


def test_completion_times_are_plausible():
    """Parity aside, the merged records must be self-consistent."""
    workload = mixed_workload(0)
    result = Conductor(FLEET, workload, n_workers=4).run()
    assert result.incomplete == []
    for name, record in result.flows.items():
        assert 0 < record["completed_ns"] <= result.sim_ns, name
    rmp_bytes = [r["bytes"] for r in result.flows.values() if r["kind"] == "rmp"]
    assert all(b == workload.rmp_messages * workload.rmp_bytes for b in rmp_bytes)
    tcp_bytes = [r["bytes"] for r in result.flows.values() if r["kind"] == "tcp"]
    assert all(b == workload.tcp_bytes for b in tcp_bytes)


# -- fault plans on sharded runs ---------------------------------------------


class TestShardedFaultParity:
    def test_process_mode_matches_inline_under_faults(self):
        """S3: a sharded run is mode-independent even with faults active."""
        fleet = line_fleet(2, 2, hub_ports=8)
        workload = WorkloadSpec(
            seed=3, rmp_flows=2, rpc_flows=1, tcp_flows=1, tcp_bytes=2048
        )
        plan = FaultPlan(
            seed=3,
            specs=(
                FaultSpec(
                    kind=DROP, where="*", probability=1.0, window_ns=(0, us(300))
                ),
                FaultSpec(
                    kind=STALL,
                    where="cab-00-00",
                    stall_ns=us(50),
                    probability=1.0,
                    window_ns=(0, ms(1)),
                ),
            ),
        )
        runs = {
            mode: Conductor(
                fleet, workload, n_workers=2, mode=mode, fault_plan=plan
            ).run()
            for mode in ("inline", "process")
        }
        inline, process = runs["inline"], runs["process"]
        assert inline.protocol_digest() == process.protocol_digest()

        def comparable(result):
            # Ring/pickle byte counters measure the seam transport itself
            # (rings only exist in process mode); the conductor's
            # coordination counts and meter readings must match.
            return (
                result.events,
                result.sim_ns,
                result.barriers,
                result.epochs,
                result.null_elided,
                result.fastpath,
                result.handoffs,
            )

        assert comparable(inline) == comparable(process)
        # The plan really fired: dropped frames cost recoveries.
        assert inline.recoveries > 0


def test_sharded_run_of_a_stall_case_matches_run_case():
    """A 2-worker sharded run of a fault case reproduces the unsharded
    ``run_case`` protocol digest.  A STALL with ``probability=1.0`` fires
    on every matching frame, so no decision depends on how many
    occurrences one shard has seen."""
    fleet = line_fleet(2, 2, hub_ports=8)
    flows = (
        Flow(index=0, kind="rmp", src="cab-01-00", dst="cab-00-00", messages=12, size=512),
        Flow(index=1, kind="rmp", src="cab-01-00", dst="cab-01-01", messages=12, size=256),
        Flow(index=2, kind="rmp", src="cab-00-01", dst="cab-00-00", messages=12, size=256),
    )
    plan = FaultPlan(
        seed=7,
        specs=(
            FaultSpec(
                kind=STALL,
                where="cab-01-00",
                stall_ns=us(400),
                probability=1.0,
                window_ns=(us(200), ms(2)),
            ),
        ),
    )
    case = Case(
        name="slow-cab",
        summary="cab-01-00 stalls on every egress frame",
        fleet=fleet,
        flows=flows,
        plan=plan,
        horizon_ns=ms(10),
    )

    def digest(run):
        results = run.workload.results(run.system)
        return {
            "flows": results["flows"],
            "retransmits": results["retransmits"],
            "incomplete": sorted(run.workload.incomplete(run.system)),
        }

    run = run_case(case)
    assert run.error is None and run.injector.fired
    reference = digest(run)
    assert reference["incomplete"] == []
    # The stall is visible in the digest: the fault-free run differs.
    fault_free = dataclasses.replace(case, plan=FaultPlan(seed=7, specs=()))
    assert digest(run_case(fault_free)) != reference
    sharded = Conductor(
        fleet,
        case.workload,
        n_workers=2,
        mode="inline",
        # The sharded run goes on to quiescence, which a timer armed before
        # the horizon may delay by one RTO.
        limit_ns=case.horizon_ns + MAX_RTO_NS,
        fault_plan=plan,
    ).run()
    assert sharded.protocol_digest() == reference
