"""The ``mcast`` scenario kind: the multicast/collective benchmark.

Run and gated as ``python -m repro bench mcast [key=value ...]``.  Three
legs, all pinned by the committed ``BENCH_mcast.json``:

* **fanout** — a pub/sub flow on a fat tree: one sender multicasts to an
  8-member group on a *different* leaf HUB.  The crossbars replicate the
  frame (one replica per branch, shared payload storage), so the number of
  inter-HUB frames is the tree's cut width — ``crossings_per_frame`` — not
  the member count.  The leg also computes the *unicast equivalent* (the
  same traffic as N independent sends, from the members' actual routes)
  and reports the ratio, which is ~``1/len(members)`` when the group sits
  behind a shared subtree.
* **barrier** — a fleet-wide barrier over all 64 CABs of the scale rig:
  each round costs every non-root member one ARRIVE and every non-leaf
  member its children's RELEASEs, and completes in ``tree_depth(64) == 6``
  CAB-local rounds (O(log N), see :func:`~repro.protocols.nectar.collective.tree_depth`).
* **parity** — seeded mcast + barrier workloads at 64-CAB scale, run
  unsharded and sharded (1 and 4 workers, process mode): the protocol
  digests must be bit-identical, the same guarantee the scale bench pins
  for unicast traffic.

Sections follow the scale bench's contract: ``deterministic`` is
byte-identical across repeated runs of the same configuration (the
regression gate).
"""

from __future__ import annotations

from typing import List, Optional

from repro.cluster.conductor import Conductor, run_reference
from repro.cluster.fleet import (
    FleetSpec,
    build_fleet_system,
    fat_tree_fleet,
    line_fleet,
)
from repro.cluster.workload import Flow, Workload, WorkloadSpec
from repro.errors import ConfigurationError
from repro.protocols.nectar.collective import tree_depth

__all__ = ["run_mcast_bench"]

#: The fan-out rig: 2 spines x 2 leaves, 10 CABs per leaf.
_FANOUT_FLEET = ("fat-tree", 2, 2, 10, 12)
#: The barrier/parity rig: the scale bench's 4-HUB line, 64 CABs.
_SCALE_FLEET = ("line", 4, 16, 18)


def _nmp_totals(system) -> dict:
    """NMP/collective counters summed over every local node."""
    totals: dict = {}
    for series, value in system.metrics.counters(*sorted(system.nodes)).items():
        key = series.rpartition(".")[2]
        if key.startswith(("nmp_", "coll_")):
            totals[key] = totals.get(key, 0) + value
    return totals


def _run_workload(fleet: FleetSpec, spec: WorkloadSpec):
    """One unsharded system running ``spec`` to quiescence."""
    system = build_fleet_system(fleet)
    workload = Workload(spec, fleet)
    workload.install(system)
    system.run()
    return system, workload


def run_fanout_leg(messages: int = 8, size: int = 256) -> dict:
    """The crossbar fan-out accounting: multicast vs unicast equivalent."""
    fleet = fat_tree_fleet(*_FANOUT_FLEET[1:4], hub_ports=_FANOUT_FLEET[4])
    sender = "cab-00-00"
    members = tuple(f"cab-01-{j:02d}" for j in range(8))
    flow = Flow(
        index=0,
        kind="mcast",
        src=sender,
        dst=members[-1],
        messages=messages,
        size=size,
        members=members,
    )
    spec = WorkloadSpec(seed=0, explicit_flows=(flow,))
    system, workload = _run_workload(fleet, spec)
    net = system.network.stats
    sender_stats = system.nodes[sender].runtime.stats
    frames_sent = sender_stats.value("nmp_data_out") + sender_stats.value(
        "nmp_syncs_out"
    )
    # The unicast equivalent: the same frames as N independent sends, each
    # crossing every inter-HUB hop of that member's actual source route.
    unicast_crossings = frames_sent * sum(
        len(system.network.route_for(sender, member)) - 1 for member in members
    )
    mcast_crossings = net.value("mcast_crossings")
    return {
        "members": len(members),
        "messages": messages,
        "bytes_per_message": size,
        "frames_sent": frames_sent,
        "mcast_crossings": mcast_crossings,
        "unicast_equivalent_crossings": unicast_crossings,
        "crossing_ratio": round(mcast_crossings / unicast_crossings, 6),
        "replicas": net.value("mcast_replicas"),
        "delivered": {
            name: record["bytes"]
            for name, record in sorted(workload.flow_results.items())
        },
        "incomplete": list(workload.incomplete(system)),
        "live_buffers": system.copy_meter.live_buffers,
        "sim_ns": system.sim.now,
        "protocol": _nmp_totals(system),
    }


def run_barrier_leg(rounds: int = 3) -> dict:
    """A fleet-wide 64-CAB barrier: O(log N) CAB-local rounds."""
    fleet = line_fleet(*_SCALE_FLEET[1:3], hub_ports=_SCALE_FLEET[3])
    members = fleet.cab_names()
    flow = Flow(
        index=0,
        kind="barrier",
        src=members[0],
        dst=members[-1],
        messages=rounds,
        size=0,
        members=members,
    )
    spec = WorkloadSpec(seed=0, explicit_flows=(flow,))
    system, workload = _run_workload(fleet, spec)
    totals = _nmp_totals(system)
    return {
        "members": len(members),
        "rounds": rounds,
        "tree_depth": tree_depth(len(members)),
        "barriers_completed": totals.get("coll_barriers", 0),
        "arrivals": totals.get("coll_arrivals_out", 0),
        "releases": totals.get("coll_releases_out", 0),
        "incomplete": list(workload.incomplete(system)),
        "live_buffers": system.copy_meter.live_buffers,
        "sim_ns": system.sim.now,
    }


def run_parity_leg(
    seed: int, workers: Optional[List[int]] = None, mode: str = "process"
) -> dict:
    """Sharded mcast/barrier runs must match the reference bit for bit."""
    workers = workers or [1, 4]
    fleet = line_fleet(*_SCALE_FLEET[1:3], hub_ports=_SCALE_FLEET[3])
    spec = WorkloadSpec(
        seed=seed,
        rmp_flows=2,
        rpc_flows=0,
        tcp_flows=0,
        mcast_flows=3,
        mcast_group=8,
        barrier_flows=1,
    )
    reference = run_reference(fleet, spec)
    digest = reference.protocol_digest()
    runs = [
        Conductor(fleet, spec, n_workers=n, mode=mode).run() for n in workers
    ]
    return {
        "verdict": all(run.protocol_digest() == digest for run in runs),
        "reference": {
            "events": reference.events,
            "sim_ns": reference.sim_ns,
            "flows": len(reference.flows),
            "incomplete": reference.incomplete,
            "recoveries": reference.recoveries,
        },
        "workers": {
            str(run.n_workers): {
                "events": run.events,
                "sim_ns": run.sim_ns,
                "barriers": run.barriers,
                "handoffs": run.handoffs,
            }
            for run in runs
        },
    }


def run_mcast_bench(
    seed: int = 0,
    messages: int = 8,
    rounds: int = 3,
    workers: Optional[List[int]] = None,
    mode: str = "process",
) -> dict:
    """All three legs, assembled into the bench report."""
    if messages < 1:
        raise ConfigurationError(f"messages must be >= 1, got {messages}")
    return {
        "bench": "mcast",
        "config": {
            "fanout_fleet": list(_FANOUT_FLEET),
            "scale_fleet": list(_SCALE_FLEET),
            "seed": seed,
            "messages": messages,
            "rounds": rounds,
            "mode": mode,
            "workers": workers or [1, 4],
        },
        "deterministic": {
            "fanout": run_fanout_leg(messages=messages),
            "barrier": run_barrier_leg(rounds=rounds),
            "parity": run_parity_leg(seed, workers=workers, mode=mode),
        },
    }
