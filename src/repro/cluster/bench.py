"""The ``scale`` scenario kind's benchmark, behind ``BENCH_scale.json``.

Run and gated as ``python -m repro bench scale [key=value ...]``.  One
bench run executes the unsharded reference and a sharded run per
requested worker count on the same fleet, workload, and seed, then reports
event counts, simulated time, the conductor's synchronization counters
(barriers, epochs, elided null messages, fast-path windows, hand-offs,
ring vs pickle transport bytes), the parity verdict, and the run's
recoveries (retransmissions, retries, NACKs and repairs, which a fault-free
fleet must not make).  The report is byte-identical across repeated
invocations with the same configuration (this is what the regression gate
pins).

``bench scale --check`` re-runs the committed configuration and fails,
naming the key, when any deterministic value moves — a barrier count, a
hand-off spilling from the shared-memory rings to pickle, any counter
drift; a broken parity verdict fails every run, gated or not.
``skip_reference`` drops the (serial, unsharded) reference leg for quick
sharded-only measurements; the parity verdict is then ``None``.
"""

from __future__ import annotations

from typing import List, Optional

from repro.cluster.conductor import Conductor, run_reference
from repro.cluster.fleet import FleetSpec
from repro.cluster.workload import WorkloadSpec

__all__ = ["run_scale_bench"]


def run_scale_bench(
    fleet: FleetSpec,
    workload: WorkloadSpec,
    workers: Optional[List[int]] = None,
    mode: str = "process",
    skip_reference: bool = False,
) -> dict:
    """Run reference + sharded runs and assemble the bench report."""
    workers = workers or [1, 4]
    reference = None if skip_reference else run_reference(fleet, workload)
    runs = [
        Conductor(fleet, workload, n_workers=n, mode=mode).run() for n in workers
    ]
    parity = None
    if reference is not None:
        reference_digest = reference.protocol_digest()
        parity = all(
            run.protocol_digest() == reference_digest for run in runs
        )

    deterministic = {
        "parity": parity,
        "recoveries": (reference or runs[0]).recoveries,
        "reference": None
        if reference is None
        else {"events": reference.events, "sim_ns": reference.sim_ns},
        "workers": {
            str(run.n_workers): {
                "events": run.events,
                "sim_ns": run.sim_ns,
                "barriers": run.barriers,
                "epochs": run.epochs,
                "null_elided": run.null_elided,
                "fastpath": run.fastpath,
                "handoffs": run.handoffs,
                "ring_bytes": run.ring_bytes,
                "pickle_bytes": run.pickle_bytes,
            }
            for run in runs
        },
    }
    return {
        "bench": "scale",
        "config": {
            "hubs": len(fleet.hubs),
            "links": len(fleet.links),
            "cabs": len(fleet.cabs),
            "hub_ports": fleet.hub_ports,
            "mode": mode,
            "workload": {
                "seed": workload.seed,
                "rmp_flows": workload.rmp_flows,
                "rpc_flows": workload.rpc_flows,
                "tcp_flows": workload.tcp_flows,
                "rmp_messages": workload.rmp_messages,
                "rmp_bytes": workload.rmp_bytes,
                "rpc_calls": workload.rpc_calls,
                "rpc_bytes": workload.rpc_bytes,
                "tcp_bytes": workload.tcp_bytes,
            },
        },
        "deterministic": deterministic,
    }
