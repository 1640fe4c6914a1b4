"""The ``python -m repro scale`` benchmark behind ``BENCH_scale.json``.

One bench run executes the unsharded reference and a sharded run per
requested worker count on the same fleet, workload, and seed, then reports
two strictly separated sections:

* ``deterministic`` — event counts, simulated time, the conductor's
  synchronization counters (barriers, epochs, elided null messages,
  fast-path windows, hand-offs, ring vs pickle transport bytes), and the
  parity verdict.  Byte-identical across repeated invocations with the
  same configuration (this is what the regression gate pins).
* ``measured`` — wall-clock, events/sec, the speedup of each worker count
  over the 1-worker sharded run, and the machine's CPU count.  Recorded,
  never gated: the numbers move with the machine.

``--check`` (see :func:`check_against_baseline`) re-runs the committed
configuration and fails when the deterministic section regresses —
parity broken, more barriers than the baseline, hand-off payloads
spilling from the shared-memory rings to pickle, or any counter drift.
``skip_reference`` drops the (serial, unsharded) reference leg for quick
sharded-only measurements; the parity verdict is then ``None``.

The JSON is rendered with sorted keys and fixed separators so a given
result always serializes to the same bytes.
"""

from __future__ import annotations

import json
import os
import pathlib
from typing import List, Optional

from repro.cluster.conductor import Conductor, FleetResult, run_reference
from repro.cluster.fleet import FleetSpec, make_fleet
from repro.cluster.workload import WorkloadSpec
from repro.wallclock import wall_clock_ns, wall_ns_since

__all__ = [
    "check_against_baseline",
    "default_baseline_path",
    "render_bench_json",
    "run_scale_bench",
]


def _timed(fn) -> FleetResult:
    start = wall_clock_ns()
    result = fn()
    result.wall_ns = wall_ns_since(start)
    return result


def _events_per_sec(result: FleetResult) -> float:
    return round(result.events * 1e9 / result.wall_ns, 1)


def run_scale_bench(
    fleet: FleetSpec,
    workload: WorkloadSpec,
    workers: Optional[List[int]] = None,
    mode: str = "process",
    skip_reference: bool = False,
) -> dict:
    """Run reference + sharded runs and assemble the bench report."""
    workers = workers or [1, 4]
    reference = None if skip_reference else _timed(
        lambda: run_reference(fleet, workload)
    )
    runs = [
        _timed(Conductor(fleet, workload, n_workers=n, mode=mode).run)
        for n in workers
    ]
    parity = None
    if reference is not None:
        reference_digest = reference.protocol_digest()
        parity = all(
            run.protocol_digest() == reference_digest for run in runs
        )

    deterministic = {
        "parity": parity,
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
    base_wall = runs[0].wall_ns
    measured = {
        "cpus": os.cpu_count(),
        "reference": None
        if reference is None
        else {
            "wall_ns": reference.wall_ns,
            "events_per_sec": _events_per_sec(reference),
        },
        "workers": {
            str(run.n_workers): {
                "wall_ns": run.wall_ns,
                "events_per_sec": _events_per_sec(run),
                "speedup_vs_1worker": round(base_wall / run.wall_ns, 3),
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
        "measured": measured,
    }


def render_bench_json(report: dict) -> str:
    """Byte-stable serialization (sorted keys, fixed separators, newline)."""
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def default_baseline_path() -> pathlib.Path:
    """``BENCH_scale.json`` at the repo root (next to ``BENCH_buf.json``)."""
    return pathlib.Path(__file__).resolve().parents[3] / "BENCH_scale.json"


def check_against_baseline(committed: dict, fresh: dict) -> List[str]:
    """Regression verdicts: empty means the tree holds the baseline.

    The fresh report must be run with the committed configuration (a
    config mismatch is its own error — re-baseline deliberately with
    ``--bench --json``).  Parity must hold; per worker count, the barrier
    total must not exceed the committed baseline (the window scheme got
    slower), hand-off payloads must not spill from the shared-memory
    rings to pickled pipe transport beyond the committed spill, and every
    deterministic counter must match exactly.  Wall-clock is never
    compared.
    """
    errors: List[str] = []
    if fresh["config"] != committed.get("config"):
        errors.append(
            "config diverged from the committed baseline; re-baseline "
            "deliberately with --bench --json"
        )
        return errors
    committed_det = committed.get("deterministic", {})
    fresh_det = fresh["deterministic"]
    if fresh_det.get("parity") is False:
        errors.append("parity broken: sharded runs diverged from the reference")
    if fresh_det.get("reference") != committed_det.get("reference"):
        errors.append(
            f"reference leg diverged: {fresh_det.get('reference')} != "
            f"{committed_det.get('reference')}"
        )
    committed_workers = committed_det.get("workers", {})
    for count in sorted(fresh_det["workers"], key=int):
        fresh_worker = fresh_det["workers"][count]
        committed_worker = committed_workers.get(count)
        if committed_worker is None:
            errors.append(f"workers={count} missing from the committed baseline")
            continue
        if fresh_worker["barriers"] > committed_worker["barriers"]:
            errors.append(
                f"workers={count} barriers regressed: "
                f"{fresh_worker['barriers']} > {committed_worker['barriers']}"
            )
        if fresh_worker["pickle_bytes"] > committed_worker["pickle_bytes"]:
            errors.append(
                f"workers={count} pickle_bytes regressed (hand-offs spilled "
                f"from the ring): {fresh_worker['pickle_bytes']} > "
                f"{committed_worker['pickle_bytes']}"
            )
        if fresh_worker != committed_worker:
            errors.append(
                f"workers={count} deterministic counters diverged: "
                f"{fresh_worker} != {committed_worker}"
            )
    return errors


def default_fleet(
    shape: str = "line",
    hubs: int = 4,
    cabs_per_hub: int = 16,
    hub_ports: int = 18,
) -> FleetSpec:
    """The bench's standard rig: 4 HUBs in a line, 64 CABs."""
    return make_fleet(shape, hubs, cabs_per_hub, hub_ports)
