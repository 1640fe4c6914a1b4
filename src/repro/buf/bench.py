"""The ``python -m repro bench buf`` benchmark behind ``BENCH_buf.json``.

Measures the buffer plane three ways, with the same deterministic/measured
split as the scale bench (``repro.cluster.bench``):

* a **microbench** exercising the :class:`~repro.buf.PacketBuffer` /
  :class:`~repro.buf.BufView` op set (alloc, fill, prepend, strip, slice,
  tobytes) with a private :class:`~repro.buf.CopyMeter` — its counters are
  a pure function of the op sequence;
* the **rmp-stream** observe workload, whose ``host.memcpy_bytes`` /
  ``host.memcpy_calls`` counters are the headline number of the zero-copy
  refactor, gated against both the committed baseline and the recorded
  pre-refactor measurement;
* a small **scale** reference fleet (the unsharded ``repro scale``
  workload), recording its copy counters and wall-clock.

``deterministic`` sections are byte-identical across runs and machines;
``measured`` holds wall-clock only and is recorded, never gated.

``--check`` recomputes the deterministic sections and fails when the tree
regresses above the committed ``BENCH_buf.json`` (the tier-1 tripwire);
``--write`` refreshes the committed file after a deliberate change.
"""

from __future__ import annotations

import json
import pathlib
from typing import List

from repro.buf.accounting import CopyMeter
from repro.buf.packet import PacketBuffer
from repro.wallclock import wall_clock_ns, wall_ns_since

__all__ = [
    "check_against_baseline",
    "default_baseline_path",
    "main",
    "render_bench_json",
    "run_buf_bench",
]

#: Microbench shape: enough rounds to dominate interpreter noise in the
#: measured section while the counters stay trivially auditable.
MICRO_ROUNDS = 256
MICRO_PAYLOAD_BYTES = 1024
MICRO_HEADROOM = 16

#: host.* counters of the rmp-stream observe workload measured on the tree
#: immediately before the zero-copy refactor (per-layer materialization:
#: frame build, seal, crc_ok, chunk_bytes, and every demux read copied).
RMP_STREAM_PRE_REFACTOR = {"memcpy_bytes": 44736, "memcpy_calls": 432}

#: The acceptance floor: the refactored data path must stay at or below
#: half the pre-refactor byte count on rmp-stream.
RMP_STREAM_MAX_FRACTION = 0.5


def _run_microbench() -> dict:
    """The fixed op sequence; returns its meter snapshot + wall-clock."""
    meter = CopyMeter()
    header = bytes(range(MICRO_HEADROOM))
    payload = bytes(index & 0xFF for index in range(MICRO_PAYLOAD_BYTES))
    start = wall_clock_ns()
    for _round in range(MICRO_ROUNDS):
        view = PacketBuffer.alloc(
            MICRO_PAYLOAD_BYTES,
            headroom=MICRO_HEADROOM,
            meter=meter,
            label="bench",
        )
        view.fill_from(payload)  # the one send-path copy in
        framed = view.prepend(header)  # headroom write, no payload copy
        stripped = framed.strip(MICRO_HEADROOM)  # zero-copy
        window = stripped.slice(64, 256)  # zero-copy
        window.tobytes()  # the one boundary copy out
        framed.release()
    wall_ns = wall_ns_since(start)
    return {"counters": meter.snapshot(), "wall_ns": wall_ns}


def _run_rmp_stream() -> dict:
    """The headline workload; returns host counters + wall-clock."""
    from repro.telemetry.observe import run_observe

    start = wall_clock_ns()
    result = run_observe("rmp-stream")
    wall_ns = wall_ns_since(start)
    return {"counters": result.system.copy_meter.snapshot(), "wall_ns": wall_ns}


def _run_scale_reference() -> dict:
    """An unsharded small-fleet scale run; counters + events + wall-clock."""
    from repro.cluster.fleet import build_fleet_system, line_fleet
    from repro.cluster.workload import Workload, WorkloadSpec

    fleet = line_fleet(3, 2, hub_ports=8)
    spec = WorkloadSpec(
        seed=4, rmp_flows=2, rpc_flows=1, tcp_flows=1, tcp_bytes=1024
    )
    start = wall_clock_ns()
    system = build_fleet_system(fleet)
    workload = Workload(spec, fleet)
    workload.install(system)
    system.run()
    wall_ns = wall_ns_since(start)
    counters = dict(system.copy_meter.snapshot())
    counters["events"] = system.sim.events_scheduled
    counters["sim_ns"] = system.sim.now
    return {"counters": counters, "wall_ns": wall_ns}


def _reduction_pct(now: int, before: int) -> float:
    return round(100.0 * (before - now) / before, 1) if before else 0.0


def run_buf_bench() -> dict:
    """Run all three legs and assemble the bench report."""
    micro = _run_microbench()
    rmp = _run_rmp_stream()
    scale = _run_scale_reference()
    rmp_counters = rmp["counters"]
    deterministic = {
        "microbench": micro["counters"],
        "rmp_stream": rmp_counters,
        "rmp_stream_pre_refactor": dict(RMP_STREAM_PRE_REFACTOR),
        "rmp_stream_reduction_pct": {
            "memcpy_bytes": _reduction_pct(
                rmp_counters["memcpy_bytes"],
                RMP_STREAM_PRE_REFACTOR["memcpy_bytes"],
            ),
            "memcpy_calls": _reduction_pct(
                rmp_counters["memcpy_calls"],
                RMP_STREAM_PRE_REFACTOR["memcpy_calls"],
            ),
        },
        "scale": scale["counters"],
    }
    measured = {
        "microbench": {"wall_ns": micro["wall_ns"]},
        "rmp_stream": {"wall_ns": rmp["wall_ns"]},
        "scale": {"wall_ns": scale["wall_ns"]},
    }
    return {
        "bench": "buf",
        "config": {
            "micro_rounds": MICRO_ROUNDS,
            "micro_payload_bytes": MICRO_PAYLOAD_BYTES,
            "micro_headroom": MICRO_HEADROOM,
            "rmp_stream_max_fraction": RMP_STREAM_MAX_FRACTION,
            "scale": {"shape": "line", "hubs": 3, "cabs_per_hub": 2, "seed": 4},
        },
        "deterministic": deterministic,
        "measured": measured,
    }


def render_bench_json(report: dict) -> str:
    """Byte-stable serialization (sorted keys, fixed separators, newline)."""
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def default_baseline_path() -> pathlib.Path:
    """``BENCH_buf.json`` at the repo root (next to ``BENCH_scale.json``)."""
    return pathlib.Path(__file__).resolve().parents[3] / "BENCH_buf.json"


def check_against_baseline(committed: dict, fresh: dict) -> List[str]:
    """Regression verdicts: empty means the tree holds the baseline.

    The deterministic microbench and scale counters must match exactly
    (they are pure functions of the op sequence / fleet); the rmp-stream
    copy counters must not *exceed* the committed baseline, must stay
    within ``RMP_STREAM_MAX_FRACTION`` of the pre-refactor measurement,
    and every leg must free every buffer it allocated.
    """
    errors: List[str] = []
    committed_det = committed.get("deterministic", {})
    fresh_det = fresh["deterministic"]
    for leg in ("microbench", "scale"):
        if fresh_det[leg] != committed_det.get(leg):
            errors.append(
                f"{leg} counters diverged from the committed baseline: "
                f"{fresh_det[leg]} != {committed_det.get(leg)}"
            )
    committed_rmp = committed_det.get("rmp_stream", {})
    fresh_rmp = fresh_det["rmp_stream"]
    for key in ("memcpy_bytes", "memcpy_calls"):
        if fresh_rmp[key] > committed_rmp.get(key, 0):
            errors.append(
                f"rmp-stream host.{key} regressed: {fresh_rmp[key]} > "
                f"committed {committed_rmp.get(key, 0)}"
            )
    ceiling = int(
        RMP_STREAM_PRE_REFACTOR["memcpy_bytes"] * RMP_STREAM_MAX_FRACTION
    )
    if fresh_rmp["memcpy_bytes"] > ceiling:
        errors.append(
            f"rmp-stream host.memcpy_bytes {fresh_rmp['memcpy_bytes']} is "
            f"above {ceiling} ({RMP_STREAM_MAX_FRACTION:.0%} of the "
            f"pre-refactor {RMP_STREAM_PRE_REFACTOR['memcpy_bytes']})"
        )
    for leg in ("microbench", "rmp_stream", "scale"):
        counters = fresh_det[leg]
        if counters["buffers_allocated"] != counters["buffers_freed"]:
            errors.append(
                f"{leg} leaked buffers: allocated "
                f"{counters['buffers_allocated']}, freed "
                f"{counters['buffers_freed']}"
            )
    return errors


def main(argv: List[str]) -> int:
    """CLI entry: ``python -m repro bench buf [--check | --write] [--json F]``."""
    import sys

    check = write = False
    json_path: pathlib.Path = default_baseline_path()
    arguments = list(argv)
    while arguments:
        arg = arguments.pop(0)
        if arg == "--check":
            check = True
        elif arg == "--write":
            write = True
        elif arg == "--json":
            if not arguments:
                print("--json requires a path", file=sys.stderr)
                return 2
            json_path = pathlib.Path(arguments.pop(0))
        else:
            print(f"unknown option {arg!r}", file=sys.stderr)
            return 2
    if check and json_path == default_baseline_path():
        # Deprecation shim: the unified scenario gate owns this check now.
        from repro.scenario.gate import run_gate
        from repro.scenario.model import load_scenario

        print(
            "note: `bench buf --check` delegates to the unified gate; prefer "
            "`python -m repro bench buf --check`",
            file=sys.stderr,
        )
        try:
            scenario = load_scenario("buf")
        except FileNotFoundError:
            print("no committed scenarios/buf.toml", file=sys.stderr)
            return 2
        result = run_gate(scenario)
        if not result.report:
            for error in result.errors:
                print(error, file=sys.stderr)
            return 2
        for error in result.errors:
            print(f"REGRESSION: {error}")
        fresh = result.report["deterministic"]
        print(
            f"bench buf: rmp-stream host.memcpy_bytes "
            f"{fresh['rmp_stream']['memcpy_bytes']} "
            f"({fresh['rmp_stream_reduction_pct']['memcpy_bytes']}% below "
            f"pre-refactor) — {'FAIL' if result.errors else 'OK'}"
        )
        return 1 if result.errors else 0
    report = run_buf_bench()
    if check:
        try:
            committed = json.loads(json_path.read_text())
        except FileNotFoundError:
            print(f"no committed baseline at {json_path}", file=sys.stderr)
            return 2
        errors = check_against_baseline(committed, report)
        for error in errors:
            print(f"REGRESSION: {error}")
        reduction = report["deterministic"]["rmp_stream_reduction_pct"]
        print(
            f"bench buf: rmp-stream host.memcpy_bytes "
            f"{report['deterministic']['rmp_stream']['memcpy_bytes']} "
            f"({reduction['memcpy_bytes']}% below pre-refactor) — "
            f"{'FAIL' if errors else 'OK'}"
        )
        return 1 if errors else 0
    if write:
        json_path.write_text(render_bench_json(report))
        print(f"wrote {json_path}")
        return 0
    print(render_bench_json(report), end="")
    return 0
