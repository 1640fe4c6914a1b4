"""The ``buf`` scenario kind's benchmark, behind ``BENCH_buf.json``.

Run and gated as ``python -m repro bench buf [--check | --write]``.
Measures the buffer plane three ways:

* a **microbench** exercising the :class:`~repro.buf.PacketBuffer` /
  :class:`~repro.buf.BufView` op set (alloc, fill, prepend, strip, slice,
  tobytes) with a private :class:`~repro.buf.CopyMeter` — its counters are
  a pure function of the op sequence;
* the **rmp-stream** observe workload, whose ``host.memcpy_bytes`` /
  ``host.memcpy_calls`` counters are the headline number of the zero-copy
  refactor, gated against both the committed baseline and the recorded
  pre-refactor measurement;
* a small **scale** reference fleet (the unsharded fleet workload),
  recording its copy counters.

The ``deterministic`` section is byte-identical across runs and machines.
Every run must free every buffer it allocated and hold rmp-stream under
:data:`RMP_STREAM_CEILING_BYTES`; ``--check`` additionally requires the
deterministic sections to match the committed ``BENCH_buf.json`` exactly.
"""

from __future__ import annotations

from repro.buf.accounting import CopyMeter
from repro.buf.packet import PacketBuffer

__all__ = ["run_buf_bench"]

#: Microbench shape: enough rounds to exercise every op many times while
#: the counters stay trivially auditable.
MICRO_ROUNDS = 256
MICRO_PAYLOAD_BYTES = 1024
MICRO_HEADROOM = 16

#: host.* counters of the rmp-stream observe workload measured on the tree
#: immediately before the zero-copy refactor (per-layer materialization:
#: frame build, seal, crc_ok, chunk_bytes, and every demux read copied).
RMP_STREAM_PRE_REFACTOR = {"memcpy_bytes": 44736, "memcpy_calls": 432}

#: The acceptance floor: the refactored data path must stay at or below
#: half the pre-refactor byte count on rmp-stream — the ``buf`` kind's
#: ceiling invariant (see :mod:`repro.scenario.runner`).
RMP_STREAM_MAX_FRACTION = 0.5
RMP_STREAM_CEILING_BYTES = int(
    RMP_STREAM_PRE_REFACTOR["memcpy_bytes"] * RMP_STREAM_MAX_FRACTION
)


def _run_microbench() -> dict:
    """The fixed op sequence; returns its meter snapshot."""
    meter = CopyMeter()
    header = bytes(range(MICRO_HEADROOM))
    payload = bytes(index & 0xFF for index in range(MICRO_PAYLOAD_BYTES))
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
    return meter.snapshot()


def _run_rmp_stream() -> dict:
    """The headline workload; returns its host counters."""
    from repro.telemetry.observe import run_observe

    return run_observe("rmp-stream").system.copy_meter.snapshot()


def _run_scale_reference() -> dict:
    """An unsharded small-fleet scale run; counters + events + sim time."""
    from repro.cluster.fleet import build_fleet_system, line_fleet
    from repro.cluster.workload import Workload, WorkloadSpec

    fleet = line_fleet(3, 2, hub_ports=8)
    spec = WorkloadSpec(
        seed=4, rmp_flows=2, rpc_flows=1, tcp_flows=1, tcp_bytes=1024
    )
    system = build_fleet_system(fleet)
    workload = Workload(spec, fleet)
    workload.install(system)
    system.run()
    counters = dict(system.copy_meter.snapshot())
    counters["events"] = system.sim.events_scheduled
    counters["sim_ns"] = system.sim.now
    return counters


def _reduction_pct(now: int, before: int) -> float:
    return round(100.0 * (before - now) / before, 1) if before else 0.0


def run_buf_bench() -> dict:
    """Run all three legs and assemble the bench report."""
    micro = _run_microbench()
    rmp_counters = _run_rmp_stream()
    scale = _run_scale_reference()
    deterministic = {
        "microbench": micro,
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
        "scale": scale,
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
    }
