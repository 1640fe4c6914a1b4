"""``python -m repro observe``: run a workload under full telemetry.

Builds the paper's two-CAB rig with the telemetry plane enabled, drives a
named workload, and writes the three observability artifacts:

* ``--trace FILE`` — Chrome trace-event JSON (load in https://ui.perfetto.dev),
* ``--metrics FILE`` — byte-stable JSON metrics report,
* ``--prom FILE`` — the same metrics in Prometheus text format,
* ``--folded FILE`` — folded-stack cycle profile for flamegraph tooling.

Workloads:

* ``table1`` — sequential ping-pongs over the four transports of the
  paper's Table 1 (datagram, RMP, request-response, UDP) plus a TCP push;
  touches every instrumented layer from the kernel scheduler to the hub.
* ``rmp-stream`` — a reliable RMP message stream (the Figure 7 shape).
* ``chaos`` — the RMP stream over a lossy fabric (the ``lossy-link`` fault
  scenario), so retransmissions and drops show up in the trace.

Everything printed or written derives from simulated quantities, so two
invocations with the same workload and seed produce byte-identical files.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from itertools import repeat
from typing import Dict, List, Optional

from repro.apps import traffic
from repro.system import NectarSystem
from repro.telemetry.session import Telemetry
from repro.units import seconds

__all__ = ["ObserveResult", "WORKLOADS", "main", "run_observe"]

#: Simulated-time budget; chaos retransmission backoff dominates the worst case.
OBSERVE_DEADLINE_NS = seconds(30)

_PAYLOAD_BYTES = 128


@dataclass
class ObserveResult:
    """Everything one observed run produced."""

    workload: str
    seed: int
    system: NectarSystem
    telemetry: Telemetry
    summary_lines: List[str]

    def summary(self) -> str:
        """The human-readable run summary (deterministic text)."""
        return "\n".join(self.summary_lines) + "\n"

    def trace_json(self) -> str:
        """The run's Chrome trace-event JSON (byte-stable)."""
        return self.telemetry.export_trace()

    def metrics_json(self) -> str:
        """The run's metrics report as canonical JSON (byte-stable)."""
        return self.telemetry.render_metrics_json()

    def prometheus(self) -> str:
        """The run's metrics in Prometheus text format (byte-stable)."""
        return self.telemetry.render_prometheus()

    def folded(self) -> str:
        """The run's folded-stack cycle profile (byte-stable)."""
        return self.telemetry.folded_profile()


def _build_rig(seed: int, chaos: bool) -> NectarSystem:
    """The two-CAB rig with telemetry attached before any traffic."""
    system = NectarSystem()
    system.enable_telemetry()
    hub = system.add_hub("hub0")
    system.add_node("cab-a", hub, 0)
    system.add_node("cab-b", hub, 1)
    if chaos:
        from repro.faults.catalogue import build

        system.attach_fault_plan(build("lossy-link", seed).plan)
    return system


def _workload_table1(system: NectarSystem, rounds: int) -> List[str]:
    """Sequential ping-pongs over the four Table 1 transports, then TCP."""
    a = system.nodes["cab-a"]
    b = system.nodes["cab-b"]
    payload = b"\xA5" * _PAYLOAD_BYTES
    tcp_bytes = _PAYLOAD_BYTES * 8
    tcp_received = bytearray()
    rtts: Dict[str, List[int]] = {}
    client_steps = []
    for name, kind, a_inbox, b_inbox, service in (
        ("datagram", "datagram", "obs-dg-a", "obs-dg-b", "obs-dg-echo"),
        ("rmp", "rmp", "obs-rmp-a", "obs-rmp-b", "obs-rmp-echo"),
        ("reqresp", "request-response", None, "obs-rpc-server", "obs-rpc-server"),
        ("udp", "udp", "obs-udp-a", "obs-udp-b", "obs-udp-echo"),
    ):
        client, server = traffic.pair(kind, a, b, a_inbox, b_inbox)
        samples = rtts[name] = []
        client_steps.append(
            client.pingpong(
                repeat(payload, rounds),
                lambda _index, rtt_ns, _taken, samples=samples: samples.append(rtt_ns),
            )
        )
        traffic.fork(b, service, server.echo(), service=True)
    tcp_client, tcp_server = traffic.pair("tcp", a, b, "obs-tcp-cli", "obs-tcp-srv")
    client_steps.append(
        tcp_client.stream([bytes(range(256)) * (tcp_bytes // 256)])
    )
    traffic.fork(
        b,
        "obs-tcp-collector",
        tcp_server.drain(
            nbytes=tcp_bytes, take=lambda msg: tcp_received.extend(msg.read())
        ),
    )
    traffic.fork(a, "obs-client", *client_steps)

    system.run(until=OBSERVE_DEADLINE_NS)

    lines = []
    for name, samples in rtts.items():
        mean = sum(samples) // len(samples) if samples else 0
        lines.append(f"  {name}: {len(samples)}/{rounds} round trips, mean rtt {mean} ns")
    lines.append(f"  tcp: delivered {len(tcp_received)}/{tcp_bytes} bytes")
    return lines


def _workload_rmp_stream(system: NectarSystem, rounds: int) -> List[str]:
    """A reliable RMP message stream from cab-a to cab-b."""
    a = system.nodes["cab-a"]
    b = system.nodes["cab-b"]
    sender = traffic.RMP(a, None, 100, (b.node_id, 200))
    receiver = traffic.RMP(b, "obs-rmp-inbox", 200, (a.node_id, 100))
    payloads = [
        bytes([index & 0xFF]) * (64 * (index % 4 + 1)) for index in range(rounds)
    ]
    #: (size, matched-expected) per delivery — the receiver verifies each
    #: message in place through a view instead of materializing a copy.
    delivered: List[tuple] = []
    errors: List[str] = []

    def verify(msg) -> None:
        view = msg.view()
        delivered.append((len(view), view == payloads[len(delivered)]))

    traffic.fork(
        a,
        "obs-rmp-sender",
        sender.stream(payloads),
        on_error=lambda exc: errors.append(f"sender: {exc}"),
    )
    traffic.fork(
        b, "obs-rmp-receiver", receiver.drain(messages=len(payloads), take=verify)
    )
    system.run(until=OBSERVE_DEADLINE_NS)

    delivered_bytes = sum(size for size, _ok in delivered)
    in_order = all(ok for _size, ok in delivered)
    lines = [
        f"  rmp: delivered {len(delivered)}/{len(payloads)} messages"
        f" ({delivered_bytes} bytes, in_order={'yes' if in_order else 'NO'})",
    ]
    for error in errors:
        lines.append(f"  error: {error}")
    retransmits = a.runtime.stats.value("rmp_retransmits")
    lines.append(f"  rmp retransmissions: {retransmits}")
    return lines


WORKLOADS = {
    "table1": (_workload_table1, False, 5),
    "rmp-stream": (_workload_rmp_stream, False, 24),
    "chaos": (_workload_rmp_stream, True, 16),
}


def run_observe(workload: str, seed: int = 7, rounds: Optional[int] = None) -> ObserveResult:
    """Run one named workload with telemetry on; returns all artifacts."""
    if workload not in WORKLOADS:
        raise ValueError(
            f"unknown workload {workload!r}; choose from {sorted(WORKLOADS)}"
        )
    runner, chaos, default_rounds = WORKLOADS[workload]
    if rounds is None:
        rounds = default_rounds
    system = _build_rig(seed, chaos)
    workload_lines = runner(system, rounds)
    telemetry = system.telemetry
    telemetry.collect()

    recorder = telemetry.recorder
    lines = [
        f"observe workload: {workload} (seed {seed}, rounds {rounds})",
        f"simulated time: {system.sim.last_event_ns} ns",
    ]
    lines.extend(workload_lines)
    lines.append(f"trace events: {len(recorder.events)}")
    lines.append("components: " + ", ".join(recorder.components()))
    lines.append(f"metric series: {telemetry.metrics.series_count()}")
    for name, node in sorted(system.nodes.items()):
        by_cat = telemetry.profiler.by_category(node.cab.cpu.name)
        breakdown = " ".join(f"{cat}={ns}" for cat, ns in by_cat.items())
        lines.append(f"cycles[{name}]: {breakdown or '(idle)'}")
    return ObserveResult(
        workload=workload,
        seed=seed,
        system=system,
        telemetry=telemetry,
        summary_lines=lines,
    )


def main(argv: List[str]) -> int:
    """CLI: ``python -m repro observe --workload NAME [--trace FILE] ...``."""
    workload = "table1"
    seed = 7
    rounds: Optional[int] = None
    outputs: Dict[str, Optional[str]] = {
        "--trace": None,
        "--metrics": None,
        "--prom": None,
        "--folded": None,
    }
    arguments = list(argv)
    while arguments:
        arg = arguments.pop(0)
        if arg == "--workload":
            if not arguments:
                print("--workload requires a name", file=sys.stderr)
                return 2
            workload = arguments.pop(0)
        elif arg == "--seed":
            if not arguments or not arguments[0].lstrip("-").isdigit():
                print("--seed requires an integer", file=sys.stderr)
                return 2
            seed = int(arguments.pop(0))
        elif arg == "--rounds":
            if not arguments or not arguments[0].isdigit():
                print("--rounds requires a positive integer", file=sys.stderr)
                return 2
            rounds = int(arguments.pop(0))
        elif arg in outputs:
            if not arguments:
                print(f"{arg} requires a file path", file=sys.stderr)
                return 2
            outputs[arg] = arguments.pop(0)
        elif arg == "--list":
            for name in sorted(WORKLOADS):
                print(name)
            return 0
        else:
            print(f"unknown option {arg!r}", file=sys.stderr)
            return 2
    if workload not in WORKLOADS:
        print(
            f"unknown workload {workload!r}; choose from {sorted(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2

    result = run_observe(workload, seed=seed, rounds=rounds)
    renders = {
        "--trace": result.trace_json,
        "--metrics": result.metrics_json,
        "--prom": result.prometheus,
        "--folded": result.folded,
    }
    for flag, path in outputs.items():
        if path is not None:
            with open(path, "w") as handle:
                handle.write(renders[flag]())
    sys.stdout.write(result.summary())
    return 0
