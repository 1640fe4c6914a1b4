"""Figure 6: one-way host-to-host datagram latency breakdown.

The paper's figure decomposes a ~163 us one-way datagram send between two
host processes: about 40% in the host-CAB interface at sender and receiver,
about 40% in CAB-to-CAB time, and the remaining ~20% on the hosts creating
and reading the message.  More time is spent on the sending side, where the
CAB must be interrupted and a CAB thread scheduled; the receiving host
polls, so no interrupt or context switch is needed there.
"""

from __future__ import annotations

from typing import Dict, Generator, Mapping, Optional

from repro.apps.traffic import Datagram
from repro.bench import DriverResult, resolve_params
from repro.bench.harness import two_hosted_nodes
from repro.sim.trace import TraceRecorder
from repro.units import seconds

__all__ = ["breakdown_cell", "scenario", "shares"]

#: The driver's parameter contract (see :func:`scenario`).
DEFAULTS = {"message_size": 32}

PAPER_TOTAL_US = 163.0
PAPER_SHARES = {
    "host-CAB interface": 0.40,
    "CAB-to-CAB": 0.40,
    "host create/read": 0.20,
}


def breakdown_cell(message_size: int = 32) -> Dict[str, float]:
    """One-way host-to-host datagram latency, decomposed as in Figure 6.

    Returns microsecond intervals: message creation on the sending host, the
    sending host-CAB interface (interrupt + thread wakeup), CAB-to-CAB
    (protocol processing + wire), delivery to the polling receiving host,
    and the receiving host's read — plus the one-way total.  The one
    hand-written send in the tree: it drops trace marks *inside* the
    put/fill/end_put that :mod:`repro.apps.traffic` runs as one step.
    """
    system, hosted_a, hosted_b = two_hosted_nodes()
    node_a, node_b = hosted_a.node, hosted_b.node
    b_inbox = Datagram(hosted_b, "fig6-inbox", 66, (node_a.node_id, 65)).inbox
    packet = Datagram(hosted_a, None, 65, (node_b.node_id, 66)).packet(
        b"\x77" * message_size
    )
    recorder = TraceRecorder()
    system.tracer.sink = recorder
    tracer = system.tracer
    done = system.sim.event()

    def sender() -> Generator:
        yield from hosted_a.driver.map_cab_memory()
        tracer.emit("host-a", "host_send_start")
        msg = yield from hosted_a.driver.begin_put(
            node_a.datagram.send_mailbox, len(packet)
        )
        yield from hosted_a.driver.fill(msg, packet)
        tracer.emit("host-a", "host_message_built")
        yield from hosted_a.driver.end_put(node_a.datagram.send_mailbox, msg)
        tracer.emit("host-a", "host_end_put_done")

    def receiver() -> Generator:
        yield from hosted_b.driver.map_cab_memory()
        msg = yield from hosted_b.driver.begin_get(b_inbox, blocking=False)
        tracer.emit("host-b", "host_got_message")
        yield from hosted_b.driver.read(msg)
        yield from hosted_b.driver.end_get(b_inbox, msg)
        tracer.emit("host-b", "host_read_done")
        done.succeed()

    hosted_b.host.fork_process(receiver(), "fig6-receiver")
    hosted_a.host.fork_process(sender(), "fig6-sender")
    system.run_until(done, limit=seconds(120))
    system.tracer.sink = None

    def us_between(a: str, b: str) -> float:
        return recorder.interval_ns(a, b) / 1000.0

    return {
        "host message creation": us_between("host_send_start", "host_end_put_done"),
        "host-CAB interface (send)": us_between("host_end_put_done", "cab_send_start"),
        "CAB-to-CAB (protocols + wire)": us_between("cab_send_start", "cab_deliver"),
        "CAB-host interface (receive)": us_between("cab_deliver", "host_got_message"),
        "host message read": us_between("host_got_message", "host_read_done"),
        "total one-way": us_between("host_send_start", "host_read_done"),
    }


def shares(breakdown: Dict[str, float]) -> Dict[str, float]:
    """Collapse the component intervals into the paper's three shares."""
    total = breakdown["total one-way"]
    interface = (
        breakdown["host-CAB interface (send)"]
        + breakdown["CAB-host interface (receive)"]
    )
    cab_to_cab = breakdown["CAB-to-CAB (protocols + wire)"]
    host_ends = breakdown["host message creation"] + breakdown["host message read"]
    return {
        "host-CAB interface": interface / total,
        "CAB-to-CAB": cab_to_cab / total,
        "host create/read": host_ends / total,
    }


def scenario(params: Optional[Mapping] = None) -> DriverResult:
    """Run the Fig. 6 breakdown under the common driver contract."""
    config = resolve_params(DEFAULTS, params)
    breakdown = breakdown_cell(config["message_size"])
    fractions = shares(breakdown)
    return DriverResult(
        name="fig6",
        config=config,
        rows=[
            {"component": name, "us": round(value, 1)}
            for name, value in breakdown.items()
        ],
        extras={
            "shares": {name: round(f, 4) for name, f in fractions.items()}
        },
    )

