"""Table 1: round-trip latency, host-to-host and CAB-to-CAB.

The paper reports round-trip times for UDP and the Nectar-specific
protocols between two host processes and between two CAB threads; the one
row fully legible in the surviving scan is the datagram protocol at
325 us (host-to-host) and 179 us (CAB-to-CAB), plus the Sec. 6 claim that
an RPC between application tasks on two hosts completes in under 500 us.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Mapping, Optional

from repro.apps.traffic import measure_rtt
from repro.bench import DriverResult, resolve_params
from repro.bench.cells import run_cells
from repro.bench.harness import format_table, two_hosted_nodes, two_nodes
from repro.errors import ConfigurationError

__all__ = ["Table1Row", "run", "scenario"]

#: The driver's parameter contract (see :func:`scenario`).
DEFAULTS = {"message_size": 32, "rounds": 30, "warmup": 5}

#: Paper reference values (us); None where the scan is illegible.
PAPER_HOST_RTT = {"datagram": 325.0, "rmp": None, "request-response": None, "udp": None}
PAPER_CAB_RTT = {"datagram": 179.0, "rmp": None, "request-response": None, "udp": None}


@dataclass
class Table1Row:
    protocol: str
    host_rtt_us: float
    cab_rtt_us: float
    paper_host_us: Optional[float]
    paper_cab_us: Optional[float]


PROTOCOLS = ("datagram", "rmp", "request-response", "udp")


def rtt_cell(protocol: str, hosted: bool, message_size: int, rounds: int, warmup: int) -> float:
    """One Table 1 cell: mean RTT (us) host-to-host or CAB-to-CAB."""
    system, a, b = two_hosted_nodes() if hosted else two_nodes()
    return measure_rtt(system, a, b, protocol, message_size, rounds, warmup).mean_us


def run(message_size: int = 32, rounds: int = 30, warmup: int = 5) -> list[Table1Row]:
    """Measure every Table 1 cell; returns one row per protocol."""
    rtts = run_cells(
        rtt_cell,
        [
            (protocol, hosted, message_size, rounds, warmup)
            for protocol in PROTOCOLS
            for hosted in (True, False)
        ],
    )
    return [
        Table1Row(
            protocol=protocol,
            host_rtt_us=round(host_us, 1),
            cab_rtt_us=round(cab_us, 1),
            paper_host_us=PAPER_HOST_RTT[protocol],
            paper_cab_us=PAPER_CAB_RTT[protocol],
        )
        for protocol, host_us, cab_us in zip(PROTOCOLS, rtts[0::2], rtts[1::2])
    ]


def render(rows: list[Table1Row]) -> str:
    """Format the rows as the paper-style table."""
    def fmt(value):
        return "n/a" if value is None else value

    return format_table(
        "Table 1: round-trip latency (us), 32-byte messages",
        ["protocol", "host-host", "CAB-CAB", "paper host-host", "paper CAB-CAB"],
        [
            (r.protocol, r.host_rtt_us, r.cab_rtt_us, fmt(r.paper_host_us), fmt(r.paper_cab_us))
            for r in rows
        ],
    )


def scenario(params: Optional[Mapping] = None) -> DriverResult:
    """Run Table 1 under the common driver contract."""
    config = resolve_params(DEFAULTS, params)
    if config["rounds"] <= config["warmup"]:
        raise ConfigurationError(
            f"rounds={config['rounds']} must exceed warmup={config['warmup']}"
        )
    rows = run(config["message_size"], config["rounds"], config["warmup"])
    return DriverResult(
        name="table1",
        config=config,
        rows=[asdict(row) for row in rows],
        text=render(rows),
    )

