"""Figure 8: host-to-host throughput vs message size.

Host processes stream through the on-CAB transports: both RMP and TCP/IP
flatten early against the ~30 Mbit/s VME bus (paper: RMP ~28, TCP ~24).
Two reference points complete the figure: the CAB as a *simple network
interface* with all protocol processing on the host reaches only
~6.4 Mbit/s, and the same hosts over their on-board Ethernet (which
bypasses the VME bus) reach ~7.2 Mbit/s.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Mapping, Optional

from repro.apps.throughput import (
    ethernet_throughput,
    host_tcp_throughput,
    netdev_throughput,
)
from repro.apps.traffic import measure_throughput
from repro.bench import DriverResult, resolve_params
from repro.bench.cells import run_cells
from repro.bench.harness import format_table, two_hosted_nodes
from repro.errors import ConfigurationError

__all__ = ["Fig8Row", "run", "scenario", "SIZES"]

SIZES = (64, 128, 256, 512, 1024, 2048, 4096, 8192)

PAPER_RMP_MAX = 28.0
PAPER_TCP_MAX = 24.0
PAPER_NETDEV = 6.4
PAPER_ETHERNET = 7.2


@dataclass
class Fig8Row:
    size: int
    rmp_mbps: float
    tcp_mbps: float


def _rmp_throughput(system, hosted_a, hosted_b, message_size: int, count: int) -> float:
    return measure_throughput(system, hosted_a, hosted_b, "rmp", message_size, count)


#: What a Fig. 8 cell streams between two fresh hosts: the two curves and
#: the two reference lines.
MEASURES = {
    "rmp": _rmp_throughput,
    "tcp": host_tcp_throughput,
    "netdev": netdev_throughput,
    "ethernet": ethernet_throughput,
}


def throughput_cell(kind: str, size: int, count: int) -> float:
    """One Fig. 8 point (Mbit/s) on a fresh two-host rig."""
    system, hosted_a, hosted_b = two_hosted_nodes()
    return MEASURES[kind](system, hosted_a, hosted_b, size, count)


def _sweep_cells(sizes, count: int) -> list[tuple]:
    return [(kind, size, count) for size in sizes for kind in ("rmp", "tcp")]


def _baseline_cells(message_size: int = 8192, count: int = 20) -> list[tuple]:
    return [("netdev", message_size, count), ("ethernet", message_size, count)]


def _rows(sizes, mbps: list) -> list[Fig8Row]:
    return [
        Fig8Row(size=size, rmp_mbps=round(rmp, 2), tcp_mbps=round(tcp, 2))
        for size, rmp, tcp in zip(sizes, mbps[0::2], mbps[1::2])
    ]


def _baselines(mbps: list) -> dict:
    netdev, ethernet = mbps
    return {"netdev_mbps": round(netdev, 2), "ethernet_mbps": round(ethernet, 2)}


def run(sizes=SIZES, count: int = 30) -> list[Fig8Row]:
    """Sweep message sizes for the Fig. 8 host-to-host curves."""
    return _rows(sizes, run_cells(throughput_cell, _sweep_cells(sizes, count)))


def run_baselines(message_size: int = 8192, count: int = 20) -> dict:
    """The two reference lines: netdev mode and Ethernet."""
    return _baselines(run_cells(throughput_cell, _baseline_cells(message_size, count)))


def render(rows: list[Fig8Row], baselines: dict) -> str:
    """Format the rows plus the netdev/Ethernet reference lines."""
    table = format_table(
        "Figure 8: host-to-host throughput (Mbit/s) vs message size",
        ["size (B)", "RMP", "TCP/IP"],
        [(r.size, r.rmp_mbps, r.tcp_mbps) for r in rows],
    )
    extras = (
        f"\nnetwork-device mode: {baselines['netdev_mbps']} Mbit/s "
        f"(paper: {PAPER_NETDEV})"
        f"\nEthernet baseline:   {baselines['ethernet_mbps']} Mbit/s "
        f"(paper: {PAPER_ETHERNET})"
        f"\npaper maxima: RMP ~{PAPER_RMP_MAX}, TCP ~{PAPER_TCP_MAX} "
        f"(both limited by the ~30 Mbit/s VME bus)"
    )
    return table + extras


#: The driver's parameter contract (see :func:`scenario`).
DEFAULTS = {"sizes": list(SIZES), "count": 30}


def render_full(rows: list[Fig8Row], baselines: dict) -> str:
    """The table, reference lines, and rendered curves."""
    from repro.bench.plot import render_curves

    return "\n".join(
        [
            render(rows, baselines),
            "",
            render_curves(
                "Figure 8 (rendered)",
                {
                    "RMP": [(r.size, r.rmp_mbps) for r in rows],
                    "TCP/IP": [(r.size, r.tcp_mbps) for r in rows],
                },
            ),
        ]
    )


def scenario(params: Optional[Mapping] = None) -> DriverResult:
    """Run the Fig. 8 sweep under the common driver contract."""
    config = resolve_params(DEFAULTS, params)
    if config["count"] < 1 or min(config["sizes"], default=1) < 1:
        raise ConfigurationError(
            f"count={config['count']} and every size in "
            f"sizes={config['sizes']} must be >= 1"
        )
    sizes = tuple(config["sizes"])
    # The netdev reference line is the longest cell: list it first so it
    # does not run alone at the end of the map.
    base = _baseline_cells()
    mbps = run_cells(throughput_cell, base + _sweep_cells(sizes, config["count"]))
    baselines = _baselines(mbps[: len(base)])
    rows = _rows(sizes, mbps[len(base) :])
    return DriverResult(
        name="fig8",
        config=config,
        rows=[asdict(row) for row in rows],
        text=render_full(rows, baselines),
        extras={"baselines": baselines},
    )

