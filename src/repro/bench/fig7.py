"""Figure 7: CAB-to-CAB throughput vs message size.

Three curves, 16 B to 8 KB messages: the Nectar reliable message protocol
(RMP, no software checksum — reaches ~90 Mbit/s of the 100 Mbit/s fiber),
TCP/IP (lower, "mostly due to the cost of doing TCP checksums in
software"), and TCP without checksums (almost as fast as RMP).  For small
packets the per-packet overhead dominates and throughput doubles when the
packet size doubles; for large packets transmission time dominates.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Mapping, Optional

from repro.apps.traffic import measure_throughput
from repro.bench import DriverResult, resolve_params
from repro.bench.cells import run_cells
from repro.bench.harness import format_table, two_nodes
from repro.errors import ConfigurationError

__all__ = ["Fig7Row", "run", "scenario", "SIZES"]

SIZES = (16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192)

#: Paper reference points (Mbit/s) at the largest size.
PAPER_RMP_8K = 90.0


@dataclass
class Fig7Row:
    size: int
    rmp_mbps: float
    tcp_mbps: float
    tcp_nochecksum_mbps: float
    #: Sender-CAB CPU busy fraction during the TCP run: the evidence that
    #: the software checksum makes TCP CPU-bound while RMP is wire-bound.
    tcp_cpu_util: float = 0.0
    rmp_cpu_util: float = 0.0


#: The three curves: name -> (transport, software TCP checksums).
CURVES = {"rmp": ("rmp", True), "tcp": ("tcp", True), "tcp-nochecksum": ("tcp", False)}


def throughput_cell(curve: str, size: int, count: int) -> tuple[float, float]:
    """One Fig. 7 point: (Mbit/s, sender-CAB CPU busy fraction)."""
    transport, checksums = CURVES[curve]
    system, node_a, node_b = two_nodes(tcp_checksums=checksums)
    mbps = measure_throughput(system, node_a, node_b, transport, size, count)
    return mbps, system.utilization()[node_a.name]


def run(sizes=SIZES, count: int = 40) -> list[Fig7Row]:
    """Sweep message sizes for all three Fig. 7 curves."""
    points = run_cells(
        throughput_cell, [(curve, size, count) for size in sizes for curve in CURVES]
    )
    rows = []
    for size, (rmp, rmp_util), (tcp, tcp_util), (tcp_nock, _util) in zip(
        sizes, points[0::3], points[1::3], points[2::3]
    ):
        rows.append(
            Fig7Row(
                size=size,
                rmp_mbps=round(rmp, 2),
                tcp_mbps=round(tcp, 2),
                tcp_nochecksum_mbps=round(tcp_nock, 2),
                tcp_cpu_util=round(tcp_util, 3),
                rmp_cpu_util=round(rmp_util, 3),
            )
        )
    return rows


def render(rows: list[Fig7Row]) -> str:
    """Format the rows as the paper-style table."""
    return format_table(
        "Figure 7: CAB-to-CAB throughput (Mbit/s) vs message size",
        ["size (B)", "RMP", "TCP/IP", "TCP w/o checksum", "TCP cpu", "RMP cpu"],
        [
            (
                r.size,
                r.rmp_mbps,
                r.tcp_mbps,
                r.tcp_nochecksum_mbps,
                f"{r.tcp_cpu_util * 100:.0f}%",
                f"{r.rmp_cpu_util * 100:.0f}%",
            )
            for r in rows
        ],
    )


#: The driver's parameter contract (see :func:`scenario`).
DEFAULTS = {"sizes": list(SIZES), "count": 40}


def render_full(rows: list[Fig7Row]) -> str:
    """The table, the rendered curves, and the paper reference line."""
    from repro.bench.plot import render_curves

    return "\n".join(
        [
            render(rows),
            "",
            render_curves(
                "Figure 7 (rendered)",
                {
                    "RMP": [(r.size, r.rmp_mbps) for r in rows],
                    "TCP/IP": [(r.size, r.tcp_mbps) for r in rows],
                    "TCP w/o checksum": [
                        (r.size, r.tcp_nochecksum_mbps) for r in rows
                    ],
                },
            ),
            f"\npaper: RMP ~{PAPER_RMP_8K} Mbit/s at 8 KB; TCP w/o checksum "
            f"~RMP; TCP/IP below both (software checksum)",
        ]
    )


def scenario(params: Optional[Mapping] = None) -> DriverResult:
    """Run the Fig. 7 sweep under the common driver contract."""
    config = resolve_params(DEFAULTS, params)
    if config["count"] < 1 or min(config["sizes"], default=1) < 1:
        raise ConfigurationError(
            f"count={config['count']} and every size in "
            f"sizes={config['sizes']} must be >= 1"
        )
    rows = run(tuple(config["sizes"]), config["count"])
    return DriverResult(
        name="fig7",
        config=config,
        rows=[asdict(row) for row in rows],
        text=render_full(rows),
    )

