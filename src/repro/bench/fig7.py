"""Figure 7: CAB-to-CAB throughput vs message size.

Three curves, 16 B to 8 KB messages: the Nectar reliable message protocol
(RMP, no software checksum — reaches ~90 Mbit/s of the 100 Mbit/s fiber),
TCP/IP (lower, "mostly due to the cost of doing TCP checksums in
software"), and TCP without checksums (almost as fast as RMP).  For small
packets the per-packet overhead dominates and throughput doubles when the
packet size doubles; for large packets transmission time dominates.
"""

from __future__ import annotations

from typing import Mapping, Optional

from repro.apps.traffic import measure_throughput
from repro.bench import DriverResult, resolve_params
from repro.bench.cells import run_cells
from repro.bench.harness import two_nodes
from repro.errors import ConfigurationError

__all__ = ["SIZES", "scenario", "throughput_cell"]

SIZES = (16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192)

#: The driver's parameter contract (see :func:`scenario`).
DEFAULTS = {"sizes": list(SIZES), "count": 40}

#: Paper reference points (Mbit/s) at the largest size.
PAPER_RMP_8K = 90.0

#: The three curves: name -> (transport, software TCP checksums).
CURVES = {"rmp": ("rmp", True), "tcp": ("tcp", True), "tcp-nochecksum": ("tcp", False)}


def throughput_cell(curve: str, size: int, count: int) -> tuple[float, float]:
    """One Fig. 7 point: (Mbit/s, sender-CAB CPU busy fraction)."""
    transport, checksums = CURVES[curve]
    system, node_a, node_b = two_nodes(tcp_checksums=checksums)
    mbps = measure_throughput(system, node_a, node_b, transport, size, count)
    return mbps, system.utilization()[node_a.name]


def scenario(params: Optional[Mapping] = None) -> DriverResult:
    """Run the Fig. 7 sweep under the common driver contract."""
    config = resolve_params(DEFAULTS, params)
    if config["count"] < 1 or min(config["sizes"], default=1) < 1:
        raise ConfigurationError(
            f"count={config['count']} and every size in "
            f"sizes={config['sizes']} must be >= 1"
        )
    sizes = config["sizes"]
    points = run_cells(
        throughput_cell,
        [(curve, size, config["count"]) for size in sizes for curve in CURVES],
    )
    # The sender-CPU columns are the evidence that the software checksum
    # makes TCP CPU-bound while RMP is wire-bound.
    return DriverResult(
        name="fig7",
        config=config,
        rows=[
            {
                "size": size,
                "rmp_mbps": round(rmp, 2),
                "tcp_mbps": round(tcp, 2),
                "tcp_nochecksum_mbps": round(tcp_nock, 2),
                "tcp_cpu_util": round(tcp_util, 3),
                "rmp_cpu_util": round(rmp_util, 3),
            }
            for size, (rmp, rmp_util), (tcp, tcp_util), (tcp_nock, _util) in zip(
                sizes, points[0::3], points[1::3], points[2::3]
            )
        ],
    )
