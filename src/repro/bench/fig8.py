"""Figure 8: host-to-host throughput vs message size.

Host processes stream through the on-CAB transports: both RMP and TCP/IP
flatten early against the ~30 Mbit/s VME bus (paper: RMP ~28, TCP ~24).
Two reference points complete the figure: the CAB as a *simple network
interface* with all protocol processing on the host reaches only
~6.4 Mbit/s, and the same hosts over their on-board Ethernet (which
bypasses the VME bus) reach ~7.2 Mbit/s.
"""

from __future__ import annotations

from typing import Mapping, Optional

from repro.apps.throughput import (
    ethernet_throughput,
    host_tcp_throughput,
    netdev_throughput,
)
from repro.apps.traffic import measure_throughput
from repro.bench import DriverResult, resolve_params
from repro.bench.cells import run_cells
from repro.bench.harness import two_hosted_nodes
from repro.errors import ConfigurationError

__all__ = ["SIZES", "scenario", "throughput_cell"]

SIZES = (64, 128, 256, 512, 1024, 2048, 4096, 8192)

#: The driver's parameter contract (see :func:`scenario`).
DEFAULTS = {"sizes": list(SIZES), "count": 30}

PAPER_RMP_MAX = 28.0
PAPER_TCP_MAX = 24.0
PAPER_NETDEV = 6.4
PAPER_ETHERNET = 7.2


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


def scenario(params: Optional[Mapping] = None) -> DriverResult:
    """Run the Fig. 8 sweep under the common driver contract."""
    config = resolve_params(DEFAULTS, params)
    if config["count"] < 1 or min(config["sizes"], default=1) < 1:
        raise ConfigurationError(
            f"count={config['count']} and every size in "
            f"sizes={config['sizes']} must be >= 1"
        )
    sizes, count = config["sizes"], config["count"]
    # The reference lines at 8 KB go first: the netdev line is the longest
    # cell, so it does not run alone at the end of the map.
    cells = [("netdev", 8192, 20), ("ethernet", 8192, 20)]
    cells += [(kind, size, count) for size in sizes for kind in ("rmp", "tcp")]
    netdev, ethernet, *sweep = run_cells(throughput_cell, cells)
    return DriverResult(
        name="fig8",
        config=config,
        rows=[
            {"size": size, "rmp_mbps": round(rmp, 2), "tcp_mbps": round(tcp, 2)}
            for size, rmp, tcp in zip(sizes, sweep[0::2], sweep[1::2])
        ],
        extras={
            "baselines": {
                "netdev_mbps": round(netdev, 2),
                "ethernet_mbps": round(ethernet, 2),
            }
        },
    )
