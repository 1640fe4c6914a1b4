"""Table 1: round-trip latency, host-to-host and CAB-to-CAB.

The paper reports round-trip times for UDP and the Nectar-specific
protocols between two host processes and between two CAB threads; the one
row fully legible in the surviving scan is the datagram protocol at
325 us (host-to-host) and 179 us (CAB-to-CAB), plus the Sec. 6 claim that
an RPC between application tasks on two hosts completes in under 500 us.
"""

from __future__ import annotations

from typing import Mapping, Optional

from repro.apps.traffic import measure_rtt
from repro.bench import DriverResult, resolve_params
from repro.bench.cells import run_cells
from repro.bench.harness import two_hosted_nodes, two_nodes
from repro.errors import ConfigurationError

__all__ = ["rtt_cell", "scenario"]

#: The driver's parameter contract (see :func:`scenario`).
DEFAULTS = {"message_size": 32, "rounds": 30, "warmup": 5}

#: Paper reference values (us); None where the scan is illegible.
PAPER_HOST_RTT = {"datagram": 325.0, "rmp": None, "request-response": None, "udp": None}
PAPER_CAB_RTT = {"datagram": 179.0, "rmp": None, "request-response": None, "udp": None}

PROTOCOLS = ("datagram", "rmp", "request-response", "udp")


def rtt_cell(protocol: str, hosted: bool, message_size: int, rounds: int, warmup: int) -> float:
    """One Table 1 cell: mean RTT (us) host-to-host or CAB-to-CAB."""
    system, a, b = two_hosted_nodes() if hosted else two_nodes()
    return measure_rtt(system, a, b, protocol, message_size, rounds, warmup).mean_us


def scenario(params: Optional[Mapping] = None) -> DriverResult:
    """Run Table 1 under the common driver contract."""
    config = resolve_params(DEFAULTS, params)
    if config["rounds"] <= config["warmup"]:
        raise ConfigurationError(
            f"rounds={config['rounds']} must exceed warmup={config['warmup']}"
        )
    measure = (config["message_size"], config["rounds"], config["warmup"])
    rtts = run_cells(
        rtt_cell,
        [
            (protocol, hosted, *measure)
            for protocol in PROTOCOLS
            for hosted in (True, False)
        ],
    )
    return DriverResult(
        name="table1",
        config=config,
        rows=[
            {
                "protocol": protocol,
                "host_rtt_us": round(host_us, 1),
                "cab_rtt_us": round(cab_us, 1),
                "paper_host_us": PAPER_HOST_RTT[protocol],
                "paper_cab_us": PAPER_CAB_RTT[protocol],
            }
            for protocol, host_us, cab_us in zip(PROTOCOLS, rtts[0::2], rtts[1::2])
        ],
    )
