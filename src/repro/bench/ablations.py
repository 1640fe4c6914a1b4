"""Ablations of the design choices the paper calls out.

1. **Shared-memory vs RPC-based mailbox operations** (Sec. 3.3): the paper
   kept both implementations and measured shared memory ~2x faster for Sun-4
   hosts.
2. **IP input at interrupt time vs in a high-priority thread** (Sec. 3.1):
   the experiment the authors planned — extra context switches per packet in
   exchange for less time with interrupts disabled.
3. **VME bandwidth sweep** (Sec. 7): "the overall design ... is independent
   of the choice of bus ... we expect that it will perform well when
   higher-speed buses are used" — host-to-host throughput should scale with
   the bus until something else binds.
4. **Software checksum cost sweep**: the single constant behind the
   RMP/TCP separation in Fig. 7.
"""

from __future__ import annotations

from typing import Dict, Generator, List, Mapping, Optional

from repro.apps.traffic import measure_rtt, measure_throughput
from repro.bench import DriverResult, resolve_params
from repro.bench.harness import format_table, two_hosted_nodes, two_nodes
from repro.host.driver import MODE_RPC, MODE_SHARED
from repro.host.machine import HostedNode
from repro.model.costs import CostModel
from repro.units import seconds

__all__ = [
    "checksum_sweep",
    "upcall_vs_thread_server",
    "ip_input_mode_comparison",
    "mailbox_mode_comparison",
    "scenario",
    "vme_bandwidth_sweep",
]


def upcall_vs_thread_server(rounds: int = 50) -> Dict[str, float]:
    """Sec. 3.3: a mailbox server as a reader upcall vs a separate thread.

    "If a pair of threads uses a mailbox in a client-server style, the body
    of the server thread can instead be attached to the mailbox as a reader
    upcall; this effectively converts a cross-thread procedure call into a
    local one."  Measures the per-request time of both shapes on one CAB.
    """
    results: Dict[str, float] = {}
    for shape in ("thread", "upcall"):
        system, node_a, _node_b = two_nodes()
        rt = node_a.runtime
        request_box = rt.mailbox(f"abl-req-{shape}")
        reply_box = rt.mailbox(f"abl-rep-{shape}")
        done = system.sim.event()

        def serve_one(mb) -> Generator:
            msg = yield from mb.ibegin_get()
            if msg is None:
                return
            yield from mb.iend_get(msg)
            out = yield from reply_box.ibegin_put(16)
            if out is not None:
                yield from reply_box.iend_put(out)

        if shape == "upcall":
            request_box.reader_upcall = serve_one
        else:

            def server() -> Generator:
                while True:
                    msg = yield from request_box.begin_get()
                    yield from request_box.end_get(msg)
                    out = yield from reply_box.begin_put(16)
                    yield from reply_box.end_put(out)

            rt.fork_system(server(), "abl-server")

        def client() -> Generator:
            start = system.now
            for _ in range(rounds):
                msg = yield from request_box.begin_put(16)
                yield from request_box.end_put(msg)
                reply = yield from reply_box.begin_get()
                yield from reply_box.end_get(reply)
            done.succeed((system.now - start) / rounds / 1000.0)

        rt.fork_application(client(), "abl-client")
        results[f"{shape}_us"] = system.run_until(done, limit=seconds(30))
    results["upcall_advantage_us"] = results["thread_us"] - results["upcall_us"]
    return results


def mailbox_mode_comparison(rounds: int = 40) -> Dict[str, float]:
    """Host put+get loop under both mailbox implementations (us per cycle)."""
    system, hosted_a, _hosted_b = two_hosted_nodes()
    shared = hosted_a.node.runtime.mailbox("abl-shared")
    rpc = hosted_a.node.runtime.mailbox("abl-rpc")
    hosted_a.driver.set_mailbox_mode(shared, MODE_SHARED)
    hosted_a.driver.set_mailbox_mode(rpc, MODE_RPC)
    done = system.sim.event()
    results: Dict[str, float] = {}

    def bench() -> Generator:
        yield from hosted_a.driver.map_cab_memory()
        for name, mailbox in (("shared_us", shared), ("rpc_us", rpc)):
            start = system.now
            for _ in range(rounds):
                msg = yield from hosted_a.driver.begin_put(mailbox, 32)
                yield from hosted_a.driver.fill(msg, b"x" * 32)
                yield from hosted_a.driver.end_put(mailbox, msg)
                got = yield from hosted_a.driver.begin_get(mailbox)
                yield from hosted_a.driver.end_get(mailbox, got)
            results[name] = (system.now - start) / rounds / 1000.0
        done.succeed()

    hosted_a.host.fork_process(bench(), "abl-mailbox")
    system.run_until(done, limit=seconds(30))
    results["speedup"] = results["rpc_us"] / results["shared_us"]
    return results


def ip_input_mode_comparison(rounds: int = 30) -> Dict[str, float]:
    """UDP RTT with IP input at interrupt time vs in a thread (us)."""
    out: Dict[str, float] = {}
    for mode in ("interrupt", "thread"):
        system, node_a, node_b = two_nodes(ip_input_mode=mode)
        recorder = measure_rtt(system, node_a, node_b, "udp", rounds=rounds)
        out[f"{mode}_us"] = recorder.mean_us
    out["thread_penalty_us"] = out["thread_us"] - out["interrupt_us"]
    return out


def vme_bandwidth_sweep(
    bandwidths_mbps=(10.0, 30.0, 60.0, 120.0), message_size: int = 8192, count: int = 25
) -> List[tuple[float, float]]:
    """Host-to-host RMP throughput as the bus gets faster."""
    rows = []
    for mbps in bandwidths_mbps:
        costs = CostModel(vme_dma_mbps=mbps)
        system, hosted_a, hosted_b = two_hosted_nodes(costs=costs)
        throughput = measure_throughput(
            system, hosted_a, hosted_b, "rmp", message_size, count
        )
        rows.append((mbps, round(throughput, 2)))
    return rows


def checksum_sweep(
    ns_per_byte=(0, 75, 150, 300), message_size: int = 8192, count: int = 25
) -> List[tuple[int, float]]:
    """CAB-to-CAB TCP throughput as the software checksum cost varies."""
    rows = []
    for cost in ns_per_byte:
        costs = CostModel(cab_checksum_ns_per_byte=cost)
        system, node_a, node_b = two_nodes(costs=costs)
        throughput = measure_throughput(
            system, node_a, node_b, "tcp", message_size, count
        )
        rows.append((cost, round(throughput, 2)))
    return rows


#: The driver's parameter contract (see :func:`scenario`).
DEFAULTS: Dict[str, object] = {}


def run() -> Dict[str, object]:
    """Run every ablation; returns a name -> measurements dict."""
    return {
        "upcall": upcall_vs_thread_server(),
        "mailbox": mailbox_mode_comparison(),
        "ip_input": ip_input_mode_comparison(),
        "vme": vme_bandwidth_sweep(),
        "checksum": checksum_sweep(),
    }


def render(results: Dict[str, object]) -> str:
    """Format every ablation as its paper-style table."""
    upcall = results["upcall"]
    mailbox = results["mailbox"]
    modes = results["ip_input"]
    tables = [
        format_table(
            "Ablation: mailbox server as upcall vs thread (per request)",
            ["shape", "us/request"],
            [
                ("separate thread", f"{upcall['thread_us']:.1f}"),
                ("reader upcall", f"{upcall['upcall_us']:.1f}"),
                ("upcall saves", f"{upcall['upcall_advantage_us']:.1f}"),
            ],
        ),
        format_table(
            "Ablation: host mailbox op implementations (per put+get cycle)",
            ["implementation", "us/cycle"],
            [
                ("shared memory", f"{mailbox['shared_us']:.1f}"),
                ("RPC-based", f"{mailbox['rpc_us']:.1f}"),
                ("speedup", f"{mailbox['speedup']:.2f}x (paper: ~2x)"),
            ],
        ),
        format_table(
            "Ablation: IP input placement (UDP RTT)",
            ["mode", "us"],
            [
                ("interrupt time", f"{modes['interrupt_us']:.1f}"),
                ("high-priority thread", f"{modes['thread_us']:.1f}"),
                ("thread penalty", f"{modes['thread_penalty_us']:.1f}"),
            ],
        ),
        format_table(
            "Ablation: VME bus bandwidth sweep (host-host RMP, 8 KB)",
            ["bus Mbit/s", "throughput Mbit/s"],
            [(f"{m:.0f}", t) for m, t in results["vme"]],
        ),
        format_table(
            "Ablation: software checksum cost (CAB-CAB TCP, 8 KB)",
            ["ns/byte", "throughput Mbit/s"],
            [(c, t) for c, t in results["checksum"]],
        ),
    ]
    return "\n\n".join(tables)


def scenario(params: Optional[Mapping] = None) -> DriverResult:
    """Run every ablation under the common driver contract."""
    config = resolve_params(DEFAULTS, params)
    results = run()
    rows: List[dict] = []
    for name in ("upcall", "mailbox", "ip_input"):
        for key, value in results[name].items():
            rows.append(
                {"ablation": name, "quantity": key, "value": round(value, 3)}
            )
    for mbps, throughput in results["vme"]:
        rows.append(
            {"ablation": "vme", "quantity": f"bus_{mbps:.0f}_mbps", "value": throughput}
        )
    for cost, throughput in results["checksum"]:
        rows.append(
            {"ablation": "checksum", "quantity": f"cost_{cost}_ns_per_byte", "value": throughput}
        )
    return DriverResult(
        name="ablations",
        config=config,
        rows=rows,
        text=render(results),
    )

