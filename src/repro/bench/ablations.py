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
from repro.bench.cells import run_cells
from repro.bench.harness import format_table, two_hosted_nodes, two_nodes
from repro.host.driver import MODE_RPC, MODE_SHARED
from repro.model.costs import CostModel
from repro.units import seconds

__all__ = ["ablation_cell", "run", "scenario"]


def upcall_cell(shape: str, rounds: int = 50) -> float:
    """Sec. 3.3: per-request time (us) of a mailbox server on one CAB.

    "If a pair of threads uses a mailbox in a client-server style, the body
    of the server thread can instead be attached to the mailbox as a reader
    upcall; this effectively converts a cross-thread procedure call into a
    local one."  ``shape`` is ``"thread"`` (a separate server thread) or
    ``"upcall"`` (the server body as the reader upcall).
    """
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
    return system.run_until(done, limit=seconds(30))


def mailbox_cell(rounds: int = 40) -> Dict[str, float]:
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
    return results


def ip_input_cell(mode: str, rounds: int = 30) -> float:
    """UDP RTT (us) with IP input at interrupt time or in a thread."""
    system, node_a, node_b = two_nodes(ip_input_mode=mode)
    return measure_rtt(system, node_a, node_b, "udp", rounds=rounds).mean_us


def vme_cell(mbps: float, message_size: int = 8192, count: int = 25) -> float:
    """Host-to-host RMP throughput (Mbit/s) over a bus of ``mbps``."""
    system, hosted_a, hosted_b = two_hosted_nodes(costs=CostModel(vme_dma_mbps=mbps))
    return measure_throughput(system, hosted_a, hosted_b, "rmp", message_size, count)


def checksum_cell(ns_per_byte: int, message_size: int = 8192, count: int = 25) -> float:
    """CAB-to-CAB TCP throughput (Mbit/s) at a software checksum cost."""
    costs = CostModel(cab_checksum_ns_per_byte=ns_per_byte)
    system, node_a, node_b = two_nodes(costs=costs)
    return measure_throughput(system, node_a, node_b, "tcp", message_size, count)


_CELLS = {
    "upcall": upcall_cell,
    "mailbox": mailbox_cell,
    "ip_input": ip_input_cell,
    "vme": vme_cell,
    "checksum": checksum_cell,
}


def ablation_cell(ablation: str, *args):
    """One measurement of one ablation: ``_CELLS[ablation](*args)``."""
    return _CELLS[ablation](*args)


#: The swept bus bandwidths (Mbit/s) and software checksum costs (ns/byte).
VME_MBPS = (10.0, 30.0, 60.0, 120.0)
CHECKSUM_NS_PER_BYTE = (0, 75, 150, 300)

#: The driver's parameter contract (see :func:`scenario`).
DEFAULTS: Dict[str, object] = {}


def run() -> Dict[str, object]:
    """Run every ablation; returns a name -> measurements dict."""
    cells = (
        [("upcall", "thread"), ("upcall", "upcall"), ("mailbox",)]
        + [("ip_input", "interrupt"), ("ip_input", "thread")]
        + [("vme", mbps) for mbps in VME_MBPS]
        + [("checksum", cost) for cost in CHECKSUM_NS_PER_BYTE]
    )
    value = dict(zip(cells, run_cells(ablation_cell, cells)))
    upcall = {"thread_us": value["upcall", "thread"], "upcall_us": value["upcall", "upcall"]}
    upcall["upcall_advantage_us"] = upcall["thread_us"] - upcall["upcall_us"]
    mailbox = value[("mailbox",)]
    mailbox["speedup"] = mailbox["rpc_us"] / mailbox["shared_us"]
    modes = {"interrupt_us": value["ip_input", "interrupt"], "thread_us": value["ip_input", "thread"]}
    modes["thread_penalty_us"] = modes["thread_us"] - modes["interrupt_us"]
    return {
        "upcall": upcall,
        "mailbox": mailbox,
        "ip_input": modes,
        "vme": [(mbps, round(value["vme", mbps], 2)) for mbps in VME_MBPS],
        "checksum": [(cost, round(value["checksum", cost], 2)) for cost in CHECKSUM_NS_PER_BYTE],
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

