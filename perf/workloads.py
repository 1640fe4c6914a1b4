"""The six ledger workloads: seeded inputs, the timed region, and the checks.

Every workload is an object with three steps the harness times apart:

* ``build(seed, scale)`` — set-up: construct a fresh system or fleet and
  install the load on it (``setup_s``).  Returns a *rig*.  The harness
  calls it through ``fresh_build``.
* ``run(rig)`` — the timed region (``wall_s`` / ``cpu_s``): only the
  simulation itself.
* ``outcome(rig)`` — verification and exact counters, after the clock stops.

``seed`` reaches input generation only: the payload bytes of the two-CAB
streams and ``WorkloadSpec.seed`` (which CABs talk) for the fleets.
``scale`` divides the message counts (``--quick`` runs at 1/20 size).

The two-CAB loads are closed loops — one sender, one receiver, the
protocol's own window — written here on the nodes' public protocol API
rather than through ``repro.apps.throughput``: those helpers hard-code
their payload and drop what arrives, and this ledger needs seeded bytes
and a byte-exact check of every message.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from dataclasses import dataclass, field
from typing import Dict, Generator, List, Optional

from repro.apps.services import install_rmp_host_send
from repro.bench import ablations, fig6, fig7, fig8, microcosts, table1
from repro.bench.harness import two_hosted_nodes, two_nodes
from repro.cluster.conductor import Conductor, run_reference
from repro.cluster.fleet import build_fleet_system, line_fleet
from repro.cluster.workload import Workload as FleetWorkload
from repro.cluster.workload import WorkloadSpec
from repro.protocols.headers import NectarTransportHeader
from repro.protocols.tcp.connection import TCPConnection
from repro.units import seconds, throughput_mbps

__all__ = ["WORKLOADS", "Outcome", "paper_cells", "paper_err_pct", "paper_points"]

_LIMIT = seconds(600)


@dataclass
class Outcome:
    """What one finished run produced, for checking and for the C metrics."""

    ops: int
    failures: List[str]
    #: Must be identical across repeats of one seed: (events, sim_ns,
    #: delivered bytes, digest of the protocol-level results).
    fingerprint: tuple
    #: Exact counters read from public attributes after the run.
    counters: Dict[str, float] = field(default_factory=dict)

    @property
    def failed(self) -> int:
        return len(self.failures)


def _digest(results) -> str:
    return hashlib.sha256(json.dumps(results, sort_keys=True).encode()).hexdigest()


# ------------------------------------------------------------ seeded streams


class Stream:
    """A seeded byte stream cut into ``count`` messages of ``size`` bytes.

    The sender sends ``messages`` in order; the receiver hands every chunk it
    is delivered to :meth:`arrived`, which compares it against the stream in
    order — so a lost, reordered, duplicated or corrupted message shows.
    """

    def __init__(self, seed: int, size: int, count: int):
        self.size, self.count = size, count
        self.data = random.Random(seed).randbytes(size * count)
        self.messages = [self.data[i * size:(i + 1) * size] for i in range(count)]
        self.offset = 0
        self.bad: set = set()

    def arrived(self, chunk: bytes) -> None:
        end = self.offset + len(chunk)
        if self.data[self.offset:end] != chunk:
            last = min(self.count - 1, (end - 1) // self.size)
            self.bad.update(range(self.offset // self.size, last + 1))
        self.offset = end

    def failures(self, label: str) -> List[str]:
        """One entry per message that did not arrive byte-exact."""
        missing = range(self.offset // self.size, self.count)
        return [f"{label}: message {i} not byte-exact" for i in sorted(self.bad)] + [
            f"{label}: message {i} undelivered" for i in missing
        ]


@dataclass
class _Rig:
    """A built two-node system with its load installed, ready to run."""

    system: object
    done: object
    streams: Dict[str, Stream]
    rtts_ns: List[int] = field(default_factory=list)
    stream_start_ns: int = 0


def _system_counters(system) -> Dict[str, float]:
    """The exact per-layer counters every single-``NectarSystem`` rig has."""
    nodes = list(system.nodes.values())

    def cpu(name):
        return sum(node.cab.cpu.stats.value(name) for node in nodes)

    def proto(name):
        return sum(node.runtime.stats.value(name) for node in nodes)

    meter = system.copy_meter
    return {
        "sim.events": system.sim.events_scheduled,
        "cab.context_switches": cpu("context_switches"),
        "cab.interrupts_serviced": cpu("interrupts_serviced"),
        "protocols.frames_sent": sum(n.cab.stats.value("frames_sent") for n in nodes),
        "protocols.bytes_sent": sum(n.cab.stats.value("bytes_sent") for n in nodes),
        "protocols.retransmits": proto("rmp_retransmits")
        + proto("rpc_retries")
        + proto("tcp_retransmits")
        + proto("nmp_repairs_out"),
        "hub.grants": sum(
            sum(hub.stats.snapshot().values()) for hub in system.hubs.values()
        ),
        "hub.frames_delivered": system.network.stats.value("frames_delivered"),
        "buf.memcpy_bytes": meter.memcpy_bytes,
        "buf.buffers_allocated": meter.buffers_allocated,
        "buf.live_buffers_end": meter.live_buffers,
        "model.sim_ns": system.now,
    }


def _forget_earlier_builds() -> None:
    """Give the next build the process state a fresh interpreter would.

    TCP takes its initial sequence numbers from a process-wide connection
    counter, so the n-th system built in one process sends other header
    bytes than the first.  When a segment's checksum then comes out 0 the
    receiver skips verifying it (``tcp.py``: ``checksum != 0``) and events
    and ``sim_ns`` move: seed 201 of ``cab_bulk_tcp`` differs on its third
    build.  Until that counter belongs to the system, repeats are only
    comparable if each starts it over — the one place this directory
    reaches past the public API.
    """
    TCPConnection._next_id = 1


def _leaks(counters: Dict[str, float]) -> List[str]:
    live = counters["buf.live_buffers_end"]
    return [f"{live} packet buffers never freed"] if live else []


class _Workload:
    """Defaults for the optional steps of a workload."""

    name = ""
    #: One line on why the workload exists (also in BENCHMARK.json).
    why = ""

    #: Wall seconds of the reference run :meth:`cross_check` made, if any.
    reference_wall_s = 0.0

    def fresh_build(self, seed: int, scale: int = 1):
        """``build`` as the first thing a new process would do."""
        _forget_earlier_builds()
        return self.build(seed, scale)

    def cross_check(self, seed: int, scale: int, outcome: Outcome) -> List[str]:
        """Extra failures from a check too costly to repeat; run once."""
        return []

    def enable_telemetry(self, rig) -> bool:
        """Switch telemetry on for a built rig; False when there is no hook."""
        return False

    def inline(self) -> Optional["_Workload"]:
        """A twin that runs in this process what ``run`` spreads over
        worker processes, for the tracer; None when ``run`` already does."""
        return None


class _TwoNodeWorkload(_Workload):
    """Shared run/outcome of the three closed-loop two-CAB workloads."""

    def enable_telemetry(self, rig: _Rig) -> bool:
        rig.system.enable_telemetry()
        return True

    def run(self, rig: _Rig) -> None:
        rig.system.run_until(rig.done, limit=_LIMIT)
        rig.system.run()  # drain the last ACKs so every buffer comes home

    def outcome(self, rig: _Rig) -> Outcome:
        system = rig.system
        counters = _system_counters(system)
        failures = _leaks(counters)
        for label, stream in rig.streams.items():
            failures += stream.failures(label)
        names = list(system.nodes)
        util = system.utilization()
        counters["cab.cpu_util_tx"] = util[names[0]]
        counters["cab.cpu_util_rx"] = util[names[1]]
        bulk = rig.streams["stream"]
        delivered = sum(s.offset for s in rig.streams.values())
        counters["model.goodput_mbps"] = throughput_mbps(
            bulk.offset, max(1, rig.done.value - rig.stream_start_ns)
        )
        if rig.rtts_ns:
            counters["model.rtt_us"] = sum(rig.rtts_ns) / len(rig.rtts_ns) / 1000.0
        ops = sum(s.count for s in rig.streams.values())
        return Outcome(
            ops=ops + 1,  # + the buffer-balance check
            failures=failures,
            fingerprint=(counters["sim.events"], system.now, delivered, ""),
            counters=counters,
        )


class CabSmall(_TwoNodeWorkload):
    """CAB-to-CAB RMP stream of small messages."""

    name = "cab_small"
    why = (
        "64 B RMP stream CAB to CAB: per-event overhead is everything, so "
        "event-kernel and CPU-engine work shows here and byte work does not"
    )
    size, count = 64, 2000

    def build(self, seed: int, scale: int = 1) -> _Rig:
        system, node_a, node_b = two_nodes()
        stream = Stream(seed, self.size, max(1, self.count // scale))
        inbox = node_b.runtime.mailbox("perf-inbox")
        chan = node_a.rmp.open(21, node_b.node_id, 22)
        node_b.rmp.open(22, node_a.node_id, 21, deliver_mailbox=inbox)
        rig = _Rig(system, system.sim.event(), {"stream": stream})

        def sender() -> Generator:
            for payload in stream.messages:
                yield from node_a.rmp.send(chan, payload, charge_copy=False)

        def receiver() -> Generator:
            for _ in range(stream.count):
                msg = yield from inbox.begin_get()
                stream.arrived(msg.read())
                yield from inbox.end_get(msg)
            rig.done.succeed(system.now)

        node_a.runtime.fork_application(sender(), "perf-sender")
        node_b.runtime.fork_application(receiver(), "perf-receiver")
        return rig


class CabBulkTcp(_TwoNodeWorkload):
    """CAB-to-CAB TCP stream of large messages with software checksums."""

    name = "cab_bulk_tcp"
    why = (
        "8 KB TCP stream with software checksum: real checksum/CRC/buffer-view "
        "work over megabytes, lowest kernel share; data-path work shows here"
    )
    size, count = 8192, 450

    def build(self, seed: int, scale: int = 1) -> _Rig:
        system, node_a, node_b = two_nodes(tcp_checksums=True)
        stream = Stream(seed, self.size, max(1, self.count // scale))
        inbox = node_b.runtime.mailbox("perf-inbox")
        node_b.tcp.listen(7000, lambda conn: inbox)
        rig = _Rig(system, system.sim.event(), {"stream": stream})
        total = stream.size * stream.count

        def sender() -> Generator:
            cli_inbox = node_a.runtime.mailbox("perf-cli-inbox")
            conn = yield from node_a.tcp.connect(
                6000, node_b.ip_address, 7000, cli_inbox
            )
            for payload in stream.messages:
                yield from node_a.tcp.send_direct(conn, payload)

        def receiver() -> Generator:
            while stream.offset < total:
                msg = yield from inbox.begin_get()
                stream.arrived(msg.read())
                yield from inbox.end_get(msg)
            rig.done.succeed(system.now)

        node_a.runtime.fork_application(sender(), "perf-sender")
        node_b.runtime.fork_application(receiver(), "perf-receiver")
        return rig


class HostRpc(_TwoNodeWorkload):
    """Host-to-host request-response rounds, then a host RMP stream."""

    name = "host_rpc"
    why = (
        "host-to-host 32 B RPC rounds then an 8 KB host RMP stream: the only "
        "workload crossing repro.host, the VME model and host-side signalling"
    )
    rpc_size, rounds = 32, 600
    size, count = 8192, 400

    def build(self, seed: int, scale: int = 1) -> _Rig:
        system, hosted_a, hosted_b = two_hosted_nodes()
        node_a, node_b = hosted_a.node, hosted_b.node
        calls = Stream(seed, self.rpc_size, max(1, self.rounds // scale))
        stream = Stream(seed + 1, self.size, max(1, self.count // scale))
        rig = _Rig(
            system,
            system.sim.event(),
            {"rpc": calls, "stream": stream},
        )
        service = node_b.runtime.mailbox("perf-rpc-server")
        node_b.rpc.serve(31, service)
        inbox = node_b.runtime.mailbox("perf-inbox")
        chan = node_a.rmp.open(21, node_b.node_id, 22)
        node_b.rmp.open(22, node_a.node_id, 21, deliver_mailbox=inbox)
        send_mailbox = install_rmp_host_send(node_a, chan)
        head = NectarTransportHeader.SIZE

        def server() -> Generator:
            # The server task runs on host B; the transport stays on the CAB.
            yield from hosted_b.driver.map_cab_memory()
            while True:
                msg = yield from hosted_b.driver.begin_get(service, blocking=False)
                header = NectarTransportHeader.unpack(msg.read(0, head))
                body = yield from hosted_b.driver.read(msg, head)
                yield from hosted_b.driver.end_get(service, msg)

                def respond_on_cab(header=header, body=body) -> Generator:
                    yield from node_b.rpc.respond(header, body)

                yield from hosted_b.driver.call_cab(respond_on_cab)

        def client() -> Generator:
            yield from hosted_a.driver.map_cab_memory()
            port = node_a.rpc.allocate_client_port()
            for payload in calls.messages:
                start = system.now

                def on_cab(payload=payload) -> Generator:
                    reply = yield from node_a.rpc.request(
                        port, node_b.node_id, 31, payload
                    )
                    return reply

                reply = yield from hosted_a.driver.call_cab(on_cab)
                rig.rtts_ns.append(system.now - start)
                calls.arrived(bytes(reply))
            rig.stream_start_ns = system.now
            for payload in stream.messages:
                msg = yield from hosted_a.driver.begin_put(send_mailbox, stream.size)
                yield from hosted_a.driver.fill(msg, payload)
                yield from hosted_a.driver.end_put(send_mailbox, msg)

        def receiver() -> Generator:
            yield from hosted_b.driver.map_cab_memory()
            for _ in range(stream.count):
                msg = yield from hosted_b.driver.begin_get(inbox, blocking=False)
                stream.arrived((yield from hosted_b.driver.read(msg)))
                yield from hosted_b.driver.end_get(inbox, msg)
            rig.done.succeed(system.now)

        hosted_b.host.fork_process(server(), "perf-rpc-server")
        hosted_b.host.fork_process(receiver(), "perf-receiver")
        hosted_a.host.fork_process(client(), "perf-client")
        return rig


# ---------------------------------------------------------------- paper sweep

def paper_points(results: Dict[str, object]) -> Dict[str, tuple]:
    """The ten legible paper numbers: name -> (simulated, paper).

    ``results`` maps driver name to its ``DriverResult``; needs table1,
    fig6, fig7 and fig8 (with the 8 KB point) and micro.
    """
    t1 = {row["protocol"]: row for row in results["table1"].rows}["datagram"]
    f6 = {row["component"]: row["us"] for row in results["fig6"].rows}
    f7 = {row["size"]: row for row in results["fig7"].rows}[8192]
    f8 = {row["size"]: row for row in results["fig8"].rows}[8192]
    base = results["fig8"].extras["baselines"]
    micro = {row["quantity"]: row["value"] for row in results["micro"].rows}
    return {
        "table1.host_datagram_us": (t1["host_rtt_us"], t1["paper_host_us"]),
        "table1.cab_datagram_us": (t1["cab_rtt_us"], t1["paper_cab_us"]),
        "fig6.total_us": (f6["total one-way"], fig6.PAPER_TOTAL_US),
        "fig7.rmp_8k_mbps": (f7["rmp_mbps"], fig7.PAPER_RMP_8K),
        "fig8.rmp_8k_mbps": (f8["rmp_mbps"], fig8.PAPER_RMP_MAX),
        "fig8.tcp_8k_mbps": (f8["tcp_mbps"], fig8.PAPER_TCP_MAX),
        "fig8.netdev_mbps": (base["netdev_mbps"], fig8.PAPER_NETDEV),
        "fig8.ethernet_mbps": (base["ethernet_mbps"], fig8.PAPER_ETHERNET),
        "micro.context_switch_us": (
            micro["context_switch_us"],
            microcosts.PAPER_CONTEXT_SWITCH_US,
        ),
        "micro.hub_setup_ns": (micro["hub_setup_ns"], microcosts.PAPER_HUB_SETUP_NS),
    }


_DRIVERS = {
    "table1": table1, "fig6": fig6, "fig7": fig7, "fig8": fig8,
    "micro": microcosts, "ablations": ablations,
}


def paper_cells() -> Dict[str, object]:
    """Run just the cells that carry a paper number: the 8 KB points instead
    of the two size sweeps, no ablations.  Each cell is a fresh system, so
    :func:`paper_err_pct` of this equals the full sweep's."""
    _forget_earlier_builds()
    short = {"fig7": {"sizes": [8192]}, "fig8": {"sizes": [8192]}}
    return {
        name: driver.scenario(short.get(name))
        for name, driver in _DRIVERS.items()
        if name != "ablations"
    }


def paper_err_pct(results: Dict[str, object]) -> float:
    """Mean absolute relative error (%) over :func:`paper_points`."""
    points = paper_points(results)
    return 100.0 * sum(abs(sim - ref) / ref for sim, ref in points.values()) / len(points)


def _shape_predicates(results: Dict[str, object]) -> Dict[str, bool]:
    """The paper's shape claims (orderings, crossovers, plateaus).

    The same predicates ``benchmarks/`` asserts under pytest-benchmark,
    which tier-1 never collects; here each one is an op of the sweep.
    """
    t1 = {row["protocol"]: row for row in results["table1"].rows}
    f6 = {row["component"]: row["us"] for row in results["fig6"].rows}
    shares = results["fig6"].extras["shares"]
    f7rows = results["fig7"].rows
    f7 = {row["size"]: row for row in f7rows}
    f8 = {row["size"]: row for row in results["fig8"].rows}
    base = results["fig8"].extras["baselines"]
    micro = {row["quantity"]: row["value"] for row in results["micro"].rows}
    abl: Dict[str, Dict[str, float]] = {}
    for row in results["ablations"].rows:
        abl.setdefault(row["ablation"], {})[row["quantity"]] = row["value"]
    vme = list(abl["vme"].values())
    cksum = list(abl["checksum"].values())
    datagram = t1["datagram"]
    checks = {
        "table1: CAB RTT below host RTT for every protocol": all(
            row["cab_rtt_us"] < row["host_rtt_us"] for row in t1.values()
        ),
        "table1: datagram is (nearly) the fastest host transport": datagram[
            "host_rtt_us"
        ]
        <= 1.1 * min(row["host_rtt_us"] for row in t1.values()),
        "table1: datagram beats RMP": datagram["host_rtt_us"] < t1["rmp"]["host_rtt_us"]
        and datagram["cab_rtt_us"] < t1["rmp"]["cab_rtt_us"],
        "table1: datagram within 40% of 325/179 us": 0.6 * 325
        <= datagram["host_rtt_us"]
        <= 1.4 * 325
        and 0.6 * 179 <= datagram["cab_rtt_us"] <= 1.4 * 179,
        "table1: UDP slower than datagram": t1["udp"]["host_rtt_us"]
        > datagram["host_rtt_us"],
        "table1: host RPC under 500 us": t1["request-response"]["host_rtt_us"] < 500.0,
        "fig6: total within 40% of 163 us": 0.6 * fig6.PAPER_TOTAL_US
        <= f6["total one-way"]
        <= 1.4 * fig6.PAPER_TOTAL_US,
        "fig6: shares in the paper's bands": 0.15 <= shares["host-CAB interface"] <= 0.55
        and 0.25 <= shares["CAB-to-CAB"] <= 0.55
        and 0.10 <= shares["host create/read"] <= 0.45,
        "fig6: send interface costs more than receive": f6["host-CAB interface (send)"]
        > f6["CAB-host interface (receive)"],
        "fig7: RMP at 8 KB between 60 and 100 Mbit/s": 60.0
        <= f7[8192]["rmp_mbps"]
        <= 100.0,
        "fig7: RMP > TCP at 8 KB (software checksum)": f7[8192]["tcp_mbps"]
        < 0.65 * f7[8192]["rmp_mbps"],
        "fig7: TCP without checksum almost as fast as RMP": f7[8192][
            "tcp_nochecksum_mbps"
        ]
        >= 0.8 * f7[8192]["rmp_mbps"]
        and f7[8192]["tcp_nochecksum_mbps"] > 1.5 * f7[8192]["tcp_mbps"],
        "fig7: checksumming TCP is CPU-bound, RMP wire-bound": f7[8192]["tcp_cpu_util"]
        > 0.9
        and f7[8192]["rmp_cpu_util"] < 0.3,
        "fig8: both curves plateau under the VME bus": 20.0
        <= f8[8192]["rmp_mbps"]
        <= 30.5
        and 18.0 <= f8[8192]["tcp_mbps"] <= 30.5,
        "fig8: flat by 2 KB": f8[2048]["rmp_mbps"] >= 0.85 * f8[8192]["rmp_mbps"],
        "fig8: netdev < Ethernet < 12 Mbit/s": base["netdev_mbps"]
        < base["ethernet_mbps"]
        < 12.0,
        "fig8: offloaded RMP > 3x netdev": f8[8192]["rmp_mbps"]
        > 3.0 * base["netdev_mbps"],
        "fig8: netdev and Ethernet within 40% of 6.4/7.2": 0.6 * fig8.PAPER_NETDEV
        <= base["netdev_mbps"]
        <= 1.4 * fig8.PAPER_NETDEV
        and 0.6 * fig8.PAPER_ETHERNET
        <= base["ethernet_mbps"]
        <= 1.4 * fig8.PAPER_ETHERNET,
        "micro: context switch ~20 us": abs(micro["context_switch_us"] - 20.0) < 1.0,
        "micro: HUB setup 700 ns": micro["hub_setup_ns"] == 700,
        "micro: link latency under 5 us": micro["link_one_byte_us"] < 5.0,
        "micro: host RPC under 500 us": micro["rpc_rtt_us"] < 500.0,
        "ablation: upcall saves two context switches": abl["upcall"][
            "upcall_advantage_us"
        ]
        >= 20.0,
        "ablation: shared-memory mailbox 1.5-4x faster than RPC": 1.5
        <= abl["mailbox"]["speedup"]
        <= 4.0,
        "ablation: thread IP input costs 0-200 us": 0
        < abl["ip_input"]["thread_penalty_us"]
        < 200.0,
        "ablation: throughput rises with VME bandwidth": vme == sorted(vme)
        and abl["vme"]["bus_60_mbps"] > 1.5 * abl["vme"]["bus_30_mbps"]
        and 25.0 <= abl["vme"]["bus_30_mbps"] <= 30.5,
        "ablation: throughput falls with checksum cost": cksum
        == sorted(cksum, reverse=True)
        and abl["checksum"]["cost_0_ns_per_byte"]
        > 2.0 * abl["checksum"]["cost_150_ns_per_byte"],
    }
    for attr in ("rmp_mbps", "tcp_mbps", "tcp_nochecksum_mbps"):
        values = [row[attr] for row in f7rows]
        checks[f"fig7: {attr} rises with message size"] = values == sorted(values)
    for small in (16, 32, 64, 128):
        checks[f"fig7: RMP doubles from {small} to {2 * small} B"] = (
            f7[2 * small]["rmp_mbps"] >= 1.6 * f7[small]["rmp_mbps"]
        )
    return checks


class PaperSweep(_Workload):
    """Every table and figure driver once, at its committed defaults."""

    name = "paper_sweep"
    why = (
        "every table/figure driver at committed defaults: ~65 short simulations "
        "incl. construction, the traffic tier-1 and bench --check-all really serve"
    )

    def build(self, seed: int, scale: int = 1) -> dict:
        # Deterministic by design: the seed has no input here.  --quick
        # runs only the cells with a paper number.
        return {"quick": scale > 1, "results": {}}

    def run(self, rig: dict) -> None:
        if rig["quick"]:
            rig["results"] = paper_cells()
        else:
            for name, driver in _DRIVERS.items():
                rig["results"][name] = driver.scenario()

    def outcome(self, rig: dict) -> Outcome:
        results = rig["results"]
        # The shape predicates need the whole size sweeps and the ablations.
        checks = {} if rig["quick"] else _shape_predicates(results)
        points = paper_points(results)
        digest = _digest({name: [res.rows, res.extras] for name, res in results.items()})
        return Outcome(
            ops=len(checks) + len(points),
            failures=[name for name, ok in checks.items() if not ok],
            fingerprint=(0, 0, 0, digest),
            counters={
                "paper_err_pct": paper_err_pct(results),
                "model.rtt_us": points["table1.host_datagram_us"][0],
                "model.goodput_mbps": points["fig7.rmp_8k_mbps"][0],
            },
        )


# --------------------------------------------------------------------- fleets

_FLEET = dict(n_hubs=4, cabs_per_hub=16, hub_ports=18)


def _flow_failures(spec: WorkloadSpec, fleet, flows: dict, incomplete) -> List[str]:
    """One entry per fleet flow that is incomplete or short of its bytes."""
    failures = [f"flow {name} incomplete" for name in incomplete]
    for flow in spec.flows(fleet):
        want = flow.size * (1 if flow.kind == "tcp" else flow.messages)
        names = (
            [f"{flow.name}@{member}" for member in flow.members]
            if flow.members
            else [flow.name]
        )
        for name in names:
            record = flows.get(name)
            if record is not None and record["bytes"] != want:
                failures.append(f"flow {name}: {record['bytes']} of {want} bytes")
    return failures


def _fleet_ops(spec: WorkloadSpec, fleet) -> int:
    return sum(max(1, len(flow.members)) for flow in spec.flows(fleet))


class _FleetWorkload(_Workload):
    """The seeded flow mix both fleet workloads scale and expand."""

    mix: Dict[str, int] = {}

    def spec(self, seed: int, scale: int) -> WorkloadSpec:
        mix = dict(self.mix)
        for key in ("rmp_messages", "rpc_calls", "mcast_messages"):
            mix[key] = max(1, mix[key] // scale)
        return WorkloadSpec(seed=seed, **mix)


class FleetRef(_FleetWorkload):
    """The 4-HUB / 64-CAB fleet in one simulator."""

    name = "fleet_ref"
    why = (
        "64-CAB 4-HUB fleet in one simulator, seeded flow mix from t=0: deep "
        "event heap, multi-HUB routing, groups; the memory workload"
    )
    # No barrier flows: the NIC-resident barrier hangs on some seeds under
    # this load (seeds 8 and 11 with one 5-member group: round 3 never
    # releases), and a workload must be one on which no operation fails.
    mix = dict(
        rmp_flows=32, rpc_flows=24, tcp_flows=8, rmp_messages=25, rpc_calls=20,
        tcp_bytes=8192, mcast_flows=2, mcast_messages=20,
    )

    def build(self, seed: int, scale: int = 1) -> dict:
        fleet = line_fleet(**_FLEET)
        spec = self.spec(seed, scale)
        # run_reference() taken apart, so construction stays out of the
        # timed region and the system's counters stay readable afterwards.
        system = build_fleet_system(fleet)
        load = FleetWorkload(spec, fleet)
        load.install(system)
        return {"fleet": fleet, "spec": spec, "system": system, "load": load}

    def enable_telemetry(self, rig: dict) -> bool:
        rig["system"].enable_telemetry()
        return True

    def run(self, rig: dict) -> None:
        rig["system"].run()

    def outcome(self, rig: dict) -> Outcome:
        system, load = rig["system"], rig["load"]
        results = load.results(system)
        incomplete = sorted(load.incomplete(system))
        counters = _system_counters(system)
        failures = _leaks(counters) + _flow_failures(
            rig["spec"], rig["fleet"], results["flows"], incomplete
        )
        delivered = sum(rec["bytes"] for rec in results["flows"].values())
        counters["model.goodput_mbps"] = throughput_mbps(delivered, max(1, system.now))
        digest = _digest({**results, "incomplete": incomplete})
        return Outcome(
            ops=_fleet_ops(rig["spec"], rig["fleet"]) + 1,  # + the buffer balance
            failures=failures,
            fingerprint=(counters["sim.events"], system.now, delivered, digest),
            counters=counters,
        )


class FleetSharded(_FleetWorkload):
    """The same fleet split over two worker processes."""

    name = "fleet_sharded"
    why = (
        "same fleet under Conductor(n_workers=2, mode=process): windowed "
        "run(until) and the cluster seam, where the conductor mostly waits"
    )
    mix = dict(
        rmp_flows=32, rpc_flows=24, tcp_flows=8, rmp_messages=5, rpc_calls=4,
        tcp_bytes=8192, mcast_flows=2, mcast_messages=10,
    )
    mode = "process"

    def inline(self) -> "FleetSharded":
        """The same shards driven in this process, so a tracer can see them."""
        twin = FleetSharded()
        twin.mode = "inline"
        return twin

    def build(self, seed: int, scale: int = 1) -> dict:
        fleet = line_fleet(**_FLEET)
        spec = self.spec(seed, scale)
        conductor = Conductor(fleet, spec, n_workers=2, mode=self.mode)
        return {"fleet": fleet, "spec": spec, "conductor": conductor}

    def run(self, rig: dict) -> None:
        # Shard construction happens inside the worker processes, so it
        # cannot be kept out of this timed region.
        rig["result"] = rig["conductor"].run()

    def outcome(self, rig: dict) -> Outcome:
        result = rig["result"]
        failures = _flow_failures(
            rig["spec"], rig["fleet"], result.flows, result.incomplete
        )
        delivered = sum(rec["bytes"] for rec in result.flows.values())
        counters = {
            "sim.events": result.events,
            "model.sim_ns": result.sim_ns,
            "model.goodput_mbps": throughput_mbps(delivered, max(1, result.sim_ns)),
            "protocols.retransmits": sum(
                rec["rmp_retransmits"] + rec["rpc_retries"] + rec["tcp_retransmits"]
                + rec["nmp_repairs"]
                for rec in result.retransmits.values()
            ),
            "cluster.barriers": result.barriers,
            "cluster.epochs": result.epochs,
            "cluster.handoffs": result.handoffs,
            "cluster.null_elided": result.null_elided,
            "cluster.ring_bytes": result.ring_bytes,
            "cluster.pickle_bytes": result.pickle_bytes,
        }
        return Outcome(
            ops=_fleet_ops(rig["spec"], rig["fleet"]),
            failures=failures,
            fingerprint=(
                result.events,
                result.sim_ns,
                delivered,
                _digest(result.protocol_digest()),
            ),
            counters=counters,
        )

    def cross_check(self, seed: int, scale: int, outcome: Outcome) -> List[str]:
        """Parity: an untimed ``run_reference`` on the same spec must give
        the same protocol digest.  Runs the whole fleet in this process, so
        the harness calls it once, after it has sampled peak RSS."""
        _forget_earlier_builds()
        start = time.perf_counter()
        reference = run_reference(line_fleet(**_FLEET), self.spec(seed, scale))
        self.reference_wall_s = time.perf_counter() - start
        if _digest(reference.protocol_digest()) != outcome.fingerprint[3]:
            return ["sharded protocol digest differs from run_reference"]
        return []


WORKLOADS = {
    w.name: w
    for w in (CabSmall(), CabBulkTcp(), HostRpc(), PaperSweep(), FleetRef(), FleetSharded())
}
