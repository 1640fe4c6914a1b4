"""The paper's shape claims, evaluated over the committed paper baselines.

``BENCH_{table1,fig6,fig7,fig8,micro,ablations}.json`` are what
``bench --check-all`` holds the tree to; this file holds *those numbers* to
the paper — orderings, crossovers, limits and generous bands rather than
absolute values, since the substrate is a calibrated simulator and not the
authors' hardware.  Nothing is simulated here, so a ``--write`` that would
break one of the paper's claims fails loudly the moment it is committed.
"""

import json

from repro.bench import fig6, fig8
from repro.scenario.model import repo_root


def deterministic(name):
    report = json.loads((repo_root() / f"BENCH_{name}.json").read_text())
    return report["deterministic"]


def rows_by(name, key):
    return {row[key]: row for row in deterministic(name)["rows"]}


def test_table1_roundtrip_latency():
    by_protocol = rows_by("table1", "protocol")
    assert set(by_protocol) == {"datagram", "rmp", "request-response", "udp"}

    # CAB-resident round trips beat host-level ones for every protocol (the
    # host-CAB interface costs real time).
    for protocol, row in by_protocol.items():
        assert row["cab_rtt_us"] < row["host_rtt_us"], protocol

    # The datagram protocol is (essentially) the fastest transport.
    # Request-response's host path issues one host-to-CAB RPC rather than
    # separate mailbox operations, so it may tie.
    datagram = by_protocol["datagram"]
    fastest = min(row["host_rtt_us"] for row in by_protocol.values())
    assert datagram["host_rtt_us"] <= 1.1 * fastest
    assert datagram["host_rtt_us"] < by_protocol["rmp"]["host_rtt_us"]
    assert datagram["cab_rtt_us"] < by_protocol["rmp"]["cab_rtt_us"]

    # The paper's two legible numbers, within 40%.
    assert 0.6 * datagram["paper_host_us"] <= datagram["host_rtt_us"]
    assert datagram["host_rtt_us"] <= 1.4 * datagram["paper_host_us"]
    assert 0.6 * datagram["paper_cab_us"] <= datagram["cab_rtt_us"]
    assert datagram["cab_rtt_us"] <= 1.4 * datagram["paper_cab_us"]

    # The general-purpose stack costs more than the Nectar-specific one.
    assert by_protocol["udp"]["host_rtt_us"] > datagram["host_rtt_us"]
    # Sec. 6: RPC between application tasks on two hosts under 500 us.
    assert by_protocol["request-response"]["host_rtt_us"] < 500.0


def test_fig6_one_way_breakdown():
    breakdown = {row["component"]: row["us"] for row in deterministic("fig6")["rows"]}
    total = breakdown["total one-way"]
    assert 0.6 * fig6.PAPER_TOTAL_US <= total <= 1.4 * fig6.PAPER_TOTAL_US

    # Paper proportions: ~40% interface, ~40% CAB-to-CAB, ~20% host ends;
    # each share sits in a generous band around the paper's.
    shares = deterministic("fig6")["shares"]
    assert abs(sum(shares.values()) - 1.0) < 1e-3
    assert 0.15 <= shares["host-CAB interface"] <= 0.55
    assert 0.25 <= shares["CAB-to-CAB"] <= 0.55
    assert 0.10 <= shares["host create/read"] <= 0.45
    # The sending side dominates the interface cost (the CAB must be
    # interrupted and a thread scheduled; the receiver merely polls).
    assert (
        breakdown["host-CAB interface (send)"]
        > breakdown["CAB-host interface (receive)"]
    )


def test_fig7_cab_to_cab_throughput():
    by_size = rows_by("fig7", "size")
    sizes = sorted(by_size)
    assert sizes[0] == 16 and sizes[-1] == 8192

    # Throughput rises monotonically with message size for every protocol.
    for series in ("rmp_mbps", "tcp_mbps", "tcp_nochecksum_mbps"):
        values = [by_size[size][series] for size in sizes]
        assert values == sorted(values), series

    # "For small packets (up to 256 bytes), the per-packet overhead
    # dominates ... and the throughput doubles when the packet size
    # doubles."  Allow a generous 1.6x per doubling.
    for small in (16, 32, 64, 128):
        assert by_size[2 * small]["rmp_mbps"] >= 1.6 * by_size[small]["rmp_mbps"]

    top = by_size[8192]
    # RMP reaches ~90 of the 100 Mbit/s fiber at 8 KB.
    assert 60.0 <= top["rmp_mbps"] <= 100.0
    # TCP/IP sits well below RMP, "mostly due to the cost of doing TCP
    # checksums in software" ...
    assert top["tcp_mbps"] < 0.65 * top["rmp_mbps"]
    # ... and "TCP without checksums is almost as fast as RMP".
    assert top["tcp_nochecksum_mbps"] >= 0.8 * top["rmp_mbps"]
    assert top["tcp_nochecksum_mbps"] > 1.5 * top["tcp_mbps"]
    # The mechanism, in CPU terms: checksumming TCP pins the sender CPU
    # while RMP at large sizes is wire-bound.
    assert top["tcp_cpu_util"] > 0.9
    assert top["rmp_cpu_util"] < 0.3


def test_fig8_host_to_host_throughput():
    by_size = rows_by("fig8", "size")
    top_rmp = by_size[8192]["rmp_mbps"]
    top_tcp = by_size[8192]["tcp_mbps"]

    # Both protocols plateau under the ~30 Mbit/s VME bus.
    assert 20.0 <= top_rmp <= 30.5
    assert 18.0 <= top_tcp <= 30.5
    # The curves flatten earlier than Fig. 7: by 2 KB within 15% of 8 KB.
    assert by_size[2048]["rmp_mbps"] >= 0.85 * top_rmp

    # Reference lines: netdev mode below Ethernet (the on-board Ethernet
    # bypasses the VME bus), both far below the offloaded transports.
    lines = deterministic("fig8")["baselines"]
    assert lines["netdev_mbps"] < lines["ethernet_mbps"] < 12.0
    assert top_rmp > 3.0 * lines["netdev_mbps"]
    # The paper's absolute anchors, within 40%.
    assert 0.6 * fig8.PAPER_NETDEV <= lines["netdev_mbps"] <= 1.4 * fig8.PAPER_NETDEV
    assert (
        0.6 * fig8.PAPER_ETHERNET <= lines["ethernet_mbps"] <= 1.4 * fig8.PAPER_ETHERNET
    )


def test_microcosts():
    value = {q: row["value"] for q, row in rows_by("micro", "quantity").items()}
    assert abs(value["context_switch_us"] - 20.0) < 1.0  # Sec. 3.1
    assert value["hub_setup_ns"] == 700  # Sec. 2.1
    assert value["link_one_byte_us"] < 5.0  # Sec. 6.1
    assert value["rpc_rtt_us"] < 500.0  # Sec. 6


def test_ablations():
    value = {
        (row["ablation"], row["quantity"]): row["value"]
        for row in deterministic("ablations")["rows"]
    }

    # Sec. 3.3: a reader upcall saves on the order of two context switches.
    assert value["upcall", "upcall_us"] < value["upcall", "thread_us"]
    assert value["upcall", "upcall_advantage_us"] >= 20.0
    # Sec. 3.3: shared-memory mailbox ops ~2x faster than RPC-based.
    assert value["mailbox", "shared_us"] < value["mailbox", "rpc_us"]
    assert 1.5 <= value["mailbox", "speedup"] <= 4.0
    # Sec. 3.1: thread-level IP input costs context switches, not a cliff.
    assert 0 < value["ip_input", "thread_penalty_us"] < 200.0

    # Sec. 7: faster buses raise host-host throughput until the CAB side
    # binds; at 30 Mbit/s the result sits just under the bus limit.
    vme = [value["vme", f"bus_{mbps}_mbps"] for mbps in (10, 30, 60, 120)]
    assert vme == sorted(vme)
    assert vme[2] > 1.5 * vme[1]
    assert 25.0 <= vme[1] <= 30.5

    # The software checksum constant drives the Fig. 7 TCP/RMP gap.
    checksum = [
        value["checksum", f"cost_{cost}_ns_per_byte"] for cost in (0, 75, 150, 300)
    ]
    assert checksum == sorted(checksum, reverse=True)
    assert checksum[0] > 2.0 * checksum[2]
