"""Smoke tests for the experiment drivers (tiny parameters).

The full-size runs are the gated paper scenarios (``bench --check-all``
against ``BENCH_table1.json`` ...); these keep the driver code covered by
the plain test suite at a fraction of the cost.
"""

import pytest

from repro.bench import fig6, fig7, fig8, microcosts, table1
from repro.bench.harness import format_table


def test_format_table_alignment():
    text = format_table("T", ["col", "x"], [("a", 1), ("bbbb", 22)])
    lines = text.splitlines()
    assert lines[0] == "T"
    assert "col" in lines[2]
    # All rows equally wide (trailing alignment).
    widths = {len(line) for line in lines[2:]}
    assert len(widths) <= 2  # header/sep/rows may differ by trailing spaces

    empty = format_table("E", ["a", "b"], [])
    assert "E" in empty


def test_table1_small_run():
    rows = table1.run(message_size=32, rounds=8, warmup=2)
    assert len(rows) == 4
    assert {row.protocol for row in rows} == {
        "datagram",
        "rmp",
        "request-response",
        "udp",
    }
    assert all(row.cab_rtt_us < row.host_rtt_us for row in rows)
    assert "Table 1" in table1.render(rows)


def test_fig6_small_run():
    breakdown = fig6.run(message_size=32)
    shares = fig6.shares(breakdown)
    assert abs(sum(shares.values()) - 1.0) < 0.01
    components = [
        "host message creation",
        "host-CAB interface (send)",
        "CAB-to-CAB (protocols + wire)",
        "CAB-host interface (receive)",
        "host message read",
    ]
    total = sum(breakdown[name] for name in components)
    assert abs(total - breakdown["total one-way"]) < 0.5  # us


def test_fig7_small_run():
    rows = fig7.run(sizes=(256, 2048), count=8)
    assert len(rows) == 2
    assert rows[1].rmp_mbps > rows[0].rmp_mbps
    assert "Figure 7" in fig7.render(rows)


def test_fig8_small_run():
    rows = fig8.run(sizes=(512, 4096), count=8)
    baselines = fig8.run_baselines(message_size=2048, count=6)
    assert rows[1].rmp_mbps <= 30.5
    assert baselines["netdev_mbps"] < baselines["ethernet_mbps"]
    assert "Figure 8" in fig8.render(rows, baselines)


def test_microcosts_values():
    results = microcosts.run()
    assert results["hub_setup_ns"] == 700
    assert results["context_switch_us"] == 20.0
