"""Smoke tests for the experiment drivers (tiny parameters).

The full-size runs are the gated paper scenarios (``bench --check-all``
against ``BENCH_table1.json`` ...); these keep the driver code covered by
the plain test suite at a fraction of the cost.  Each one renders its rows
with :func:`repro.bench.experiments.render_table`, the table ``bench
<name>`` prints.
"""

import json

from repro.bench import fig6, fig7, fig8, microcosts, table1
from repro.bench.experiments import render_table


def _deterministic(result):
    return dict(result.extras, rows=result.rows)


def test_table1_small_run():
    result = table1.scenario({"message_size": 32, "rounds": 8, "warmup": 2})
    rows = result.rows
    assert len(rows) == 4
    assert {row["protocol"] for row in rows} == {
        "datagram",
        "rmp",
        "request-response",
        "udp",
    }
    assert all(row["cab_rtt_us"] < row["host_rtt_us"] for row in rows)
    table = render_table("table1", _deterministic(result))
    assert table.startswith("| protocol | host-host | CAB-CAB |")
    assert "| datagram |" in table and "| 325 | 179 |" in table


def test_fig6_small_run():
    result = fig6.scenario({"message_size": 32})
    shares = result.extras["shares"]
    assert abs(sum(shares.values()) - 1.0) < 0.01
    breakdown = {row["component"]: row["us"] for row in result.rows}
    components = [
        "host message creation",
        "host-CAB interface (send)",
        "CAB-to-CAB (protocols + wire)",
        "CAB-host interface (receive)",
        "host message read",
    ]
    total = sum(breakdown[name] for name in components)
    assert abs(total - breakdown["total one-way"]) < 0.5  # us
    # A fresh run prints what its sorted-JSON baseline would.
    deterministic = _deterministic(result)
    table = render_table("fig6", deterministic)
    assert table == render_table("fig6", json.loads(json.dumps(deterministic, sort_keys=True)))
    assert "Shares: CAB-to-CAB" in table


def test_fig7_small_run():
    result = fig7.scenario({"sizes": [256, 2048], "count": 8})
    rows = result.rows
    assert len(rows) == 2
    assert rows[1]["rmp_mbps"] > rows[0]["rmp_mbps"]
    table = render_table("fig7", _deterministic(result))
    assert table.splitlines()[0].startswith("| size (B) | RMP | TCP/IP |")
    assert len(table.splitlines()) == 4  # header, rule, one line per size


def test_fig8_small_run():
    result = fig8.scenario({"sizes": [512, 4096], "count": 8})
    rows, baselines = result.rows, result.extras["baselines"]
    assert rows[1]["rmp_mbps"] <= 30.5
    assert baselines["netdev_mbps"] < baselines["ethernet_mbps"]
    assert "Reference points: network-device mode" in render_table(
        "fig8", _deterministic(result)
    )


def test_microcosts_values():
    result = microcosts.scenario()
    values = {row["quantity"]: row["value"] for row in result.rows}
    assert values["hub_setup_ns"] == 700
    assert values["context_switch_us"] == 20.0
    assert "| thread context switch | 20.0 us |" in render_table(
        "micro", _deterministic(result)
    )
