"""Tests for the cost model, statistics helpers, units, and tracing."""

import ast
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.model.costs import CostModel, DEFAULT_COSTS
from repro.model.stats import LatencyRecorder
from repro.sim.trace import TraceRecorder, Tracer
from repro.telemetry.metrics import CounterScope
from repro.units import (
    KB,
    MB,
    mbps_to_ns_per_byte,
    ms,
    ns_to_us,
    seconds,
    throughput_mbps,
    us,
)


def literal_yields(source, filename="<source>"):
    """Line numbers of every ``yield`` of a non-zero int literal."""
    lines = []
    for node in ast.walk(ast.parse(source, filename)):
        if not isinstance(node, ast.Yield):
            continue
        value = node.value
        if isinstance(value, ast.UnaryOp) and isinstance(value.op, ast.USub):
            value = value.operand
        if isinstance(value, ast.Constant) and type(value.value) is int and value.value:
            lines.append(node.lineno)
    return lines


class TestUnits:
    def test_time_conversions(self):
        assert us(1) == 1_000
        assert ms(1) == 1_000_000
        assert seconds(1) == 1_000_000_000
        assert ns_to_us(2_500) == 2.5

    def test_sizes(self):
        assert KB == 1024
        assert MB == 1024 * 1024

    def test_bandwidth_conversions(self):
        # 100 Mbit/s == 80 ns/byte.
        assert mbps_to_ns_per_byte(100.0) == 80.0
        with pytest.raises(ValueError):
            mbps_to_ns_per_byte(0)

    def test_throughput(self):
        # 1000 bytes in 80 us at 100 Mbit/s.
        assert throughput_mbps(1000, 80_000) == 100.0
        with pytest.raises(ValueError):
            throughput_mbps(1, 0)


class TestCostModel:
    def test_paper_constants(self):
        costs = DEFAULT_COSTS
        assert costs.fiber_mbps == 100.0
        assert costs.hub_setup_ns == 700
        assert costs.cab_context_switch_ns == us(20)
        assert costs.vme_word_ns == 1000
        assert costs.vme_dma_mbps == 30.0

    def test_derived_quantities(self):
        costs = CostModel()
        assert costs.fiber_ns_per_byte == 80.0
        assert costs.fiber_tx_ns(1000) == 80_000
        assert costs.vme_pio_ns(4) == 1_000
        assert costs.vme_pio_ns(5) == 2_000
        assert abs(costs.vme_dma_ns(3750) - 1_000_000) < 100

    def test_copy_override(self):
        costs = CostModel()
        faster = costs.copy(vme_dma_mbps=120.0)
        assert faster.vme_dma_mbps == 120.0
        assert costs.vme_dma_mbps == 30.0  # original untouched
        assert faster.fiber_mbps == costs.fiber_mbps

    def test_no_delay_literal_outside_the_cost_model(self):
        """Nothing under src/repro yields a non-zero int literal: a process
        sleep and a thread compute are both a bare int yield, and each must
        charge a named cost, so scaling the cost model scales every delay."""
        root = Path(__file__).resolve().parents[1] / "src" / "repro"
        offenders = [
            f"{path.relative_to(root)}:{line}"
            for path in sorted(root.rglob("*.py"))
            for line in literal_yields(path.read_text(), str(path))
        ]
        assert offenders == []

    def test_delay_literal_guard_catches_a_planted_literal(self):
        source = (
            "def body(costs):\n"
            "    yield 500\n"
            "    yield 0\n"
            "    yield -3\n"
            "    yield True\n"
            "    yield costs.rt_lock_ns\n"
        )
        assert literal_yields(source) == [2, 4]


class TestStats:
    def test_counter(self):
        stats = CounterScope()
        stats.add("c")
        stats.add("c", 5)
        assert stats.value("c") == 6
        with pytest.raises(ValueError):
            stats.add("c", -1)
        assert stats.value("c") == 6
        stats.add("zero", 0)  # a touched counter exists, at zero
        assert stats.snapshot() == {"c": 6, "zero": 0}

    def test_registry(self):
        stats = CounterScope()
        stats.add("b")
        stats.add("a")
        stats.add("a", 2)
        assert stats.value("a") == 3
        assert stats.value("missing") == 0
        assert "missing" not in stats.snapshot()  # reading creates nothing
        assert list(stats.snapshot().items()) == [("a", 3), ("b", 1)]  # sorted

    def test_latency_recorder(self):
        recorder = LatencyRecorder()
        for sample in (1000, 2000, 3000, 4000, 5000):
            recorder.record(sample)
        assert recorder.count == 5
        assert recorder.mean_ns == 3000
        assert recorder.mean_us == 3.0
        assert recorder.min_ns == 1000
        assert recorder.max_ns == 5000
        assert recorder.percentile_ns(50) == 3000
        assert recorder.percentile_ns(100) == 5000
        assert recorder.stdev_ns() > 0

    def test_latency_recorder_empty(self):
        recorder = LatencyRecorder()
        with pytest.raises(ValueError):
            _ = recorder.mean_ns
        with pytest.raises(ValueError):
            recorder.record(-5)

    @given(st.lists(st.integers(min_value=0, max_value=10**9), min_size=1, max_size=50))
    @settings(max_examples=100, deadline=None)
    def test_percentile_bounds_property(self, samples):
        recorder = LatencyRecorder()
        for sample in samples:
            recorder.record(sample)
        assert recorder.percentile_ns(0) == min(samples)
        assert recorder.percentile_ns(100) == max(samples)
        assert min(samples) <= recorder.percentile_ns(50) <= max(samples)


class TestTracer:
    def test_disabled_by_default(self):
        tracer = Tracer(lambda: 42)
        assert not tracer.enabled
        tracer.emit("x", "y")  # no sink: no-op

    def test_recorder_collects_and_queries(self):
        clock = {"now": 0}
        tracer = Tracer(lambda: clock["now"])
        recorder = TraceRecorder()
        tracer.sink = recorder
        tracer.emit("comp-a", "start")
        clock["now"] = 5_000
        tracer.emit("comp-b", "end", detail={"k": 1})
        assert recorder.interval_ns("start", "end") == 5_000
        assert recorder.find("end").component == "comp-b"
        assert recorder.labels() == ["start", "end"]
        assert len(recorder.find_all("start")) == 1
        with pytest.raises(KeyError):
            recorder.find("missing")
        recorder.clear()
        assert recorder.events == []
