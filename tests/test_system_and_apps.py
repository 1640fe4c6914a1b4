"""Tests for the system builder, determinism, and measurement harnesses."""

import pytest

from repro.apps.traffic import measure_rtt, measure_throughput
from repro.errors import ConfigurationError
from repro.model.costs import CostModel
from repro.system import NectarSystem


class TestSystemBuilder:
    def test_duplicate_node_name_rejected(self):
        system = NectarSystem()
        hub = system.add_hub("hub0")
        system.add_node("n", hub, 0)
        with pytest.raises(ConfigurationError):
            system.add_node("n", hub, 1)

    def test_duplicate_attachment_rejected(self):
        system = NectarSystem()
        hub = system.add_hub("hub0")
        system.add_node("n1", hub, 0)
        from repro.errors import HubError

        with pytest.raises(HubError):
            system.add_node("n2", hub, 0)

    def test_nodes_get_distinct_identities(self):
        system = NectarSystem()
        hub = system.add_hub("hub0")
        nodes = [system.add_node(f"n{i}", hub, i) for i in range(5)]
        assert len({node.node_id for node in nodes}) == 5
        assert len({node.ip_address for node in nodes}) == 5

    def test_custom_cost_model_propagates(self):
        costs = CostModel(cab_context_switch_ns=40_000)
        system = NectarSystem(costs=costs)
        hub = system.add_hub("hub0")
        node = system.add_node("n", hub, 0)
        assert node.cab.cpu.context_switch_ns == 40_000

    def test_full_stack_is_wired(self):
        system = NectarSystem()
        hub = system.add_hub("hub0")
        node = system.add_node("n", hub, 0)
        for attr in ("datalink", "ip", "icmp", "udp", "tcp", "datagram", "rmp", "rpc"):
            assert getattr(node, attr) is not None


class TestDeterminism:
    def _measure(self):
        system = NectarSystem()
        hub = system.add_hub("hub0")
        a = system.add_node("a", hub, 0)
        b = system.add_node("b", hub, 1)
        recorder = measure_rtt(system, a, b, "datagram", rounds=10, warmup=2)
        return tuple(recorder.samples_ns), system.now

    def test_identical_runs_are_bit_identical(self):
        """The whole simulation is deterministic: same build, same numbers."""
        first = self._measure()
        second = self._measure()
        assert first == second

    def test_rtt_samples_are_steady_state(self):
        samples, _now = self._measure()
        # After warmup, every round costs exactly the same.
        assert len(set(samples)) == 1


class TestHarnesses:
    def test_latency_recorder_sample_count(self):
        system = NectarSystem()
        hub = system.add_hub("hub0")
        a = system.add_node("a", hub, 0)
        b = system.add_node("b", hub, 1)
        recorder = measure_rtt(system, a, b, "datagram", rounds=12, warmup=4)
        assert recorder.count == 8

    def test_throughput_scales_with_size(self):
        small = self._throughput(256)
        large = self._throughput(4096)
        assert large > 2 * small

    @staticmethod
    def _throughput(size):
        system = NectarSystem()
        hub = system.add_hub("hub0")
        a = system.add_node("a", hub, 0)
        b = system.add_node("b", hub, 1)
        return measure_throughput(system, a, b, "rmp", size, count=15)


class TestMainEntry:
    def test_unknown_experiment_rejected(self, capsys):
        from repro.__main__ import main

        assert main(["nonsense"]) == 2
        # A table or figure is a scenario, not a subcommand of its own.
        assert main(["micro"]) == 2
        assert "python -m repro bench micro" in capsys.readouterr().err

    def test_micro_runs(self, capsys):
        from repro.__main__ import main

        assert main(["bench", "micro"]) == 0
        out = capsys.readouterr().out
        assert "context switch" in out


class TestUtilizationAndConfig:
    def test_utilization_report(self):
        system = NectarSystem()
        hub = system.add_hub("hub0")
        a = system.add_node("a", hub, 0)
        b = system.add_node("b", hub, 1)
        assert system.utilization() == {"a": 0.0, "b": 0.0}
        measure_rtt(system, a, b, "datagram", rounds=10, warmup=2)
        util = system.utilization()
        assert 0.0 < util["a"] <= 1.0
        assert 0.0 < util["b"] <= 1.0
