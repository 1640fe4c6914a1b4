"""The ``scale`` kind through ``python -m repro bench`` and its
BENCH_scale.json contract."""

import copy
import json

import pytest

from repro.cluster.bench import run_scale_bench
from repro.cluster.fleet import line_fleet
from repro.cluster.workload import WorkloadSpec
from repro.scenario import cli as bench_cli
from repro.scenario.gate import diff_reports
from repro.scenario.model import repo_root
from repro.scenario.report import render_json
from repro.scenario.runner import KINDS, violations

FLEET = line_fleet(3, 2, hub_ports=8)
LOAD = WorkloadSpec(seed=4, rmp_flows=2, rpc_flows=1, tcp_flows=1, tcp_bytes=1024)
BASELINE = repo_root() / "BENCH_scale.json"


def bench_small(*extra):
    """``bench scale`` on a non-default 3-HUB / 6-CAB fleet, inline."""
    return bench_cli.main(
        ["scale", "hubs=3", "cabs_per_hub=2", "hub_ports=8", "mode=inline", *extra]
    )


class TestBenchReport:
    def test_deterministic_section_is_byte_stable(self):
        first = run_scale_bench(FLEET, LOAD, workers=[1, 2], mode="inline")
        second = run_scale_bench(FLEET, LOAD, workers=[1, 2], mode="inline")
        stable = lambda report: json.dumps(
            {"config": report["config"], "deterministic": report["deterministic"]},
            sort_keys=True,
        )
        assert stable(first) == stable(second)
        # No host clock reaches the report at all.
        assert set(first) == {"bench", "config", "deterministic"}

    def test_report_records_parity_per_worker_count(self):
        report = run_scale_bench(FLEET, LOAD, workers=[1, 2], mode="inline")
        assert report["deterministic"]["parity"] is True
        assert set(report["deterministic"]["workers"]) == {"1", "2"}

    def test_worker_sections_carry_epoch_and_ring_fields(self):
        report = run_scale_bench(FLEET, LOAD, workers=[2], mode="inline")
        worker = report["deterministic"]["workers"]["2"]
        for key in (
            "events", "sim_ns", "barriers", "epochs", "null_elided",
            "fastpath", "handoffs", "ring_bytes", "pickle_bytes",
        ):
            assert key in worker, key
        assert worker["epochs"] + worker["null_elided"] == 2 * worker["barriers"]

    def test_skip_reference_drops_the_serial_leg(self):
        report = run_scale_bench(
            FLEET, LOAD, workers=[2], mode="inline", skip_reference=True
        )
        assert report["deterministic"]["parity"] is None
        assert report["deterministic"]["reference"] is None
        assert report["deterministic"]["workers"]["2"]["events"] > 0
        # Still renders to stable bytes with the nulls in place.
        assert render_json(report) == render_json(report)

    def test_render_is_byte_stable_for_a_given_report(self):
        report = run_scale_bench(FLEET, LOAD, workers=[1], mode="inline")
        assert render_json(report) == render_json(report)
        assert render_json(report).endswith("\n")


class TestScaleCLI:
    """What the deleted ``scale`` flags reached, reached through ``bench``."""

    def test_default_run_exits_zero(self, capsys):
        assert bench_small("workers=2") == 0
        report = json.loads(capsys.readouterr().out)
        assert report["config"]["hubs"] == 3 and report["config"]["cabs"] == 6
        assert set(report["deterministic"]["workers"]) == {"2"}

    def test_parity_mode_passes(self, capsys):
        assert bench_small("workers=1,2", "seed=5") == 0
        report = json.loads(capsys.readouterr().out)
        assert report["config"]["workload"]["seed"] == 5
        assert report["deterministic"]["parity"] is True

    def test_bench_mode_writes_json(self, tmp_path, capsys):
        target = tmp_path / "scale.json"
        assert bench_small("workers=1,2", "--json", str(target)) == 0
        report = json.loads(target.read_text())
        assert report["bench"] == "scale"
        assert report["deterministic"]["parity"] is True
        assert target.read_text() == render_json(report)
        assert f"wrote {target}" in capsys.readouterr().out

    def test_bench_without_json_prints_report(self, capsys):
        assert bench_small("workers=1") == 0
        report = json.loads(capsys.readouterr().out)
        assert report["config"]["cabs"] == 6

    def test_unknown_shape_rejected(self, capsys):
        assert bench_small("shape=ring") == 2
        assert "unknown fleet shape 'ring'" in capsys.readouterr().err

    def test_skip_reference_bench_exits_zero_without_parity(self, capsys):
        assert bench_small("skip_reference=true", "workers=1,2") == 0
        report = json.loads(capsys.readouterr().out)
        assert report["deterministic"]["parity"] is None


class TestCheckGate:
    """The scale checker's historical cases, as verdicts of the one differ
    (``tests/test_gate.py`` runs the general form over every baseline)."""

    @pytest.fixture(scope="class")
    def fresh(self):
        report = run_scale_bench(FLEET, LOAD, workers=[1, 2], mode="inline")
        return json.loads(render_json(report))

    def test_identical_reports_pass(self, fresh):
        assert diff_reports(copy.deepcopy(fresh), fresh) == []
        assert violations(KINDS["scale"], fresh["deterministic"], "d") == []

    def test_barrier_regression_is_caught(self, fresh):
        committed = copy.deepcopy(fresh)
        committed["deterministic"]["workers"]["2"]["barriers"] -= 1
        now = fresh["deterministic"]["workers"]["2"]["barriers"]
        assert diff_reports(committed, fresh) == [
            f"deterministic.workers.2.barriers: {now - 1} -> {now} (+1)"
        ]

    def test_ring_spill_is_caught(self, fresh):
        spilled = copy.deepcopy(fresh)
        spilled["deterministic"]["workers"]["2"]["pickle_bytes"] += 4096
        assert diff_reports(copy.deepcopy(spilled), spilled) == []
        assert diff_reports(fresh, spilled) == [
            "deterministic.workers.2.pickle_bytes: 0 -> 4096 (+4096)"
        ]

    def test_parity_break_is_caught(self, fresh):
        broken = copy.deepcopy(fresh)
        broken["deterministic"]["parity"] = False
        assert diff_reports(fresh, broken) == [
            "deterministic.parity: True -> False"
        ]
        # ... and with no baseline at all: it is an invariant of any run.
        assert violations(KINDS["scale"], broken["deterministic"], "deterministic") == [
            "deterministic.parity: False must be != False "
            "(sharded runs diverged from the reference)"
        ]

    def test_counter_drift_is_caught(self, fresh):
        committed = copy.deepcopy(fresh)
        committed["deterministic"]["workers"]["1"]["events"] += 1
        (verdict,) = diff_reports(committed, fresh)
        assert verdict.startswith("deterministic.workers.1.events: ")
        assert verdict.endswith("(-1)")

    def test_config_mismatch_is_its_own_error(self, fresh):
        committed = copy.deepcopy(fresh)
        committed["config"]["workload"]["seed"] += 1
        committed["deterministic"]["workers"]["1"]["events"] += 1
        assert diff_reports(committed, fresh) == [
            "config.workload.seed: 5 -> 4 (-1)"
        ]

    def test_committed_baseline_holds_via_cli_subprocess(self, check_all_run):
        """Tier-1 tripwire: the tree must hold BENCH_scale.json's
        deterministic section, end to end through ``python -m repro``."""
        assert "scale        OK: BENCH_scale.json" in check_all_run.stdout

    def test_dropped_worker_row_is_a_named_failure(self):
        """The gate hole the per-kind checker had: a committed worker row
        the fresh run no longer produces used to print OK."""
        from repro.scenario import gate
        from repro.scenario.model import load_scenario_text

        text = (repo_root() / "scenarios" / "scale.toml").read_text()
        assert "workers = [1, 4]" in text
        scenario = load_scenario_text(
            text.replace("workers = [1, 4]", "workers = [1]"), "scale.toml"
        )
        result = gate.run_gate(scenario)
        assert result.errors == [
            "deterministic.workers.4: missing from the fresh report"
        ]
        assert result.verdict_lines() == [
            "FAIL: BENCH_scale.json: deterministic.workers.4: "
            "missing from the fresh report"
        ]


class TestCommittedBaseline:
    def test_bench_scale_json_exists_and_parses(self):
        path = BASELINE
        report = json.loads(path.read_text())
        assert report["bench"] == "scale"
        assert report["deterministic"]["parity"] is True
        assert set(report["deterministic"]["workers"]) == {"1", "4"}
        assert report["config"]["cabs"] == 64
        # The committed file is in canonical serialization.
        assert path.read_text() == render_json(report)

    def test_committed_baseline_pins_the_epoch_collapse(self):
        """The acceptance numbers of the adaptive-lookahead rework: a lone
        shard runs in a single epoch, and the 4-way split's hand-offs all
        ride the shared-memory rings (no pickle spill)."""
        report = json.loads(BASELINE.read_text())
        workers = report["deterministic"]["workers"]
        assert workers["1"]["barriers"] == 1
        assert workers["1"]["epochs"] == 1
        assert workers["4"]["handoffs"] > 0
        assert workers["4"]["ring_bytes"] > 0
        assert workers["4"]["pickle_bytes"] == 0
        # Far below the fixed-window scheme's sim_ns / 250 barrier count.
        assert workers["4"]["barriers"] * 10 < workers["4"]["sim_ns"] // 250
