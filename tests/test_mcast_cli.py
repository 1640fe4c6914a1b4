"""The ``mcast`` kind through ``python -m repro bench`` and its
BENCH_mcast.json contract."""

import copy
import json

import pytest

from repro.cluster.mcast import run_barrier_leg, run_fanout_leg, run_mcast_bench
from repro.protocols.nectar.collective import tree_depth
from repro.scenario import cli as bench_cli
from repro.scenario.gate import diff_reports
from repro.scenario.model import repo_root
from repro.scenario.report import render_json
from repro.scenario.runner import KINDS, violations

SMALL = dict(seed=0, messages=2, rounds=1, workers=[1, 2], mode="inline")
BASELINE = repo_root() / "BENCH_mcast.json"


class TestBenchReport:
    def test_deterministic_section_is_byte_stable(self):
        first = run_mcast_bench(**SMALL)
        second = run_mcast_bench(**SMALL)
        stable = lambda report: json.dumps(
            {"config": report["config"], "deterministic": report["deterministic"]},
            sort_keys=True,
        )
        assert stable(first) == stable(second)
        # No host clock reaches the report at all.
        assert set(first) == {"bench", "config", "deterministic"}
        assert render_json(first).endswith("\n")

    def test_fanout_leg_beats_unicast_and_leaks_nothing(self):
        leg = run_fanout_leg(messages=2)
        assert leg["incomplete"] == []
        assert leg["live_buffers"] == 0
        assert leg["mcast_crossings"] < leg["unicast_equivalent_crossings"]
        assert leg["crossing_ratio"] <= 1.0 / leg["members"] + 1e-9

    def test_barrier_leg_round_count_is_logarithmic(self):
        leg = run_barrier_leg(rounds=2)
        assert leg["incomplete"] == []
        assert leg["tree_depth"] == tree_depth(leg["members"])
        assert leg["barriers_completed"] == leg["members"] * 2
        assert leg["arrivals"] == (leg["members"] - 1) * 2


class TestCheckGate:
    """The mcast checker's historical cases, as verdicts of the one differ
    (``tests/test_gate.py`` runs the general form over every baseline)."""

    @pytest.fixture(scope="class")
    def fresh(self):
        return json.loads(render_json(run_mcast_bench(**SMALL)))

    def test_identical_reports_pass(self, fresh):
        assert diff_reports(copy.deepcopy(fresh), fresh) == []
        assert violations(KINDS["mcast"], fresh["deterministic"], "d") == []

    def test_parity_break_is_caught(self, fresh):
        broken = copy.deepcopy(fresh)
        broken["deterministic"]["parity"]["verdict"] = False
        assert diff_reports(fresh, broken) == [
            "deterministic.parity.verdict: True -> False"
        ]
        assert violations(KINDS["mcast"], broken["deterministic"], "deterministic") == [
            "deterministic.parity.verdict: False must be == True "
            "(sharded runs diverged from the reference)"
        ]

    def test_crossing_ratio_regression_is_caught(self, fresh):
        regressed = copy.deepcopy(fresh)
        regressed["deterministic"]["fanout"]["crossing_ratio"] = 1.0
        assert diff_reports(fresh, regressed) == [
            "deterministic.fanout.crossing_ratio: 0.125 -> 1.0 (+0.875)"
        ]

    def test_counter_drift_is_caught(self, fresh):
        committed = copy.deepcopy(fresh)
        committed["deterministic"]["barrier"]["arrivals"] += 1
        assert diff_reports(committed, fresh) == [
            "deterministic.barrier.arrivals: 64 -> 63 (-1)"
        ]

    def test_config_mismatch_is_its_own_error(self, fresh):
        committed = copy.deepcopy(fresh)
        committed["config"]["seed"] += 1
        assert diff_reports(committed, fresh) == ["config.seed: 1 -> 0 (-1)"]

    def test_committed_baseline_holds_via_cli_subprocess(self, check_all_run):
        """Tier-1 tripwire: the tree must hold BENCH_mcast.json's
        deterministic section, end to end through ``python -m repro``."""
        assert "mcast        OK: BENCH_mcast.json" in check_all_run.stdout


class TestMcastCLI:
    """What the deleted ``mcast`` flags reached, reached through ``bench``."""

    ARGS = ["mcast", "messages=2", "rounds=1", "mode=inline"]

    def test_default_inline_run_exits_zero(self, capsys):
        assert bench_cli.main(self.ARGS + ["workers=1,2"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["config"]["mode"] == "inline"
        assert set(report["deterministic"]) == {"fanout", "barrier", "parity"}
        assert report["deterministic"]["parity"]["verdict"] is True

    def test_json_flag_writes_canonical_report(self, tmp_path, capsys):
        target = tmp_path / "mcast.json"
        assert bench_cli.main(self.ARGS + ["workers=1", "--json", str(target)]) == 0
        report = json.loads(target.read_text())
        assert report["bench"] == "mcast"
        assert report["config"]["workers"] == [1]
        assert target.read_text() == render_json(report)
        assert "wrote" in capsys.readouterr().out


class TestCommittedBaseline:
    def test_bench_mcast_json_exists_and_parses(self):
        path = BASELINE
        report = json.loads(path.read_text())
        assert report["bench"] == "mcast"
        assert report["deterministic"]["parity"]["verdict"] is True
        # The committed file is in canonical serialization.
        assert path.read_text() == render_json(report)

    def test_committed_baseline_pins_the_fanout_win(self):
        """The acceptance numbers of the multicast tentpole: an 8-member
        group behind a shared subtree costs 1/8th the inter-HUB frames of
        unicast, the 64-CAB barrier tree is depth 6, and nothing leaks."""
        report = json.loads(BASELINE.read_text())
        fanout = report["deterministic"]["fanout"]
        assert fanout["members"] == 8
        assert fanout["crossing_ratio"] == 0.125
        assert fanout["incomplete"] == []
        assert fanout["live_buffers"] == 0
        barrier = report["deterministic"]["barrier"]
        assert barrier["members"] == 64
        assert barrier["tree_depth"] == 6
        assert barrier["live_buffers"] == 0
