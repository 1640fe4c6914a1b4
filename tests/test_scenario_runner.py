"""Scenario execution: sweep determinism, reports, and the unified gate."""

import json

import pytest

from repro.scenario import gate as gate_mod
from repro.scenario.model import load_scenario_text
from repro.scenario.report import render_json, render_text
from repro.scenario.gate import diff_reports
from repro.scenario.runner import KINDS
from repro.scenario.sweep import run_scenario

SWEEP_TEXT = (
    '[scenario]\nname = "cap"\nkind = "load"\n\n'
    "[params]\nmessages = 4\n\n"
    "[sweep]\nusers = [1, 2]\n"
)

SINGLE_TEXT = (
    '[scenario]\nname = "one"\nkind = "load"\n\n'
    "[params]\nmessages = 4\nusers = 2\n"
)


def load(text=SWEEP_TEXT):
    return load_scenario_text(text, "inline.toml")


class TestDeterminism:
    def test_double_run_deterministic_sections_are_identical(self):
        scenario = load()
        stable = lambda report: json.dumps(
            {"config": report["config"], "deterministic": report["deterministic"]},
            sort_keys=True,
        )
        assert stable(run_scenario(scenario)) == stable(run_scenario(scenario))

    def test_double_run_text_report_is_byte_identical(self):
        scenario = load()
        first = render_text(scenario, run_scenario(scenario))
        second = render_text(scenario, run_scenario(scenario))
        assert first == second

    def test_a_report_carries_no_host_clock(self):
        report = run_scenario(load())
        assert set(report) == {"bench", "scenario", "config", "deterministic"}
        assert "wall_ns" not in json.dumps(report)


class TestReports:
    def test_sweep_report_is_a_capacity_curve(self):
        scenario = load()
        report = run_scenario(scenario)
        text = render_text(scenario, report)
        head = text.splitlines()[0]
        assert head == "capacity curve: cap (kind load, 2 points)"
        header = text.splitlines()[2]
        assert header.startswith("users")  # sweep key leads the columns
        for series in ("p50_us", "p99_us", "throughput_mbps", "sim_ns"):
            assert series in header

    def test_single_run_report_tabulates_scalars(self):
        scenario = load(SINGLE_TEXT)
        text = render_text(scenario, run_scenario(scenario))
        assert "scenario: one (kind load)" in text
        assert "p99_us" in text

    def test_render_json_is_canonical(self):
        report = run_scenario(load(SINGLE_TEXT))
        rendered = render_json(report)
        assert rendered.endswith("\n")
        assert rendered == json.dumps(report, sort_keys=True, indent=2) + "\n"


class TestGenericCheck:
    """The one differ on the assembled sweep shape."""

    def test_identical_reports_pass(self):
        fresh = json.loads(render_json(run_scenario(load())))
        assert diff_reports(json.loads(json.dumps(fresh)), fresh) == []

    def test_deterministic_divergence_is_flagged(self):
        fresh = json.loads(render_json(run_scenario(load())))
        committed = json.loads(json.dumps(fresh))
        committed["deterministic"]["points"][0]["p99_us"] += 1
        (verdict,) = diff_reports(committed, fresh)
        assert verdict.startswith("deterministic.points[0].p99_us: ")

    def test_config_change_is_flagged_as_rebaseline(self):
        fresh = json.loads(render_json(run_scenario(load())))
        committed = json.loads(json.dumps(fresh))
        committed["config"]["params"]["messages"] = 99
        assert diff_reports(committed, fresh) == [
            "config.params.messages: 99 -> 4 (-95)"
        ]


class TestGate:
    def scenario_with_baseline(self):
        return load_scenario_text(
            SWEEP_TEXT.replace(
                'kind = "load"\n', 'kind = "load"\nbaseline = "TMP_gate.json"\n'
            ),
            "inline.toml",
        )

    def test_write_then_check_round_trips(self, tmp_path, monkeypatch):
        monkeypatch.setattr(gate_mod, "repo_root", lambda: tmp_path)
        scenario = self.scenario_with_baseline()
        written = gate_mod.write_baseline(scenario)
        assert written.ok and (tmp_path / "TMP_gate.json").exists()
        result = gate_mod.run_gate(scenario)
        assert result.ok
        assert result.verdict_lines() == [
            "OK: TMP_gate.json deterministic section holds (2 sweep points)"
        ]

    def test_corrupted_baseline_fails_the_gate(self, tmp_path, monkeypatch):
        monkeypatch.setattr(gate_mod, "repo_root", lambda: tmp_path)
        scenario = self.scenario_with_baseline()
        gate_mod.write_baseline(scenario)
        path = tmp_path / "TMP_gate.json"
        committed = json.loads(path.read_text())
        committed["deterministic"]["points"][0]["events"] += 1
        path.write_text(json.dumps(committed, sort_keys=True, indent=2) + "\n")
        result = gate_mod.run_gate(scenario)
        assert not result.ok
        assert result.verdict_lines()[0].startswith("FAIL:")

    def test_missing_baseline_file_is_actionable(self, tmp_path, monkeypatch):
        monkeypatch.setattr(gate_mod, "repo_root", lambda: tmp_path)
        result = gate_mod.run_gate(self.scenario_with_baseline())
        assert not result.ok
        assert "--write" in result.errors[0]

    def test_dropped_sweep_point_is_a_named_failure(self, tmp_path, monkeypatch):
        monkeypatch.setattr(gate_mod, "repo_root", lambda: tmp_path)
        gate_mod.write_baseline(self.scenario_with_baseline())
        path = tmp_path / "TMP_gate.json"
        committed = json.loads(path.read_text())
        # The committed curve had a third point the tree no longer produces
        # (same config, so the walk reaches the deterministic section).
        committed["deterministic"]["points"].append(
            dict(committed["deterministic"]["points"][-1])
        )
        path.write_text(render_json(committed))
        result = gate_mod.run_gate(self.scenario_with_baseline())
        assert result.errors == [
            "deterministic.points[2]: missing from the fresh report"
        ]

    def test_malformed_baseline_is_that_gates_failure_not_a_crash(
        self, tmp_path, monkeypatch, capsys
    ):
        """``bench --check-all`` reports a baseline that is not JSON as
        that scenario's FAIL, keeps gating the rest, and exits 1."""
        from repro.scenario import cli, model

        scenarios = tmp_path / "scenarios"
        scenarios.mkdir()
        for name in ("a_broken", "b_sound"):
            (scenarios / f"{name}.toml").write_text(
                SINGLE_TEXT.replace('name = "one"', f'name = "{name}"').replace(
                    'kind = "load"\n', f'kind = "load"\nbaseline = "{name}.json"\n'
                )
            )
        monkeypatch.setattr(model, "repo_root", lambda: tmp_path)
        monkeypatch.setattr(gate_mod, "repo_root", lambda: tmp_path)
        assert cli.main(["b_sound", "--write"]) == 0
        (tmp_path / "a_broken.json").write_text('{\n  "bench": "load",\n  not json\n')
        capsys.readouterr()
        assert cli.main(["--check-all"]) == 1
        broken, sound, total = capsys.readouterr().out.splitlines()
        assert broken == "a_broken     FAIL: a_broken.json: not valid JSON (line 3)"
        assert sound.startswith("b_sound      OK: b_sound.json ")
        assert total == "bench --check-all: FAIL (1/2 gates)"

    def test_invariant_breaking_report_is_not_written(self, tmp_path, monkeypatch):
        from repro.scenario.model import load_scenario_text as load_text

        monkeypatch.setattr(gate_mod, "repo_root", lambda: tmp_path)
        scenario = load_text(
            '[scenario]\nname = "s"\nkind = "scale"\nbaseline = "S.json"\n', "s.toml"
        )
        broken = {"config": {}, "deterministic": {"parity": False}}
        monkeypatch.setattr(gate_mod, "run_scenario", lambda scenario: broken)
        result = gate_mod.write_baseline(scenario)
        assert not result.ok and not (tmp_path / "S.json").exists()


class TestCommittedScenarios:
    """The committed scenario set stays loadable and correctly wired."""

    def test_every_committed_scenario_validates(self):
        from repro.scenario.model import list_scenarios, load_scenario

        names = list_scenarios()
        assert {"scale", "buf", "mcast", "chaos", "observe", "load"} <= set(names)
        for name in names:
            scenario = load_scenario(name)
            assert scenario.kind in KINDS

    def test_every_kind_has_a_committed_gated_scenario(self):
        """No kind without a scenario file, no scenario file without the
        baseline it states — the file is the only declaration of either."""
        from repro.scenario.model import list_scenarios, load_scenario, repo_root

        scenarios = [load_scenario(name) for name in list_scenarios()]
        assert {scenario.kind for scenario in scenarios} == set(KINDS)
        for scenario in scenarios:
            assert scenario.baseline, scenario.name
            assert (repo_root() / scenario.baseline).is_file(), scenario.name

    def test_driver_kinds_take_their_schema_from_the_driver(self):
        from repro.bench import fig7, fig8, table1

        for module, kind in ((table1, "table1"), (fig7, "fig7"), (fig8, "fig8")):
            defaults = {
                name: spec.default for name, spec in KINDS[kind].params.items()
            }
            assert defaults == module.DEFAULTS
        assert KINDS["fig7"].params["sizes"].type == "int_list"
        assert KINDS["fig7"].params["count"].type == "int"
        assert KINDS["micro"].params == {}

    def test_legacy_gates_keep_their_baseline_files(self):
        from repro.scenario.model import load_scenario

        expected = {
            "scale": "BENCH_scale.json",
            "buf": "BENCH_buf.json",
            "mcast": "BENCH_mcast.json",
            "chaos": "CHAOS_baseline.txt",
            "observe": "BENCH_observe.json",
        }
        for name, baseline in expected.items():
            assert load_scenario(name).baseline == baseline

    def test_observe_baseline_pins_every_workloads_events_and_summary(self):
        from repro.scenario.model import repo_root
        from repro.telemetry.observe import WORKLOADS

        committed = json.loads((repo_root() / "BENCH_observe.json").read_text())
        deterministic = committed["deterministic"]
        assert sorted(deterministic["events"]) == sorted(WORKLOADS)
        assert all(events > 0 for events in deterministic["events"].values())
        summaries = deterministic["report"].split("\n\n")
        assert [text.split()[2] for text in summaries] == sorted(WORKLOADS)
        for text in summaries:
            assert "metrics_json sha256: " in text and "trace_json sha256: " in text
