"""Scenario execution: capacity-curve determinism, reports, and the unified gate."""

import json
from dataclasses import replace

from repro.scenario import cli
from repro.scenario import gate as gate_mod
from repro.scenario.gate import diff_reports
from repro.scenario.report import render_json, render_text
from repro.scenario.runner import KINDS, ParamSpec


def small_load(name="load", baseline="TMP_gate.json"):
    """The load kind at a two-point, four-message committed configuration."""
    kind = KINDS["load"]
    return replace(
        kind,
        name=name,
        baseline=baseline,
        params=dict(
            kind.params,
            messages=ParamSpec("int", 4),
            users=ParamSpec("int_list", [1, 2]),
        ),
    )


def run(kind=None, **params):
    kind = kind or small_load()
    return kind.run(dict(kind.defaults(), **params))


class TestDeterminism:
    def test_double_run_deterministic_sections_are_identical(self):
        stable = lambda report: json.dumps(
            {"config": report["config"], "deterministic": report["deterministic"]},
            sort_keys=True,
        )
        assert stable(run()) == stable(run())

    def test_double_run_text_report_is_byte_identical(self):
        kind = small_load()
        assert render_text(kind, run(kind)) == render_text(kind, run(kind))

    def test_a_report_carries_no_host_clock(self):
        report = run()
        assert set(report) == {"bench", "config", "deterministic"}
        assert "wall_ns" not in json.dumps(report)


class TestReports:
    def test_sweep_report_is_a_capacity_curve(self):
        kind = small_load()
        text = render_text(kind, run(kind))
        head = text.splitlines()[0]
        assert head == "capacity curve: load (2 points)"
        header = text.splitlines()[2]
        assert header.startswith("users")  # the offered load leads the columns
        for series in ("p50_us", "p99_us", "throughput_mbps", "sim_ns"):
            assert series in header

    def test_single_run_report_tabulates_scalars(self):
        """``bench load users=2`` is a one-point curve."""
        kind = small_load()
        text = render_text(kind, run(kind, users=[2]))
        assert text.splitlines()[0] == "capacity curve: load (1 points)"
        assert "p99_us" in text and len(text.splitlines()) == 5  # title, blank, header, rule, row

    def test_render_json_is_canonical(self):
        report = run(users=[2])
        rendered = render_json(report)
        assert rendered.endswith("\n")
        assert rendered == json.dumps(report, sort_keys=True, indent=2) + "\n"


class TestGenericCheck:
    """The one differ on the capacity curve's points."""

    def test_identical_reports_pass(self):
        fresh = json.loads(render_json(run()))
        assert diff_reports(json.loads(json.dumps(fresh)), fresh) == []

    def test_deterministic_divergence_is_flagged(self):
        fresh = json.loads(render_json(run()))
        committed = json.loads(json.dumps(fresh))
        committed["deterministic"]["points"][0]["p99_us"] += 1
        (verdict,) = diff_reports(committed, fresh)
        assert verdict.startswith("deterministic.points[0].p99_us: ")

    def test_config_change_is_flagged_as_rebaseline(self):
        fresh = json.loads(render_json(run()))
        committed = json.loads(json.dumps(fresh))
        committed["config"]["messages"] = 99
        assert diff_reports(committed, fresh) == ["config.messages: 99 -> 4 (-95)"]


class TestGate:
    def test_write_then_check_round_trips(self, tmp_path, monkeypatch):
        monkeypatch.setattr(gate_mod, "repo_root", lambda: tmp_path)
        kind = small_load()
        written = gate_mod.write_baseline(kind)
        assert written.ok and (tmp_path / "TMP_gate.json").exists()
        result = gate_mod.run_gate(kind)
        assert result.ok
        (line,) = result.verdict_lines()
        assert line.startswith("OK: TMP_gate.json deterministic section holds (")
        assert line.endswith(" at 2 users)")

    def test_corrupted_baseline_fails_the_gate(self, tmp_path, monkeypatch):
        monkeypatch.setattr(gate_mod, "repo_root", lambda: tmp_path)
        kind = small_load()
        gate_mod.write_baseline(kind)
        path = tmp_path / "TMP_gate.json"
        committed = json.loads(path.read_text())
        committed["deterministic"]["points"][0]["events"] += 1
        path.write_text(json.dumps(committed, sort_keys=True, indent=2) + "\n")
        result = gate_mod.run_gate(kind)
        assert not result.ok
        assert result.verdict_lines()[0].startswith("FAIL:")

    def test_missing_baseline_file_is_actionable(self, tmp_path, monkeypatch):
        monkeypatch.setattr(gate_mod, "repo_root", lambda: tmp_path)
        result = gate_mod.run_gate(small_load())
        assert not result.ok
        assert "--write" in result.errors[0]

    def test_dropped_sweep_point_is_a_named_failure(self, tmp_path, monkeypatch):
        monkeypatch.setattr(gate_mod, "repo_root", lambda: tmp_path)
        kind = small_load()
        gate_mod.write_baseline(kind)
        path = tmp_path / "TMP_gate.json"
        committed = json.loads(path.read_text())
        # The committed curve had a third point the tree no longer produces
        # (same config, so the walk reaches the deterministic section).
        committed["deterministic"]["points"].append(
            dict(committed["deterministic"]["points"][-1])
        )
        path.write_text(render_json(committed))
        assert gate_mod.run_gate(kind).errors == [
            "deterministic.points[2]: missing from the fresh report"
        ]

    def test_malformed_baseline_is_that_gates_failure_not_a_crash(
        self, tmp_path, monkeypatch, capsys
    ):
        """``bench --check-all`` reports a baseline that is not JSON as
        that kind's FAIL, keeps gating the rest, and exits 1."""
        kinds = {
            name: small_load(name, f"{name}.json") for name in ("a_broken", "b_sound")
        }
        monkeypatch.setattr(cli, "KINDS", kinds)
        monkeypatch.setattr(gate_mod, "KINDS", kinds)
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
        monkeypatch.setattr(gate_mod, "repo_root", lambda: tmp_path)
        broken = {"config": {}, "deterministic": {"parity": False}}
        kind = replace(KINDS["scale"], baseline="S.json", run=lambda params: broken)
        result = gate_mod.write_baseline(kind)
        assert not result.ok and not (tmp_path / "S.json").exists()


class TestCommittedScenarios:
    """The registry is the one declaration of every gate."""

    def test_every_committed_scenario_validates(self):
        """Each kind's committed configuration is of the types its schema states."""
        from repro.scenario.model import _check_scalar

        assert {"scale", "buf", "mcast", "chaos", "observe", "load"} <= set(KINDS)
        for name, kind in KINDS.items():
            for key, spec in kind.params.items():
                if spec.type.endswith("_list"):
                    element = spec.type[: -len("_list")]
                    assert isinstance(spec.default, list), (name, key)
                    assert all(
                        _check_scalar(element, item) for item in spec.default
                    ), (name, key)
                else:
                    assert _check_scalar(spec.type, spec.default), (name, key)

    def test_every_kind_has_a_committed_gated_scenario(self):
        from repro.scenario.model import repo_root

        assert len(KINDS) == 12
        for name, kind in KINDS.items():
            assert kind.name == name
            assert kind.baseline, name
            assert (repo_root() / kind.baseline).is_file(), name

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
        expected = {
            "scale": "BENCH_scale.json",
            "buf": "BENCH_buf.json",
            "mcast": "BENCH_mcast.json",
            "chaos": "CHAOS_baseline.txt",
            "observe": "BENCH_observe.json",
        }
        for name, baseline in expected.items():
            assert KINDS[name].baseline == baseline

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
