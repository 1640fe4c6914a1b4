"""The ``python -m repro bench`` CLI: dispatch, overrides, exit codes."""

import json
import re

import pytest

import repro.__main__ as entry
from dataclasses import replace

from repro.scenario import cli as bench_cli
from repro.scenario.model import ConfigError, apply_overrides, repo_root
from repro.scenario.runner import KINDS
from tests.conftest import run_cli


class TestDispatch:
    def test_usage_block_is_generated_from_the_dispatch_tables(self):
        usage = entry.build_usage()
        assert usage in entry.__doc__
        for name in entry._SUBCOMMANDS:
            assert f"python -m repro  {name}" in usage

    def test_every_experiment_module_follows_the_driver_contract(self):
        from repro.bench import ablations, fig6, fig7, fig8, microcosts, table1

        for module in (table1, fig6, fig7, fig8, microcosts, ablations):
            assert callable(module.scenario), module.__name__
            assert isinstance(module.DEFAULTS, dict), module.__name__
            # `bench <name>` is the one way to run a driver.
            assert not hasattr(module, "main"), module.__name__

    def test_unknown_experiment_exits_2(self):
        result = run_cli("frobnicate")
        assert result.returncode == 2
        assert "unknown subcommand" in result.stderr
        assert "bench" in result.stderr  # subcommand listing

    @pytest.mark.parametrize("name", ["table1", "fig6", "fig7", "fig8", "micro", "ablations"])
    def test_a_table_or_figure_is_a_scenario_not_a_subcommand(self, name, capsys):
        assert not hasattr(entry, "_EXPERIMENTS")
        assert entry.main([name]) == 2
        assert f"python -m repro bench {name}" in capsys.readouterr().err

    def test_the_chaos_campaign_is_a_scenario_not_a_subcommand(self, capsys):
        assert "chaos" not in entry._SUBCOMMANDS
        assert entry.main(["chaos", "--smoke"]) == 2
        assert "python -m repro bench chaos" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["foo", "analyze"])
    def test_a_name_with_no_scenario_file_gets_no_bench_hint(self, name, capsys):
        assert entry.main([name]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"unknown subcommand {name!r}\n")
        assert "python -m repro bench" not in err.splitlines()[0]

    def test_the_lint_usage_row_lists_the_options_lint_accepts(self, capsys):
        from repro.analysis import nectarlint

        assert nectarlint.main([]) == 2
        accepted = set(re.findall(r"--[a-z-]+", capsys.readouterr().err))
        listed = set(re.findall(r"--[a-z-]+", entry._SUBCOMMANDS["lint"][1]))
        assert listed == accepted

    def test_no_arguments_prints_the_usage_and_exits_2(self, capsys):
        assert entry.main([]) == 2
        assert entry.build_usage() in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["scale", "mcast", "ops", "flow"])
    def test_deleted_clis_are_ordinary_unknown_subcommands(self, name, capsys):
        assert name not in entry._SUBCOMMANDS
        assert entry.main([name, "--check"]) == 2
        assert f"unknown subcommand {name!r}" in capsys.readouterr().err

    def test_driver_result_contract(self):
        from repro.bench import DriverResult, resolve_params
        from repro.bench import table1

        result = table1.scenario({"rounds": 2, "warmup": 1})
        assert isinstance(result, DriverResult)
        assert result.name == "table1"
        assert result.config["rounds"] == 2
        assert len(result.rows) == 4  # one per protocol
        assert not hasattr(result, "text")  # a driver renders nothing
        # The kind renders the rows: the table EXPERIMENTS.md shows.
        table = KINDS["table1"].render(dict(result.extras, rows=result.rows))
        assert table.startswith("| protocol | host-host | CAB-CAB |")
        with pytest.raises(KeyError):
            resolve_params({"a": 1}, {"b": 2})


class TestBenchCli:
    def test_unknown_scenario_lists_available_and_exits_2(self, capsys):
        assert bench_cli.main(["nope"]) == 2
        err = capsys.readouterr().err
        assert "unknown scenario 'nope'" in err
        assert "available scenarios:" in err
        assert "scale" in err and "load" in err

    def test_list_shows_committed_scenarios(self, capsys):
        assert bench_cli.main(["--list"]) == 0
        out = capsys.readouterr().out
        for name in ("scale", "buf", "mcast", "chaos", "observe", "load"):
            assert name in out

    def test_check_and_write_are_mutually_exclusive(self, capsys):
        assert bench_cli.main(["load", "--check", "--write"]) == 2

    def test_unknown_option_exits_2(self, capsys):
        assert bench_cli.main(["--frobnicate"]) == 2

    def test_no_arguments_prints_usage_and_exits_2(self, capsys):
        assert bench_cli.main([]) == 2
        assert "usage:" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--list", "--check-all"])
    def test_a_run_with_no_report_refuses_json(self, flag, tmp_path, capsys):
        report = tmp_path / "report.json"
        assert bench_cli.main([flag, "--json", str(report)]) == 2
        assert f"{flag} writes no report" in capsys.readouterr().err
        assert not report.exists()

    @pytest.mark.parametrize(
        "argv, extra",
        [
            (["--list", "nosuch", "--write"], "nosuch"),
            (["table1", "--list"], "table1"),
            (["--list", "--check-all"], "--check-all"),
        ],
    )
    def test_list_refuses_any_other_argument(self, argv, extra, capsys):
        assert bench_cli.main(argv) == 2
        captured = capsys.readouterr()
        assert f"--list takes no other argument; got {extra!r}" in captured.err
        assert "available scenarios:" not in captured.out

    def test_check_all_subsumes_every_legacy_gate(self, check_all_run):
        """Tier-1 tripwire: the one gate replays every committed baseline
        — the benches and the paper's tables and figures — end to end
        through ``python -m repro bench``."""
        result = check_all_run
        assert result.returncode == 0, result.stderr or result.stdout
        for baseline in (
            "BENCH_scale.json",
            "BENCH_buf.json",
            "BENCH_mcast.json",
            "CHAOS_baseline.txt",
            "BENCH_observe.json",
            "BENCH_load.json",
            "BENCH_table1.json",
            "BENCH_fig6.json",
            "BENCH_fig7.json",
            "BENCH_fig8.json",
            "BENCH_micro.json",
            "BENCH_ablations.json",
        ):
            assert f"OK: {baseline}" in result.stdout
        assert "bench --check-all: OK (12 gates)" in result.stdout


class TestOverrides:
    """``bench <scenario> key=value``: typed by the kind's ParamSpec."""

    def test_values_are_read_by_the_declared_type(self):
        scale = KINDS["scale"]
        params = apply_overrides(
            scale, ["hubs=3", "workers=1,2", "mode=inline", "skip_reference=true"]
        )
        assert params["hubs"] == 3
        assert params["workers"] == [1, 2]
        assert params["mode"] == "inline"
        assert params["skip_reference"] is True
        assert params["cabs_per_hub"] == 16  # the committed value stays
        assert apply_overrides(scale, ["workers=[4]"])["workers"] == [4]

    def test_unknown_key_names_the_known_ones(self, capsys):
        assert bench_cli.main(["scale", "frob=1"]) == 2
        err = capsys.readouterr().err
        assert "unknown key 'frob'" in err and "cabs_per_hub" in err

    def test_wrong_type_is_located_by_override_position(self):
        with pytest.raises(ConfigError) as err:
            apply_overrides(KINDS["scale"], ["seed=1", "hubs=true"])
        assert str(err.value).startswith("<command line>:2: ")
        assert "must be int" in str(err.value)
        assert bench_cli.main(["scale", "hubs=many"]) == 2
        assert bench_cli.main(["scale", "workers=1,x"]) == 2

    @pytest.mark.parametrize("flag", ["--check", "--write"])
    def test_override_with_check_or_write_is_refused(self, flag, capsys):
        assert bench_cli.main(["load", "users=3", flag]) == 2
        assert "committed configuration" in capsys.readouterr().err

    def test_parameter_the_plane_refuses_exits_2(self, capsys):
        for command, message in (
            ("scale mode=threads hubs=2 cabs_per_hub=1", "unknown conductor mode"),
            ("load messages=1", "messages=1 must exceed warmup=2"),
            ("mcast messages=0 mode=inline", "messages must be >= 1"),
            ("table1 rounds=0", "rounds=0 must exceed warmup=5"),
            ("fig7 sizes=0", "sizes=[0] must be >= 1"),
            ("fig7 count=0", "count=0"),
            ("fig8 sizes=0", "sizes=[0] must be >= 1"),
        ):
            assert bench_cli.main(command.split()) == 2, command
            assert message in capsys.readouterr().err, command


class TestInvariantExit:
    """A report that breaks its kind's invariants exits 1 on a plain run."""

    @pytest.mark.parametrize(
        "name, path, value, verdict",
        [
            ("scale", ("parity",), False, "deterministic.parity: False must be != False"),
            ("mcast", ("parity", "verdict"), False, "deterministic.parity.verdict: False must be == True"),
            ("buf", ("scale", "buffers_freed"), 0, "deterministic.scale.buffers_allocated"),
            ("buf", ("rmp_stream", "memcpy_bytes"), 30000, "must be <= 22368"),
            ("chaos", ("passed",), False, "chaos campaign verdict is FAIL"),
        ],
    )
    def test_broken_invariant_exits_1(
        self, name, path, value, verdict, monkeypatch, capsys
    ):
        kind = KINDS[name]
        if kind.baseline.endswith(".json"):
            report = json.loads((repo_root() / kind.baseline).read_text())
        else:
            report = {"deterministic": {"passed": True, "report": ""}}
        leaf = report["deterministic"]
        for key in path[:-1]:
            leaf = leaf[key]
        leaf[path[-1]] = value
        monkeypatch.setitem(KINDS, name, replace(kind, run=lambda params: report))
        assert bench_cli.main([name]) == 1
        assert verdict in capsys.readouterr().err
