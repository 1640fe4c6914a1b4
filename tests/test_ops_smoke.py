"""CI gate: the ops lab works end to end through ``bench ops``.

An unknown incident must list the whole catalogue, a single incident
must run to a passing scorecard and carry its journal in the ``--json``
report, two identical invocations must print byte-identical reports, and
the committed ``OPS_baseline.txt`` must hold — the same report-golden
discipline the chaos campaign uses.
"""

import json

from tests.conftest import REPO, run_cli

INCIDENT_NAMES = (
    "flapping-cab",
    "lossy-fiber",
    "fifo-cascade",
    "zombie-tcp",
    "rmp-fanout-loss",
    "slow-cab",
)


def run_ops(*args):
    """Invoke ``python -m repro bench ops`` in a subprocess."""
    return run_cli("bench", "ops", *args)


def test_ops_list_names_every_incident():
    result = run_ops("incident=?")
    assert result.returncode == 2
    for name in INCIDENT_NAMES:
        assert f"  {name:18s} " in result.stderr  # name + its summary


def test_single_incident_runs_to_a_passing_scorecard(tmp_path):
    target = tmp_path / "incident.json"
    result = run_ops("incident=fifo-cascade", "--json", str(target))
    assert result.returncode == 0, result.stdout + result.stderr
    assert "incident: fifo-cascade (seed 7)" in result.stdout
    assert "detection: DETECTED" in result.stdout
    assert "mitigation: VERIFIED" in result.stdout
    assert "determinism (two identical runs): OK" in result.stdout
    report = json.loads(target.read_text())
    assert report["config"] == {"incident": "fifo-cascade", "seed": 7}
    journal = report["deterministic"]["journal"]
    assert journal["meta"]["incident"] == "fifo-cascade"
    assert journal["samples"] and "events" in journal


def test_incident_reports_are_byte_identical_across_invocations():
    first = run_ops("incident=flapping-cab", "seed=7")
    second = run_ops("incident=flapping-cab", "seed=7")
    assert first.returncode == 0, first.stdout + first.stderr
    assert first.stdout == second.stdout


def test_check_matches_the_committed_golden(check_all_run):
    assert "ops          OK: OPS_baseline.txt" in check_all_run.stdout
    golden = (REPO / "OPS_baseline.txt").read_text()
    assert golden.endswith("verdict: PASS\n")


def test_ops_rejects_unknown_incident():
    result = run_ops("incident=meteor-strike")
    assert result.returncode == 2
    assert "unknown incident 'meteor-strike'" in result.stderr


def test_ops_rejects_unknown_option():
    result = run_ops("--frobnicate")
    assert result.returncode == 2
    assert "unknown option" in result.stderr


def test_main_lists_ops_in_the_unknown_subcommand_error():
    result = run_cli("bench", "no-such-thing")
    assert result.returncode == 2
    assert "ops " in result.stderr and "OPS_baseline.txt" in result.stderr
