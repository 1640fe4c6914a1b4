"""CI gate: ``bench chaos`` works end to end and the tree stays lint-clean.

``python -m repro bench chaos`` must exit 0 (invariants held and the run
was deterministic), two identical invocations must print byte-identical
reports, an unknown scenario name must list the catalogue, and the
fault-injection code itself must pass nectarlint.  ``bench --check-all``
compares every campaign's report with ``CHAOS_baseline.txt``.
"""

import pathlib

from repro.analysis import nectarlint
from repro.faults.catalogue import catalogue
from repro.scenario import cli as bench_cli

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
CHAOS = catalogue(7)


def run_chaos(capsys, *overrides):
    """``python -m repro bench chaos <overrides>``: (exit code, out, err)."""
    code = bench_cli.main(["chaos", *overrides])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_chaos_smoke_passes(capsys):
    code, out, err = run_chaos(capsys, "scenario=lossy-link")
    assert code == 0, out + err
    assert "verdict: PASS" in out
    assert "invariant exactly-once in-order bit-exact delivery: OK" in out
    assert "invariant determinism (two identical runs): OK" in out


def test_chaos_reports_are_byte_identical_across_invocations(capsys):
    first = run_chaos(capsys, "scenario=multicast-storm", "seed=3")
    second = run_chaos(capsys, "scenario=multicast-storm", "seed=3")
    assert first[0] == 0, first
    assert first == second


def test_chaos_list_names_every_scenario(capsys):
    """An unknown name is answered with the catalogue: every scenario, one
    a line, in sorted order."""
    code, _out, err = run_chaos(capsys, "scenario=nope")
    assert code == 2
    names = [line.split()[0] for line in err.splitlines()[1:]]
    assert names == sorted(CHAOS)


def test_chaos_list_shows_descriptions_and_default_seed(capsys):
    """The catalogue is not a bare name dump: each line carries the
    case's one-line summary, and the header names the seed the campaigns
    run at by default."""
    code, _out, err = run_chaos(capsys, "scenario=nope")
    assert code == 2
    header, *lines = err.splitlines()
    assert "seed=7" in header
    for line in lines:
        name = line.split()[0]
        assert line.endswith(CHAOS[name].summary)


def test_chaos_rejects_unknown_scenario(capsys):
    code, _out, err = run_chaos(capsys, "scenario=meteor-strike")
    assert code == 2
    assert "unknown scenario 'meteor-strike'" in err


def test_faults_package_is_lint_clean():
    findings = nectarlint.lint_paths([str(SRC / "repro" / "faults")])
    rendered = "\n".join(finding.render() for finding in findings)
    assert findings == [], f"nectarlint findings in repro.faults:\n{rendered}"
