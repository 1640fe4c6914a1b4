"""The one differ and the declared invariants, over every committed baseline.

No simulation runs here: each committed baseline stands in for its own
fresh report, one leaf is moved or one key deleted, and the gate must name
exactly that path.  This is the general form of what the per-kind checkers
used to test case by case (barrier regression, ring spill, parity break,
crossing ratio, copy regression, buffer leak, counter drift, config
mismatch): every one of them is "a leaf moved" or "an invariant broke".
"""

import copy
import json
from dataclasses import replace

import pytest

from repro.scenario.gate import diff_reports
from repro.scenario.model import repo_root
from repro.scenario.runner import KINDS, Ref, violations

JSON_GATES = sorted(
    name for name, kind in KINDS.items() if kind.baseline.endswith(".json")
)


def committed_report(name):
    return json.loads((repo_root() / KINDS[name].baseline).read_text())


def leaves(value, path):
    """Every (key-path, parent container, key) of a JSON value's leaves."""
    items = (
        value.items() if isinstance(value, dict)
        else enumerate(value) if isinstance(value, list)
        else ()
    )
    for key, child in items:
        where = f"{path}[{key}]" if isinstance(value, list) else f"{path}.{key}"
        if isinstance(child, (dict, list)) and child:
            yield from leaves(child, where)
        else:
            yield where, value, key


def copies_by_leaf(report):
    """One deep copy of ``report`` per deterministic leaf, with that leaf's
    (key-path, parent container, key) inside the copy."""
    count = len(list(leaves(report["deterministic"], "deterministic")))
    assert count > 0
    for index in range(count):
        fresh = copy.deepcopy(report)
        walk = list(leaves(fresh["deterministic"], "deterministic"))
        yield (fresh, *walk[index])


def moved(value):
    """A different value of the same JSON type."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, (int, float)):
        return value + 1
    if isinstance(value, str):
        return value + "!"
    return "moved"  # None, or an empty container


def test_there_are_twelve_gates_and_eleven_are_json():
    assert len(KINDS) == 12
    assert len(JSON_GATES) == 11
    assert KINDS["chaos"].baseline == "CHAOS_baseline.txt"


@pytest.mark.parametrize("name", JSON_GATES)
class TestDiffer:
    def test_a_baseline_matches_itself(self, name):
        report = committed_report(name)
        assert diff_reports(copy.deepcopy(report), report) == []

    def test_every_moved_leaf_is_named_alone(self, name):
        """Move each deterministic leaf in turn: one verdict, that path."""
        committed = committed_report(name)
        for fresh, where, parent, key in copies_by_leaf(committed):
            parent[key] = moved(parent[key])
            (verdict,) = diff_reports(committed, fresh)
            assert verdict.startswith(f"{where}: ") and " -> " in verdict

    def test_a_dropped_key_is_named_as_missing(self, name):
        """Delete each dict key / trailing list item of the fresh report:
        the committed key it no longer produces is a named FAIL."""
        committed = committed_report(name)
        for fresh, where, parent, key in copies_by_leaf(committed):
            if isinstance(parent, list) and key != len(parent) - 1:
                continue
            del parent[key]
            assert diff_reports(committed, fresh) == [
                f"{where}: missing from the fresh report"
            ]
            # ... and the other way round it is an extra key.
            assert diff_reports(fresh, committed) == [
                f"{where}: not in the committed baseline"
            ]

    def test_a_moved_config_is_reported_alone(self, name):
        committed = committed_report(name)
        fresh = copy.deepcopy(committed)
        fresh["config"]["added"] = 1
        _where, parent, key = next(leaves(fresh["deterministic"], "deterministic"))
        parent[key] = moved(parent[key])
        assert diff_reports(committed, fresh) == [
            "config.added: not in the committed baseline"
        ]

    def test_measured_is_never_compared(self, name):
        """Only ``config`` and ``deterministic`` are gated.  A baseline has
        no other section — no wall-clock ``measured`` block — and one added
        to a fresh report is not compared."""
        committed = committed_report(name)
        assert set(committed) <= {"bench", "scenario", "config", "deterministic"}
        fresh = copy.deepcopy(committed)
        fresh["measured"] = {"wall_ns": 1}
        assert diff_reports(committed, fresh) == []

    def test_the_committed_report_holds_its_kinds_invariants(self, name):
        deterministic = committed_report(name)["deterministic"]
        assert violations(KINDS[name], deterministic, "d") == []


class TestTextGolden:
    """A text golden is the ``deterministic.report`` leaf of the same walk."""

    def test_a_changed_line_is_named_by_number(self):
        from repro.scenario import gate

        golden = (repo_root() / "CHAOS_baseline.txt").read_text()
        lines = golden.splitlines()
        lines[3] = lines[3] + " (edited)"
        report = {
            "config": {"scenario": "", "seed": 7},
            "deterministic": {"passed": True, "report": "\n".join(lines) + "\n"},
        }
        chaos = replace(KINDS["chaos"], run=lambda params: report)
        result = gate.run_gate(chaos)
        old, new = golden.splitlines()[3], lines[3]
        assert result.errors == [
            f"deterministic.report: line 4: {old!r} -> {new!r}"
        ]
        report["deterministic"]["report"] = golden
        assert gate.run_gate(chaos).ok


class TestInvariants:
    """Every declared invariant fires, naming its path, when its leaf breaks."""

    CASES = [
        (kind.name, invariant)
        for kind in KINDS.values()
        for invariant in kind.invariants
    ]

    def test_the_four_legacy_non_baseline_checks_are_all_declared(self):
        declared = {(name, invariant.path) for name, invariant in self.CASES}
        assert declared == {
            ("scale", "parity"),
            ("scale", "recoveries"),
            ("mcast", "parity.verdict"),
            ("mcast", "parity.reference.recoveries"),
            ("chaos", "passed"),
            ("buf", "rmp_stream.memcpy_bytes"),
            ("buf", "microbench.buffers_allocated"),
            ("buf", "rmp_stream.buffers_allocated"),
            ("buf", "scale.buffers_allocated"),
        }

    @pytest.mark.parametrize(
        "kind_name, invariant", CASES, ids=[f"{n}:{i.path}" for n, i in CASES]
    )
    def test_breaking_the_leaf_fires_the_invariant(self, kind_name, invariant):
        if kind_name == "chaos":
            deterministic = {"passed": True}
        else:
            deterministic = committed_report(kind_name)["deterministic"]
        kind = KINDS[kind_name]
        assert violations(kind, deterministic, "deterministic") == []
        *parents, key = invariant.path.split(".")
        leaf = deterministic
        for parent in parents:
            leaf = leaf[parent]
        if isinstance(invariant.bound, bool):
            # "!= False" breaks at False, "== True" at anything else.
            leaf[key] = invariant.bound if invariant.op == "!=" else not invariant.bound
        else:
            leaf[key] = leaf[key] + 10**6
        (verdict,) = violations(kind, deterministic, "deterministic")
        assert verdict.startswith(f"deterministic.{invariant.path}: ")
        assert invariant.why in verdict
        del leaf[key]
        (verdict,) = violations(kind, deterministic, "deterministic")
        assert verdict == f"deterministic.{invariant.path}: missing ({invariant.why})"
