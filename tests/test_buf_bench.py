"""The ``buf`` kind and its BENCH_buf.json contract.

The committed baseline is the tier-1 tripwire for host-copy regressions:
a change that re-introduces payload materialization on the data path moves
``host.memcpy_bytes`` on rmp-stream off the committed counters, and
``python -m repro bench buf --check`` names the key that moved.
"""

import json

import pytest

from repro.buf.bench import (
    RMP_STREAM_CEILING_BYTES,
    RMP_STREAM_PRE_REFACTOR,
    run_buf_bench,
)
from repro.scenario.gate import diff_reports
from repro.scenario.model import repo_root
from repro.scenario.report import render_json
from repro.scenario.runner import KINDS, violations
from tests.conftest import run_cli

BASELINE = repo_root() / "BENCH_buf.json"


@pytest.fixture(scope="module")
def report():
    return run_buf_bench()


class TestBenchReport:
    def test_deterministic_section_is_byte_stable(self, report):
        again = run_buf_bench()
        stable = lambda rep: json.dumps(
            {"config": rep["config"], "deterministic": rep["deterministic"]},
            sort_keys=True,
        )
        assert stable(report) == stable(again)
        # No host clock reaches the report at all.
        assert set(report) == {"bench", "config", "deterministic"}

    def test_microbench_counters_are_a_pure_function_of_the_sequence(self, report):
        micro = report["deterministic"]["microbench"]
        rounds = report["config"]["micro_rounds"]
        # Per round: one fill (payload), one prepend (headroom), one
        # tobytes of the 256-byte slice — and nothing else copies.
        payload = report["config"]["micro_payload_bytes"]
        headroom = report["config"]["micro_headroom"]
        assert micro["memcpy_calls"] == 3 * rounds
        assert micro["memcpy_bytes"] == rounds * (payload + headroom + 256)
        assert micro["buffers_allocated"] == rounds
        assert micro["buffers_freed"] == rounds

    def test_rmp_stream_holds_the_50_percent_reduction(self, report):
        counters = report["deterministic"]["rmp_stream"]
        assert counters["memcpy_bytes"] <= RMP_STREAM_CEILING_BYTES
        assert RMP_STREAM_CEILING_BYTES * 2 == RMP_STREAM_PRE_REFACTOR["memcpy_bytes"]
        assert counters["memcpy_calls"] < RMP_STREAM_PRE_REFACTOR["memcpy_calls"]
        assert counters["buffers_allocated"] == counters["buffers_freed"]

    def test_render_is_canonical(self, report):
        assert render_json(report) == render_json(report)
        assert render_json(report).endswith("\n")


def buf_violations(report):
    return violations(KINDS["buf"], report["deterministic"], "deterministic")


class TestCheck:
    """The buf checker's historical cases, as verdicts of the one differ
    and the kind's invariants."""

    def committed(self):
        return json.loads(BASELINE.read_text())

    def test_fresh_tree_passes_the_committed_baseline(self, report):
        fresh = json.loads(render_json(report))
        assert diff_reports(self.committed(), fresh) == []
        assert buf_violations(fresh) == []

    def test_copy_regression_is_caught(self, report):
        regressed = json.loads(render_json(report))
        regressed["deterministic"]["rmp_stream"]["memcpy_bytes"] += 1
        assert diff_reports(self.committed(), regressed) == [
            "deterministic.rmp_stream.memcpy_bytes: 16416 -> 16417 (+1)"
        ]
        regressed["deterministic"]["rmp_stream"]["memcpy_bytes"] = 30000
        assert buf_violations(regressed) == [
            "deterministic.rmp_stream.memcpy_bytes: 30000 must be <= 22368 "
            "(half the pre-refactor host copy bytes)"
        ]

    def test_buffer_leak_is_caught(self, report):
        leaky = json.loads(render_json(report))
        counters = leaky["deterministic"]["rmp_stream"]
        counters["buffers_freed"] -= 1
        allocated = counters["buffers_allocated"]
        assert buf_violations(leaky) == [
            f"deterministic.rmp_stream.buffers_allocated: {allocated} must "
            f"be == {allocated - 1} (leaked buffers)"
        ]

    def test_counter_drift_is_caught(self, report):
        drifted = json.loads(render_json(report))
        drifted["deterministic"]["microbench"]["memcpy_calls"] += 1
        assert diff_reports(self.committed(), drifted) == [
            "deterministic.microbench.memcpy_calls: 768 -> 769 (+1)"
        ]


class TestCommittedBaseline:
    def test_bench_buf_json_exists_and_parses(self):
        committed = json.loads(BASELINE.read_text())
        assert committed["bench"] == "buf"
        assert (
            committed["deterministic"]["rmp_stream_pre_refactor"]
            == RMP_STREAM_PRE_REFACTOR
        )
        # The committed file is in canonical serialization.
        assert BASELINE.read_text() == render_json(committed)


class TestCLI:
    def test_check_gate_passes_on_the_shipped_tree(self, check_all_run):
        assert "buf          OK: BENCH_buf.json" in check_all_run.stdout

    def test_unknown_subcommand_rejected(self):
        assert run_cli("bench", "nope").returncode == 2
