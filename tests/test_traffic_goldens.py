"""Committed goldens for the chaos campaign and the observe workloads.

Both planes were only double-run-checked (same text twice), never compared
to a committed value, so a rewrite of their traffic loops that moved a
counter, a delivery or a nanosecond would have passed.  The goldens were
recorded on the tree *before* the workloads moved onto
:mod:`repro.apps.traffic`; re-record one (only when a simulated quantity
moves on purpose) with::

    PYTHONPATH=src python tests/test_traffic_goldens.py
"""

import hashlib
import pathlib

import pytest

from repro.faults.campaign import run_campaign
from repro.faults.scenarios import SCENARIOS
from repro.telemetry.observe import WORKLOADS, run_observe

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"
SEED = 7


def chaos_text(scenario: str) -> str:
    """The full (non-smoke) campaign report for one library scenario."""
    return run_campaign(scenario, SEED).render() + "\n"


def observe_text(workload: str) -> str:
    """The run summary plus digests of the two byte-stable artifacts."""
    result = run_observe(workload, seed=SEED)
    return result.summary() + "".join(
        f"{name} sha256: {hashlib.sha256(render().encode()).hexdigest()}\n"
        for name, render in (
            ("metrics_json", result.metrics_json),
            ("trace_json", result.trace_json),
        )
    )


CASES = [
    (f"chaos_{name}_seed{SEED}.txt", chaos_text, name) for name in sorted(SCENARIOS)
] + [
    (f"observe_{name}_seed{SEED}.txt", observe_text, name) for name in sorted(WORKLOADS)
]


@pytest.mark.parametrize("filename,render,name", CASES, ids=[c[0] for c in CASES])
def test_report_matches_committed_golden(filename, render, name):
    assert render(name) == (GOLDEN / filename).read_text()


if __name__ == "__main__":
    for filename, render, name in CASES:
        (GOLDEN / filename).write_text(render(name))
        print(f"wrote {filename}")
