"""Each chaos campaign and observe workload, run alone, reproduces its own
leaf of the committed baseline.

The chaos cases are read from the fault catalogue, so a new case gets its
own golden check without editing this file.  ``bench --check-all``
compares the joined reports of all the campaigns
(``CHAOS_baseline.txt``) and all three observe workloads
(``BENCH_observe.json``).  These cases run the same kinds one scenario at
a time — the ``scenario=`` / ``workload=`` path — and compare each report
with its own block of that baseline, so a diff names the one report that
moved.  Re-record the baselines (only when a simulated quantity moves on
purpose) with ``python -m repro bench chaos --write`` and
``python -m repro bench observe --write``.
"""

import json
import pathlib
import re

import pytest

from repro.faults.catalogue import catalogue
from repro.scenario.runner import KINDS
from repro.telemetry.observe import WORKLOADS

REPO = pathlib.Path(__file__).resolve().parent.parent
SEED = 7


def blocks(text: str, heading: str) -> dict:
    """The reports joined in ``text``, keyed by the name after ``heading``."""
    return {
        block[len(heading):].split()[0]: block
        for block in re.split(rf"\n(?={heading})", text)
    }


def committed(kind: str) -> dict:
    if kind == "chaos":
        return blocks((REPO / "CHAOS_baseline.txt").read_text(), "chaos campaign: ")
    report = json.loads((REPO / "BENCH_observe.json").read_text())["deterministic"]
    return blocks(report["report"], "observe workload: ")


CASES = [("chaos", "scenario", name) for name in sorted(catalogue(SEED))] + [
    ("observe", "workload", name) for name in sorted(WORKLOADS)
]


@pytest.mark.parametrize(
    "kind,param,name",
    CASES,
    ids=[f"{kind}_{name}_seed{SEED}.txt" for kind, _param, name in CASES],
)
def test_report_matches_committed_golden(kind, param, name):
    deterministic = KINDS[kind].run({"seed": SEED, param: name})["deterministic"]
    assert deterministic["report"] == committed(kind)[name]
    if kind == "observe":
        baseline = json.loads((REPO / "BENCH_observe.json").read_text())
        assert deterministic["events"] == {
            name: baseline["deterministic"]["events"][name]
        }
