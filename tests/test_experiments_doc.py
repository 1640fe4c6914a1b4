"""EXPERIMENTS.md's numeric tables are the committed paper baselines.

Each table sits between ``<!-- bench:NAME:begin/end -->`` markers and is
rendered from ``BENCH_NAME.json`` by :mod:`repro.bench.experiments`; a
re-baselined number that the doc does not show fails here.  Re-render with
``PYTHONPATH=src python -m repro.bench.experiments``.
"""

import json
import re
import shutil

import pytest

from repro.bench.experiments import PAPER_TABLES, render_document
from repro.scenario.model import repo_root
from repro.scenario.report import render_text
from repro.scenario.runner import KINDS

DOC = repo_root() / "EXPERIMENTS.md"


def test_every_paper_baseline_has_its_table():
    text = DOC.read_text(encoding="utf-8")
    for name in PAPER_TABLES:
        assert text.count(f"<!-- bench:{name}:begin -->") == 1, name
        assert text.count(f"<!-- bench:{name}:end -->") == 1, name


def test_the_tables_match_the_committed_baselines():
    text = DOC.read_text(encoding="utf-8")
    assert render_document(text, repo_root()) == text, (
        "EXPERIMENTS.md drifted from BENCH_*.json; re-render with "
        "`PYTHONPATH=src python -m repro.bench.experiments`"
    )


def test_a_moved_baseline_number_shows_as_drift(tmp_path):
    for name in PAPER_TABLES:
        shutil.copy(repo_root() / f"BENCH_{name}.json", tmp_path)
    moved = tmp_path / "BENCH_fig7.json"
    report = json.loads(moved.read_text(encoding="utf-8"))
    report["deterministic"]["rows"][0]["tcp_mbps"] = 1.12
    moved.write_text(json.dumps(report), encoding="utf-8")
    text = DOC.read_text(encoding="utf-8")
    rendered = render_document(text, tmp_path)
    assert rendered != text
    assert "| 16 | 0.92 | 1.12 |" in rendered


@pytest.mark.parametrize("name", PAPER_TABLES)
def test_a_paper_kind_prints_its_experiments_block(name):
    """``bench <name>`` prints exactly the doc's table: the committed
    report, rendered as the CLI renders a fresh one, is the block."""
    text = DOC.read_text(encoding="utf-8")
    block = re.search(
        f"<!-- bench:{name}:begin -->\n(.*?)<!-- bench:{name}:end -->", text, re.DOTALL
    ).group(1)
    report = json.loads((repo_root() / f"BENCH_{name}.json").read_text(encoding="utf-8"))
    assert render_text(KINDS[name], report) == block
