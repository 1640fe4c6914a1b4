"""Smoke test of the performance ledger: ``pytest perf/`` (about 20 s).

Outside ``testpaths``, so tier-1 never collects it.  Runs the whole ledger
at ``--quick`` size and checks that every metric BENCHMARK.json names comes
back, finite, for every workload, with every output check passing.
"""

import json
import math
import os
import subprocess
import sys

PERF_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(PERF_DIR)


def test_quick_ledger_reports_every_named_metric(tmp_path):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        contract = json.load(handle)
    out = tmp_path / "ledger.json"
    done = subprocess.run(
        [sys.executable, os.path.join(PERF_DIR, "run.py"), "--quick", "--json", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    ledger = json.loads(out.read_text())
    for key in ("nproc", "python", "commit", "seed", "loadavg_1m"):
        assert key in ledger["env"]
    assert sorted(ledger["workloads"]) == sorted(w["name"] for w in contract["workloads"])
    for name, entry in ledger["workloads"].items():
        assert entry["correct"] and entry["failed_ops"] == 0, (name, entry["failures"])
        assert entry["ops"] > 0
        for section in ("end_to_end", "per_layer"):
            for spec in contract[section]:
                metric = entry[section][spec["name"]]
                assert metric["unit"] == spec["unit"], (name, spec["name"])
                assert math.isfinite(metric["value"]), (name, spec["name"])
        for metric in ("wall_s", "cpu_s", "peak_rss_mb", "setup_s", "paper_err_pct"):
            assert entry["end_to_end"][metric]["value"] > 0, (name, metric)

    # A ledger agrees with itself; one with a slower workload does not.
    run = [sys.executable, os.path.join(PERF_DIR, "run.py"), "--agree", str(out)]
    assert subprocess.run(run + [str(out)], capture_output=True).returncode == 0
    ledger["workloads"]["cab_small"]["end_to_end"]["wall_s"]["value"] *= 2
    ledger["workloads"]["cab_small"]["per_layer"]["sim.events"]["value"] += 1
    slower = tmp_path / "slower.json"
    slower.write_text(json.dumps(ledger))
    verdict = subprocess.run(run + [str(slower)], capture_output=True, text=True)
    assert verdict.returncode == 1
    assert "WORSE" in verdict.stdout and "DIFFERS" in verdict.stdout
