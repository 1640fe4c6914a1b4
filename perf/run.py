#!/usr/bin/env python3
"""The two-clock performance ledger (see perf/README.md).

Three ways to call it, all from the repository root:

``python3 perf/run.py [--seed N] [--workload W] [--quick] [--json OUT]``
    The ledger: every workload (or just ``W``), each in fresh subprocesses —
    one timed run with telemetry off, then one traced run — printed metric
    by metric and written to ``OUT``.  Exits non-zero on a failed check.

``python3 perf/run.py --workload W --seed N --seconds S --trace 0|1``
    One run of one workload in this process; the last line of output is the
    JSON object BENCHMARK.json's contract asks for.  ``--trace 0`` gives the
    end-to-end metrics, ``--trace 1`` the per-layer ones.

``python3 perf/run.py --agree A.json B.json``
    Compare two ledger files: end-to-end metrics against their bounds,
    deterministic per-layer metrics for bit-identity.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import subprocess
import sys
import tempfile
import time

PERF_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(PERF_DIR)
sys.path[:0] = [os.path.join(ROOT, "src"), PERF_DIR]

#: Per-layer metrics read off the host clock; every other per-layer metric
#: is a deterministic count or simulated-clock value that must repeat
#: bit-for-bit on one commit.
_HOST_CLOCK = {
    "trace.overhead_ratio", "trace.wall_s", "sim.events_per_wall_s",
    "cluster.wall_us_per_barrier", "cluster.wall_us_per_handoff",
    "cluster.conductor_wait_share", "cluster.slowdown_vs_ref",
    "telemetry.on_off_ratio",
}
#: End-to-end metrics that are deterministic too.
_EXACT_END_TO_END = {"paper_err_pct"}
#: A set-up time that moved by less than this has not moved (ISSUE 12).
_SETUP_FLOOR_S = 0.05


def host_clock(name: str) -> bool:
    """True for a metric measured in host time (so it carries noise)."""
    return name.endswith(".self_s") or ".probe_" in name or name in _HOST_CLOCK


def load_contract() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


# ------------------------------------------------------------- one workload run


def _check(outcomes, workload, seed: int, scale: int) -> tuple:
    """(attempted, failures) over the outcomes of one process's runs."""
    failures = [text for outcome in outcomes for text in outcome.failures]
    if len({outcome.fingerprint for outcome in outcomes}) != 1:
        failures.append("deterministic fingerprint differs between repeats")
    failures += workload.cross_check(seed, scale, outcomes[-1])
    # + the fingerprint check and the cross-check, one op each
    return sum(outcome.ops for outcome in outcomes) + 2, failures


def timed_run(workload, seed: int, seconds: float, quick: bool) -> dict:
    """Warm-up, then fresh-system repeats for ``seconds``; telemetry off."""
    import measure
    import workloads

    scale = 20 if quick else 1
    imports = measure.import_seconds(1 if quick else 8)
    if not quick:
        measure.timed_repeat(workload, seed, scale)  # warm-up, discarded
    samples = {"setup_s": [], "wall_s": [], "cpu_s": []}
    outcomes = []
    begun = time.perf_counter()
    while True:
        timing, outcome = measure.timed_repeat(workload, seed, scale)
        for key, value in timing.items():
            samples[key].append(value)
        outcomes.append(outcome)
        enough = quick or len(outcomes) >= 3
        if enough and time.perf_counter() - begun >= seconds:
            break
    rss = measure.peak_rss_mb()  # before any in-process reference run
    attempted, failures = _check(outcomes, workload, seed, scale)
    error = outcomes[-1].counters.get("paper_err_pct")
    if error is None:
        error = workloads.paper_err_pct(workloads.paper_cells())
    stats = {key: measure.summary(values) for key, values in samples.items()}
    imported = measure.summary(imports)
    # Every timing is the first quartile of its samples.  Contention on a
    # shared host only adds time, in bursts that last seconds, so a median
    # follows the bursts; the minimum follows the odd lucky repeat instead
    # (fleet_sharded has a fast mode).  perf/README.md has the numbers.
    metrics = {
        "wall_s": dict(stats["wall_s"], value=stats["wall_s"]["q1"]),
        "cpu_s": dict(stats["cpu_s"], value=stats["cpu_s"]["q1"]),
        "peak_rss_mb": {"value": rss},
        "setup_s": {
            "value": imported["q1"] + stats["setup_s"]["q1"],
            "import_s": imported,
            "build_s": stats["setup_s"],
        },
        "paper_err_pct": {"value": error},
    }
    return {
        "attempted": attempted,
        "failures": failures,
        "metrics": metrics,
        "fingerprint": list(outcomes[-1].fingerprint),
    }


def traced_run(workload, seed: int, quick: bool) -> dict:
    """Untraced repeats for the counters, then the same run under the tracer."""
    import measure

    scale = 20 if quick else 1
    if not quick:
        measure.timed_repeat(workload, seed, scale)  # warm-up, discarded
    outcomes, walls = [], []
    for _ in range(1 if quick else 2):
        timing, outcome = measure.timed_repeat(workload, seed, scale)
        walls.append(timing["wall_s"])
        outcomes.append(outcome)
    untraced = min(walls)
    counters = outcomes[-1].counters
    ops = outcomes[-1].ops
    events = counters.get("sim.events", 0)

    rig = workload.fresh_build(seed, scale)
    trace = measure.traced(workload.run, rig)
    outcomes.append(workload.outcome(rig))
    process_trace, twin = None, workload.inline()
    if twin is not None:
        # Tracing sees one process: the conductor's side shows the waiting,
        # an inline run of the same shards shows where the work goes.
        process_trace = trace
        rig = twin.fresh_build(seed, scale)
        trace = measure.traced(twin.run, rig)
        outcomes.append(twin.outcome(rig))

    on_off = identical = 0.0
    rig = workload.fresh_build(seed, scale)
    if workload.enable_telemetry(rig):
        start = time.perf_counter()
        workload.run(rig)
        on_off = (time.perf_counter() - start) / untraced
        observed = workload.outcome(rig)
        identical = float(observed.fingerprint[:2] == outcomes[0].fingerprint[:2])

    stable = len({outcome.fingerprint for outcome in outcomes}) == 1
    attempted, failures = _check(outcomes, workload, seed, scale)

    def per(total, count):
        return total / count if count else 0.0

    values = {}
    for layer in measure.LAYERS:
        row = trace["layers"].get(layer, {"self_s": 0.0, "calls": 0})
        values[f"{layer}.self_s"] = row["self_s"]
        values[f"{layer}.calls"] = row["calls"]
    conductor = process_trace or trace
    values.update(
        {
            "trace.wall_s": trace["wall_s"],
            "trace.overhead_ratio": conductor["wall_s"] / untraced,
            "trace.calls_per_event": per(trace["calls"], events),
            "sim.events": events,
            "sim.events_per_op": per(events, ops),
            "sim.events_per_wall_s": events / untraced,
            "buf.memcpy_bytes_per_op": per(counters.get("buf.memcpy_bytes", 0), ops),
            "buf.buffers_allocated_per_op": per(
                counters.get("buf.buffers_allocated", 0), ops
            ),
            "cluster.wall_us_per_barrier": per(
                untraced * 1e6, counters.get("cluster.barriers", 0)
            ),
            "cluster.wall_us_per_handoff": per(
                untraced * 1e6, counters.get("cluster.handoffs", 0)
            ),
            "cluster.conductor_wait_share": conductor["pipe_wait_s"]
            / conductor["wall_s"],
            "cluster.slowdown_vs_ref": per(untraced, workload.reference_wall_s),
            "telemetry.on_off_ratio": on_off,
            "telemetry.events_identical": identical,
            "model.fingerprint_stable": float(stable),
        }
    )
    values.update(measure.probes(scale))
    for name, value in counters.items():
        values.setdefault(name, value)
    traces = {"workload": workload.name, "seed": seed, "untraced_wall_s": untraced}
    traces["run"] = trace
    if process_trace:
        traces["conductor_side"] = process_trace
    os.makedirs(os.path.join(PERF_DIR, "out"), exist_ok=True)
    with open(os.path.join(PERF_DIR, "out", f"trace_{workload.name}.json"), "w") as out:
        json.dump(traces, out, indent=1)
    return {
        "attempted": attempted,
        "failures": failures,
        "metrics": {name: {"value": value} for name, value in values.items()},
        "fingerprint": list(outcomes[0].fingerprint),
    }


def run_one(args, contract: dict) -> int:
    """The contract's command: one workload, one process, JSON on the last line."""
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    load = os.getloadavg()[0]
    busy = load > (os.cpu_count() or 1)
    if args.trace:
        record = traced_run(workload, args.seed, args.quick)
        wanted = contract["per_layer"]
    else:
        record = timed_run(
            workload, args.seed, 0.0 if args.quick else args.seconds, args.quick
        )
        wanted = contract["end_to_end"]
    metrics = {}
    for spec in wanted:
        # A per-layer metric the workload has no source for reads 0.
        entry = dict(record["metrics"].get(spec["name"], {"value": 0.0}))
        entry["unit"] = spec["unit"]
        metrics[spec["name"]] = entry
    failed = len(record["failures"])
    record.update(
        workload=workload.name, seed=args.seed, trace=args.trace, quick=args.quick,
        loadavg_1m=load, failed=failed, correct=failed == 0, metrics=metrics,
    )
    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}")
    for name, entry in metrics.items():
        note = ""
        if "n" in entry:
            note = "  (q1 of n={n}; min {min:.4f} median {median:.4f} q3 {q3:.4f} max {max:.4f})".format(**entry)
        if busy and (host_clock(name) or entry["unit"] == "s"):
            note += f"  WARNING: load average {load:.2f} above nproc at start"
        value = entry["value"]
        shown = str(int(value)) if float(value).is_integer() else f"{value:.6g}"
        print(f"  {name:38s} {shown} {entry['unit']}{note}")
    share = failed / record["attempted"]
    print(f"  ops {record['attempted']}  failed_ops {failed}  failed_ops_share {share:.6g}")
    for text in record["failures"][:20]:
        print(f"  FAILED: {text}")
    if args.json:
        with open(args.json, "w") as out:
            json.dump(record, out, indent=1)
    print(
        json.dumps(
            {
                "correct": record["correct"],
                "attempted": record["attempted"],
                "failed": failed,
                "metrics": {
                    name: {"value": entry["value"], "unit": entry["unit"]}
                    for name, entry in metrics.items()
                },
            }
        )
    )
    return 0 if record["correct"] else 1


# ------------------------------------------------------------------- the ledger


def _commit() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def run_ledger(args, contract: dict) -> int:
    """Every selected workload, each run in a fresh subprocess of this file."""
    names = [args.workload] if args.workload else [w["name"] for w in contract["workloads"]]
    ledger = {
        "env": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "commit": _commit(),
            "seed": args.seed,
            "quick": args.quick,
            "run_seconds": contract["run_seconds"],
            "loadavg_1m": os.getloadavg()[0],
        },
        "workloads": {},
    }
    status = 0
    with tempfile.TemporaryDirectory(dir=PERF_DIR) as scratch:
        for name in names:
            entry = {"correct": True, "ops": 0, "failed_ops": 0, "failures": []}
            for trace, section in ((0, "end_to_end"), (1, "per_layer")):
                detail = os.path.join(scratch, "run.json")
                command = [
                    sys.executable, os.path.abspath(__file__), "--workload", name,
                    "--seed", str(args.seed), "--seconds", str(contract["run_seconds"]),
                    "--trace", str(trace), "--json", detail,
                ] + (["--quick"] if args.quick else [])
                done = subprocess.run(command, cwd=ROOT)
                if not os.path.exists(detail):
                    print(f"{name}: run exited {done.returncode} without a result")
                    entry["correct"] = False
                    status = 1
                    continue
                with open(detail) as handle:
                    record = json.load(handle)
                os.remove(detail)
                entry[section] = record["metrics"]
                entry["ops"] += record["attempted"]
                entry["failed_ops"] += record["failed"]
                entry["failures"] += record["failures"][:20]
                entry["correct"] &= record["correct"]
                entry["fingerprint"] = record["fingerprint"]
                entry[f"loadavg_1m_trace{trace}"] = record["loadavg_1m"]
            entry["failed_ops_share"] = entry["failed_ops"] / max(1, entry["ops"])
            status |= 0 if entry["correct"] else 1
            ledger["workloads"][name] = entry
    print("\nledger summary (timings: first quartile of n, failed ops / ops):")
    for name, entry in ledger["workloads"].items():
        e2e = entry.get("end_to_end", {})
        cells = "  ".join(
            f"{metric} {e2e[metric]['value']:.4g}" for metric in e2e
        )
        print(f"  {name:14s} {cells}  failed {entry['failed_ops']}/{entry['ops']}")
    if args.json:
        with open(args.json, "w") as out:
            json.dump(ledger, out, indent=1, sort_keys=True)
        print(f"wrote {args.json}")
    return status


# ------------------------------------------------------------------------ agree


def agree(path_a: str, path_b: str, contract: dict) -> int:
    """Print every metric that moved between two ledgers; 1 if any may not."""
    with open(path_a) as handle:
        old = json.load(handle)["workloads"]
    with open(path_b) as handle:
        new = json.load(handle)["workloads"]
    bounds = {spec["name"]: spec for spec in contract["end_to_end"]}
    bad = 0
    for name in old:
        if name not in new:
            print(f"{name}: missing from {path_b}")
            bad += 1
            continue
        for section in ("end_to_end", "per_layer"):
            before, after = old[name].get(section, {}), new[name].get(section, {})
            for metric in before:
                a, b = before[metric]["value"], after.get(metric, {}).get("value")
                if b is None:
                    print(f"{name} {metric}: missing from {path_b}")
                    bad += 1
                    continue
                change = (b - a) / a if a else (0.0 if b == a else math.inf)
                moved = f"{name:14s} {metric:36s} {a:.6g} -> {b:.6g} ({change:+.2%})"
                if metric in bounds and metric not in _EXACT_END_TO_END:
                    spec = bounds[metric]
                    worse = change if spec["better"] == "lower" else -change
                    if metric == "setup_s" and abs(b - a) < _SETUP_FLOOR_S:
                        continue
                    if worse > spec["bound"]:
                        print(f"WORSE    {moved}  bound {spec['bound']:.0%}")
                        bad += 1
                    elif abs(change) > spec["bound"] / 3:
                        print(f"moved    {moved}  bound {spec['bound']:.0%}")
                elif section == "per_layer" and host_clock(metric):
                    if abs(change) > 0.10:
                        print(f"moved    {moved}  host clock, no bound")
                elif a != b:
                    print(f"DIFFERS  {moved}  deterministic, must be identical")
                    bad += 1
        if old[name]["failed_ops"] != new[name]["failed_ops"]:
            print(
                f"DIFFERS  {name:14s} failed_ops: {old[name]['failed_ops']} -> "
                f"{new[name]['failed_ops']}"
            )
            bad += 1
    print(f"{bad} metric(s) outside their bound or not identical" if bad else "agree")
    return 1 if bad else 0


# ------------------------------------------------------------------------- main


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload (default: all, as a ledger)")
    parser.add_argument("--seed", type=int, default=0, help="input-generation seed")
    parser.add_argument("--seconds", type=float, help="measure for this long, in this process")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="1/20 size, 1 repeat")
    parser.add_argument("--json", help="write the detailed result here")
    parser.add_argument("--agree", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        sys.exit("perf/run.py: no src/repro beside perf/; run it in a full checkout")
    contract = load_contract()
    if args.agree:
        return agree(args.agree[0], args.agree[1], contract)
    known = [w["name"] for w in contract["workloads"]]
    if args.workload and args.workload not in known:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(known)}")
    if args.seconds is not None:
        if not args.workload:
            parser.error("--seconds runs one workload in this process: give --workload")
        return run_one(args, contract)
    return run_ledger(args, contract)


if __name__ == "__main__":
    sys.exit(main())
