"""The scenario kind registry: how each scenario kind runs and gates.

A **kind** names one execution plane and declares, in one place:

* its parameter schema (names, types, defaults) — the contract
  :mod:`repro.scenario.model` validates scenario files against;
* ``run(params) -> report`` — a report dict with the repo's standard
  ``config`` / ``deterministic`` / ``measured`` split (byte-identical
  ``deterministic`` across runs; wall-clock quarantined in ``measured``);
* how the report is gated: the committed baseline's default file, its
  format (canonical JSON or a text golden), and the check function
  producing regression verdicts.

The legacy benches keep their own report shapes and check functions
(:mod:`repro.cluster.bench`, :mod:`repro.buf.bench`,
:mod:`repro.cluster.mcast`, :mod:`repro.ops.lab`) — the registry wraps
them, so the unified gate's verdicts are identical to the historical
per-CLI gates.  New kinds (``engine``, ``load``, and the table/figure
drivers) use the generic exact-match check over ``config`` +
``deterministic``.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.wallclock import wall_clock_ns, wall_ns_since

__all__ = ["KINDS", "Kind", "ParamSpec", "generic_check"]


@dataclass(frozen=True)
class ParamSpec:
    """One kind parameter: its type name and default value.

    ``type`` is one of ``int``, ``str``, ``bool``, ``float``,
    ``int_list``, ``str_list``.  Only scalar-typed parameters may be
    swept.
    """

    type: str
    default: object


@dataclass(frozen=True)
class Kind:
    """One scenario kind: schema + runner + gate policy."""

    name: str
    summary: str
    params: Dict[str, ParamSpec]
    run: Callable[[dict], dict]
    check: Callable[[object, dict], List[str]] = field(default=None)  # type: ignore[assignment]
    baseline_default: Optional[str] = None
    #: ``json`` baselines are canonical-JSON reports; ``text`` baselines
    #: are byte-compared goldens (the ops lab's report).
    baseline_format: str = "json"
    summarize: Callable[[dict], str] = field(default=None)  # type: ignore[assignment]


def generic_check(committed: dict, fresh: dict) -> List[str]:
    """Exact-match gate for kinds without a bespoke legacy check.

    The committed configuration must match (a config change is a
    deliberate re-baseline, not a regression), and every deterministic
    value must be identical.  ``measured`` is recorded, never compared.
    """
    errors: List[str] = []
    if fresh.get("config") != committed.get("config"):
        errors.append(
            "config diverged from the committed baseline; re-baseline "
            "deliberately with --write"
        )
        return errors
    committed_det = committed.get("deterministic", {})
    fresh_det = fresh.get("deterministic", {})
    for key in sorted(set(committed_det) | set(fresh_det)):
        if fresh_det.get(key) != committed_det.get(key):
            errors.append(
                f"deterministic[{key!r}] diverged: {fresh_det.get(key)!r} "
                f"!= committed {committed_det.get(key)!r}"
            )
    return errors


# ------------------------------------------------------------ legacy kinds


def _run_scale(params: dict) -> dict:
    from repro.cluster.bench import run_scale_bench
    from repro.cluster.fleet import make_fleet
    from repro.cluster.workload import WorkloadSpec

    fleet = make_fleet(
        params["shape"],
        params["hubs"],
        params["cabs_per_hub"],
        params["hub_ports"],
    )
    return run_scale_bench(
        fleet,
        WorkloadSpec(seed=params["seed"]),
        workers=list(params["workers"]),
        mode=params["mode"],
        skip_reference=params["skip_reference"],
    )


def _check_scale(committed, fresh) -> List[str]:
    from repro.cluster.bench import check_against_baseline

    return check_against_baseline(committed, fresh)


def _summarize_scale(report: dict) -> str:
    workers = report["deterministic"]["workers"]
    return ", ".join(
        f"{count}w={workers[count]['barriers']} barriers"
        for count in sorted(workers, key=int)
    )


def _run_buf(params: dict) -> dict:
    from repro.buf.bench import run_buf_bench

    return run_buf_bench()


def _check_buf(committed, fresh) -> List[str]:
    from repro.buf.bench import check_against_baseline

    return check_against_baseline(committed, fresh)


def _summarize_buf(report: dict) -> str:
    stream = report["deterministic"]["rmp_stream"]
    reduction = report["deterministic"]["rmp_stream_reduction_pct"]
    return (
        f"rmp-stream host.memcpy_bytes {stream['memcpy_bytes']} "
        f"({reduction['memcpy_bytes']}% below pre-refactor)"
    )


def _run_mcast(params: dict) -> dict:
    from repro.cluster.mcast import run_mcast_bench

    return run_mcast_bench(
        seed=params["seed"],
        messages=params["messages"],
        rounds=params["rounds"],
        workers=list(params["workers"]),
        mode=params["mode"],
    )


def _check_mcast(committed, fresh) -> List[str]:
    from repro.cluster.mcast import check_against_baseline

    return check_against_baseline(committed, fresh)


def _summarize_mcast(report: dict) -> str:
    return f"ratio {report['deterministic']['fanout']['crossing_ratio']}"


def _run_ops(params: dict) -> dict:
    from repro.ops import lab

    start = wall_clock_ns()
    report = lab.run_lab(params["seed"])
    wall_ns = wall_ns_since(start)
    return {
        "bench": "ops",
        "config": {"seed": params["seed"]},
        "deterministic": {
            "passed": report.passed,
            "report": report.render() + "\n",
            "score": report.total_score,
        },
        "measured": {"wall_ns": wall_ns},
    }


def _check_ops(committed_text, fresh) -> List[str]:
    errors: List[str] = []
    deterministic = fresh["deterministic"]
    if deterministic["report"] != committed_text:
        errors.append("ops report differs from the committed golden")
    if not deterministic["passed"]:
        errors.append("ops lab verdict is FAIL")
    return errors


def _summarize_ops(report: dict) -> str:
    deterministic = report["deterministic"]
    verdict = "PASS" if deterministic["passed"] else "FAIL"
    return f"score {deterministic['score']}, {verdict}"


# ------------------------------------------------------- engine/load kinds


def _run_engine(params: dict) -> dict:
    from repro.telemetry.observe import run_observe

    start = wall_clock_ns()
    result = run_observe(
        params["workload"], seed=params["seed"], rounds=params["rounds"] or None
    )
    wall_ns = wall_ns_since(start)
    events = result.system.sim.events_scheduled
    sim_ns = max(1, result.system.now)
    return {
        "bench": "engine",
        "config": dict(sorted(params.items())),
        "deterministic": {
            "events": events,
            "sim_ns": sim_ns,
            # Simulated events per simulated millisecond: a deterministic
            # density figure; wall events/sec lives under "measured".
            "events_per_sim_ms": round(events * 1e6 / sim_ns, 2),
            "trace_events": len(result.telemetry.recorder.events),
            "metric_series": result.telemetry.metrics.series_count(),
        },
        "measured": {
            "wall_ns": wall_ns,
            "events_per_sec": round(events * 1e9 / wall_ns, 1),
        },
    }


def _run_load(params: dict) -> dict:
    from repro.scenario.loadgen import run_load

    start = wall_clock_ns()
    point = run_load(
        users=params["users"],
        messages=params["messages"],
        payload_bytes=params["payload_bytes"],
        warmup=params["warmup"],
    )
    wall_ns = wall_ns_since(start)
    return {
        "bench": "load",
        "config": dict(sorted(params.items())),
        "deterministic": point,
        "measured": {
            "wall_ns": wall_ns,
            "events_per_sec": round(point["events"] * 1e9 / wall_ns, 1),
        },
    }


# ------------------------------------------------------ table/figure kinds


def _driver_run(module_name: str) -> Callable[[dict], dict]:
    def run(params: dict) -> dict:
        module = importlib.import_module(module_name)
        start = wall_clock_ns()
        result = module.scenario(params)
        wall_ns = wall_ns_since(start)
        return {
            "bench": result.name,
            "config": result.config,
            "deterministic": {"rows": result.rows, "text": result.text},
            "measured": {"wall_ns": wall_ns},
        }

    return run


def _driver_kind(
    name: str,
    summary: str,
    params: Dict[str, ParamSpec],
    module: Optional[str] = None,
) -> Kind:
    return Kind(
        name=name,
        summary=summary,
        params=params,
        run=_driver_run(f"repro.bench.{module or name}"),
        check=generic_check,
        summarize=lambda report: f"{len(report['deterministic']['rows'])} rows",
    )


_FIG7_SIZES = [16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192]
_FIG8_SIZES = [64, 128, 256, 512, 1024, 2048, 4096, 8192]

KINDS: Dict[str, Kind] = {
    kind.name: kind
    for kind in (
        Kind(
            name="scale",
            summary="sharded fleet simulation: parity + sync counters",
            params={
                "shape": ParamSpec("str", "line"),
                "hubs": ParamSpec("int", 4),
                "cabs_per_hub": ParamSpec("int", 16),
                "hub_ports": ParamSpec("int", 18),
                "seed": ParamSpec("int", 0),
                "workers": ParamSpec("int_list", [1, 4]),
                "mode": ParamSpec("str", "process"),
                "skip_reference": ParamSpec("bool", False),
            },
            run=_run_scale,
            check=_check_scale,
            baseline_default="BENCH_scale.json",
            summarize=_summarize_scale,
        ),
        Kind(
            name="buf",
            summary="zero-copy buffer plane: host-copy counters",
            params={},
            run=_run_buf,
            check=_check_buf,
            baseline_default="BENCH_buf.json",
            summarize=_summarize_buf,
        ),
        Kind(
            name="mcast",
            summary="NMP multicast fan-out + CAB collectives",
            params={
                "seed": ParamSpec("int", 0),
                "messages": ParamSpec("int", 8),
                "rounds": ParamSpec("int", 3),
                "workers": ParamSpec("int_list", [1, 4]),
                "mode": ParamSpec("str", "process"),
            },
            run=_run_mcast,
            check=_check_mcast,
            baseline_default="BENCH_mcast.json",
            summarize=_summarize_mcast,
        ),
        Kind(
            name="ops",
            summary="scored operations lab vs. its report golden",
            params={"seed": ParamSpec("int", 7)},
            run=_run_ops,
            check=_check_ops,
            baseline_default="OPS_baseline.txt",
            baseline_format="text",
            summarize=_summarize_ops,
        ),
        Kind(
            name="engine",
            summary="event-engine speed on an observe workload",
            params={
                "workload": ParamSpec("str", "table1"),
                "seed": ParamSpec("int", 7),
                "rounds": ParamSpec("int", 0),
            },
            run=_run_engine,
            check=generic_check,
            summarize=lambda report: (
                f"{report['deterministic']['events']} events"
            ),
        ),
        Kind(
            name="load",
            summary="closed-loop capacity workload: users vs p50/p99/throughput",
            params={
                "users": ParamSpec("int", 1),
                "messages": ParamSpec("int", 16),
                "payload_bytes": ParamSpec("int", 128),
                "warmup": ParamSpec("int", 2),
            },
            run=_run_load,
            check=generic_check,
            summarize=lambda report: (
                f"p99 {report['deterministic']['p99_us']} us at "
                f"{report['deterministic']['users']} users"
            ),
        ),
        _driver_kind(
            "table1",
            "Table 1 round-trip latencies over the four transports",
            {
                "message_size": ParamSpec("int", 32),
                "rounds": ParamSpec("int", 30),
                "warmup": ParamSpec("int", 5),
            },
        ),
        _driver_kind(
            "fig6",
            "Figure 6 one-way datagram latency breakdown",
            {"message_size": ParamSpec("int", 32)},
        ),
        _driver_kind(
            "fig7",
            "Figure 7 CAB-to-CAB throughput vs message size",
            {
                "sizes": ParamSpec("int_list", list(_FIG7_SIZES)),
                "count": ParamSpec("int", 40),
            },
        ),
        _driver_kind(
            "fig8",
            "Figure 8 host-to-host throughput vs message size",
            {
                "sizes": ParamSpec("int_list", list(_FIG8_SIZES)),
                "count": ParamSpec("int", 30),
            },
        ),
        _driver_kind(
            "micro",
            "micro-cost table vs the paper's numbers",
            {},
            module="microcosts",
        ),
        _driver_kind(
            "ablations",
            "design-choice ablations (upcalls, mailbox modes, checksums)",
            {},
        ),
    )
}
