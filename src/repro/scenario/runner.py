"""The scenario kind registry: how each scenario kind runs and is judged.

A **kind** names one execution plane and declares, in one place:

* its parameter schema (names, types, defaults) — the contract
  :mod:`repro.scenario.model` validates scenario files and command-line
  overrides against;
* ``run(params) -> report`` — a report dict with the repo's standard
  ``config`` / ``deterministic`` / ``measured`` split (byte-identical
  ``deterministic`` across runs; wall-clock quarantined in ``measured``);
* its **invariants** — what must hold of any fresh report regardless of a
  baseline (parity not broken, every buffer freed, the lab verdict PASS),
  declared as data and applied to every run and every sweep point;
* a one-line summary of a report for the gate's OK line.

Whether a report *moved* is not a per-kind question: the one structural
differ in :mod:`repro.scenario.gate` compares ``config`` +
``deterministic`` against the committed baseline for every kind alike.
"""

from __future__ import annotations

import importlib
import json
import operator
from dataclasses import dataclass
from typing import Callable, Dict, NamedTuple, Tuple

from repro.buf.bench import RMP_STREAM_CEILING_BYTES
from repro.errors import ConfigurationError
from repro.wallclock import wall_clock_ns, wall_ns_since

__all__ = ["KINDS", "Invariant", "Kind", "ParamSpec", "Ref", "violations"]


@dataclass(frozen=True)
class ParamSpec:
    """One kind parameter: its type name and default value.

    ``type`` is one of ``int``, ``str``, ``bool``, ``float``,
    ``int_list``, ``str_list``.  Only scalar-typed parameters may be
    swept.
    """

    type: str
    default: object


class Ref(NamedTuple):
    """An invariant bound read from another leaf of the same report."""

    path: str


class Invariant(NamedTuple):
    """``deterministic.<path> <op> <bound>`` must hold of a fresh report."""

    path: str
    op: str
    bound: object  # a literal, or a :class:`Ref` to a sibling leaf
    why: str


_OPS = {"==": operator.eq, "!=": operator.ne, "<=": operator.le}


@dataclass(frozen=True)
class Kind:
    """One scenario kind: schema + runner + fresh-report invariants."""

    name: str
    summary: str
    params: Dict[str, ParamSpec]
    run: Callable[[dict], dict]
    summarize: Callable[[dict], str]
    invariants: Tuple[Invariant, ...] = ()


def _leaf(deterministic: dict, path: str):
    value = deterministic
    for key in path.split("."):
        value = value[key]
    return value


def violations(kind: Kind, deterministic: dict, prefix: str) -> list:
    """Key-path verdicts for every invariant ``deterministic`` breaks."""
    verdicts = []
    for invariant in kind.invariants:
        where = f"{prefix}.{invariant.path}"
        try:
            value = _leaf(deterministic, invariant.path)
            bound = invariant.bound
            if isinstance(bound, Ref):
                bound = _leaf(deterministic, bound.path)
        except (KeyError, TypeError):
            verdicts.append(f"{where}: missing ({invariant.why})")
            continue
        if not _OPS[invariant.op](value, bound):
            verdicts.append(
                f"{where}: {value!r} must be {invariant.op} {bound!r} "
                f"({invariant.why})"
            )
    return verdicts


# ------------------------------------------------------------ fleet kinds


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


def _summarize_scale(report: dict) -> str:
    workers = report["deterministic"]["workers"]
    return ", ".join(
        f"{count}w={workers[count]['barriers']} barriers"
        for count in sorted(workers, key=int)
    )


def _run_buf(params: dict) -> dict:
    from repro.buf.bench import run_buf_bench

    return run_buf_bench()


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


def _summarize_mcast(report: dict) -> str:
    return f"ratio {report['deterministic']['fanout']['crossing_ratio']}"


# ---------------------------------------------------------------- ops kind


def _run_ops(params: dict) -> dict:
    """The whole lab, or — with ``incident`` — one incident and its journal."""
    from repro.ops import lab
    from repro.ops.incidents import INCIDENTS

    seed, name = params["seed"], params["incident"]
    if name and name not in INCIDENTS:
        catalogue = "\n".join(
            f"  {known:18s} {INCIDENTS[known](seed).summary}"
            for known in sorted(INCIDENTS)
        )
        raise ConfigurationError(
            f"unknown incident {name!r}; the catalogue:\n{catalogue}"
        )
    start = wall_clock_ns()
    result = lab.run_incident(name, seed) if name else lab.run_lab(seed)
    wall_ns = wall_ns_since(start)
    deterministic = {
        "passed": result.passed,
        "report": result.render() + "\n",
        "score": result.score if name else result.total_score,
    }
    if name:
        deterministic["journal"] = json.loads(result.journal.render())
    return {
        "bench": "ops",
        "config": dict(sorted(params.items())),
        "deterministic": deterministic,
        "measured": {"wall_ns": wall_ns},
    }


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
    # The workload's own span, not system.now: run(until=...) leaves the
    # clock at its horizon once the queue has drained.
    sim_ns = max(1, result.system.sim.last_event_ns)
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


def _spec_of(default) -> ParamSpec:
    """The spec a driver default implies: its type is the default's type."""
    if isinstance(default, list):
        return ParamSpec(f"{type(default[0]).__name__}_list", list(default))
    return ParamSpec(type(default).__name__, default)


def _driver_kind(name: str, summary: str, module_name: str = "") -> Kind:
    """A table/figure kind; its schema is the driver module's ``DEFAULTS``."""
    module = importlib.import_module(f"repro.bench.{module_name or name}")

    def run(params: dict) -> dict:
        start = wall_clock_ns()
        result = module.scenario(params)
        wall_ns = wall_ns_since(start)
        return {
            "bench": result.name,
            "config": result.config,
            "deterministic": dict(
                result.extras, rows=result.rows, text=result.text
            ),
            "measured": {"wall_ns": wall_ns},
        }

    return Kind(
        name=name,
        summary=summary,
        params={key: _spec_of(value) for key, value in module.DEFAULTS.items()},
        run=run,
        summarize=lambda report: f"{len(report['deterministic']['rows'])} rows",
    )


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
            summarize=_summarize_scale,
            invariants=(
                # None (reference leg skipped) is no verdict, not a failure.
                Invariant(
                    "parity", "!=", False,
                    "sharded runs diverged from the reference",
                ),
            ),
        ),
        Kind(
            name="buf",
            summary="zero-copy buffer plane: host-copy counters",
            params={},
            run=_run_buf,
            summarize=_summarize_buf,
            invariants=(
                Invariant(
                    "rmp_stream.memcpy_bytes", "<=", RMP_STREAM_CEILING_BYTES,
                    "half the pre-refactor host copy bytes",
                ),
            )
            + tuple(
                Invariant(
                    f"{leg}.buffers_allocated", "==",
                    Ref(f"{leg}.buffers_freed"), "leaked buffers",
                )
                for leg in ("microbench", "rmp_stream", "scale")
            ),
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
            summarize=_summarize_mcast,
            invariants=(
                Invariant(
                    "parity.verdict", "==", True,
                    "sharded runs diverged from the reference",
                ),
            ),
        ),
        Kind(
            name="ops",
            summary="scored operations lab (or one incident + its journal)",
            params={
                "seed": ParamSpec("int", 7),
                "incident": ParamSpec("str", ""),
            },
            run=_run_ops,
            summarize=_summarize_ops,
            invariants=(
                Invariant("passed", "==", True, "ops lab verdict is FAIL"),
            ),
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
            summarize=lambda report: (
                f"p99 {report['deterministic']['p99_us']} us at "
                f"{report['deterministic']['users']} users"
            ),
        ),
        _driver_kind(
            "table1", "Table 1 round-trip latencies over the four transports"
        ),
        _driver_kind("fig6", "Figure 6 one-way datagram latency breakdown"),
        _driver_kind("fig7", "Figure 7 CAB-to-CAB throughput vs message size"),
        _driver_kind("fig8", "Figure 8 host-to-host throughput vs message size"),
        _driver_kind(
            "micro", "micro-cost table vs the paper's numbers", "microcosts"
        ),
        _driver_kind(
            "ablations",
            "design-choice ablations (upcalls, mailbox modes, checksums)",
        ),
    )
}
