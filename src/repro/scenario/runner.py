"""The scenario kind registry: how each scenario kind runs and is judged.

:data:`KINDS` is the one declaration of every scenario ``bench`` runs and
gates.  A **kind** names one execution plane and declares, in one place:

* its committed baseline file (``BENCH_<name>.json``, or the
  ``CHAOS_baseline.txt`` text golden);
* its parameter schema (names, types, defaults) — the committed
  configuration, and the contract :mod:`repro.scenario.model` validates
  command-line overrides against;
* ``run(params) -> report`` — a report dict with the repo's standard
  ``config`` / ``deterministic`` split (``deterministic`` is
  byte-identical across runs: every value in it is simulated);
* its **invariants** — what must hold of any fresh report regardless of a
  baseline (parity not broken, every buffer freed, the chaos verdict PASS),
  declared as data and applied to every run;
* a one-line summary of a report for the gate's OK line;
* for a paper table or figure, its text rendering
  (:func:`repro.bench.experiments.render_table`).

Whether a report *moved* is not a per-kind question: the one structural
differ in :mod:`repro.scenario.gate` compares ``config`` +
``deterministic`` against the committed baseline for every kind alike.
"""

from __future__ import annotations

import hashlib
import importlib
import operator
from dataclasses import dataclass
from typing import Callable, Dict, NamedTuple, Optional, Tuple

from repro.bench.experiments import render_table
from repro.buf.bench import RMP_STREAM_CEILING_BYTES
from repro.errors import ConfigurationError

__all__ = ["KINDS", "Invariant", "Kind", "ParamSpec", "Ref", "violations"]


@dataclass(frozen=True)
class ParamSpec:
    """One kind parameter: its type name and default value.

    ``type`` is one of ``int``, ``str``, ``bool``, ``float``,
    ``int_list``, ``str_list``.
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

#: A fleet run without a fault plan loses nothing, so no timer may fire.
_NO_RECOVERY = "a retransmission, retry, NACK or repair without a fault plan"


@dataclass(frozen=True)
class Kind:
    """One scenario kind: baseline + schema + runner + fresh-report invariants."""

    name: str
    summary: str
    #: The committed baseline file, relative to the repository root.
    baseline: str
    params: Dict[str, ParamSpec]
    run: Callable[[dict], dict]
    summarize: Callable[[dict], str]
    invariants: Tuple[Invariant, ...] = ()
    #: Renders the deterministic section as ``bench <name>`` prints it;
    #: None leaves it to :func:`repro.scenario.report.render_text`.
    render: Optional[Callable[[dict], str]] = None

    def defaults(self) -> dict:
        """The committed configuration: every parameter at its default."""
        return {name: spec.default for name, spec in self.params.items()}


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


# ------------------------------------------------- chaos and observe kinds


def _run_chaos(params: dict) -> dict:
    """Every chaos campaign, or — with ``scenario`` — one; reports joined.

    An unknown ``scenario`` raises a :class:`ConfigurationError` that lists
    the catalogue's cases with their summaries.
    """
    from repro.faults.campaign import run_campaign
    from repro.faults.catalogue import catalogue

    seed, name = params["seed"], params["scenario"]
    cases = catalogue(seed)
    if name and name not in cases:
        listing = "\n".join(
            f"  {known:18s} {cases[known].summary}" for known in sorted(cases)
        )
        raise ConfigurationError(
            f"unknown scenario {name!r}; the catalogue (seed={seed}):\n{listing}"
        )
    reports = [
        run_campaign(cases[known]) for known in ([name] if name else sorted(cases))
    ]
    return {
        "bench": "chaos",
        "config": dict(sorted(params.items())),
        "deterministic": {
            "passed": all(report.passed for report in reports),
            "report": "\n".join(report.render() + "\n" for report in reports),
        },
    }


def _summarize_chaos(report: dict) -> str:
    verdict = "PASS" if report["deterministic"]["passed"] else "FAIL"
    campaigns = report["deterministic"]["report"].count("chaos campaign: ")
    return f"{campaigns} campaigns, {verdict}"


def _observe_text(result) -> str:
    """An observed run's summary plus digests of its two JSON artifacts."""
    return result.summary() + "".join(
        f"{name} sha256: {hashlib.sha256(render().encode()).hexdigest()}\n"
        for name, render in (
            ("metrics_json", result.metrics_json),
            ("trace_json", result.trace_json),
        )
    )


def _run_observe(params: dict) -> dict:
    """Every observe workload, or — with ``workload`` — one; texts joined."""
    from repro.telemetry.observe import WORKLOADS, run_observe

    seed, name = params["seed"], params["workload"]
    if name and name not in WORKLOADS:
        raise ConfigurationError(
            f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}"
        )
    results = [
        run_observe(workload, seed=seed)
        for workload in ([name] if name else sorted(WORKLOADS))
    ]
    return {
        "bench": "observe",
        "config": dict(sorted(params.items())),
        "deterministic": {
            "events": {
                result.workload: result.system.sim.events_scheduled
                for result in results
            },
            "report": "\n".join(_observe_text(result) for result in results),
        },
    }


def _run_load(params: dict) -> dict:
    """One capacity-curve point per entry of ``users``."""
    from repro.scenario.loadgen import run_load

    if not params["users"]:
        raise ConfigurationError("users must list at least one user count")
    return {
        "bench": "load",
        "config": dict(sorted(params.items())),
        "deterministic": {
            "points": [
                run_load(
                    users=users,
                    messages=params["messages"],
                    payload_bytes=params["payload_bytes"],
                    warmup=params["warmup"],
                )
                for users in params["users"]
            ]
        },
    }


def _summarize_load(report: dict) -> str:
    last = report["deterministic"]["points"][-1]
    return f"p99 {last['p99_us']} us at {last['users']} users"


# ------------------------------------------------------ table/figure kinds


def _spec_of(default) -> ParamSpec:
    """The spec a driver default implies: its type is the default's type."""
    if isinstance(default, list):
        return ParamSpec(f"{type(default[0]).__name__}_list", list(default))
    return ParamSpec(type(default).__name__, default)


def _driver_kind(name: str, summary: str, module_name: str = "") -> Kind:
    """A table/figure kind; its schema is the driver module's ``DEFAULTS``,
    its text the table EXPERIMENTS.md shows."""
    module = importlib.import_module(f"repro.bench.{module_name or name}")

    def run(params: dict) -> dict:
        result = module.scenario(params)
        return {
            "bench": result.name,
            "config": result.config,
            "deterministic": dict(result.extras, rows=result.rows),
        }

    return Kind(
        name=name,
        summary=summary,
        baseline=f"BENCH_{name}.json",
        params={key: _spec_of(value) for key, value in module.DEFAULTS.items()},
        run=run,
        summarize=lambda report: f"{len(report['deterministic']['rows'])} rows",
        render=lambda deterministic: render_table(name, deterministic),
    )


KINDS: Dict[str, Kind] = {
    kind.name: kind
    for kind in (
        Kind(
            name="scale",
            summary="sharded fleet simulation: parity + sync counters",
            baseline="BENCH_scale.json",
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
                Invariant("recoveries", "==", 0, _NO_RECOVERY),
            ),
        ),
        Kind(
            name="buf",
            summary="zero-copy buffer plane: host-copy counters",
            baseline="BENCH_buf.json",
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
            baseline="BENCH_mcast.json",
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
                Invariant("parity.reference.recoveries", "==", 0, _NO_RECOVERY),
            ),
        ),
        Kind(
            name="chaos",
            summary="fault campaigns: exactly-once delivery + determinism",
            baseline="CHAOS_baseline.txt",
            params={
                "seed": ParamSpec("int", 7),
                "scenario": ParamSpec("str", ""),
            },
            run=_run_chaos,
            summarize=_summarize_chaos,
            invariants=(
                Invariant("passed", "==", True, "chaos campaign verdict is FAIL"),
            ),
        ),
        Kind(
            name="observe",
            summary="telemetry workloads: summaries + artifact digests",
            baseline="BENCH_observe.json",
            params={
                "seed": ParamSpec("int", 7),
                "workload": ParamSpec("str", ""),
            },
            run=_run_observe,
            summarize=lambda report: ", ".join(
                f"{workload}={events}"
                for workload, events in report["deterministic"]["events"].items()
            ) + " events",
        ),
        Kind(
            name="load",
            summary="closed-loop capacity workload: users vs p50/p99/throughput",
            baseline="BENCH_load.json",
            params={
                "users": ParamSpec("int_list", [1, 2, 4, 8]),
                "messages": ParamSpec("int", 16),
                "payload_bytes": ParamSpec("int", 128),
                "warmup": ParamSpec("int", 2),
            },
            run=_run_load,
            summarize=_summarize_load,
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
