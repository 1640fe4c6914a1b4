"""Run incidents end to end and score detect / localize / mitigate.

An incident is a :class:`~repro.faults.catalogue.Case` with ground truth.
For each one the lab:

1. runs it through :func:`~repro.faults.catalogue.run_case` with a flight
   recorder attached (the recorder before the fault plan);
2. re-runs the whole thing and checks the journal bytes and the behavior
   signature are identical (determinism is an invariant, not a hope);
3. feeds the journal — and only the journal — to the baseline detectors
   and localizers from :mod:`repro.ops.detect`;
4. verifies the *ground truth* itself: the plan really fired near the
   labelled onset, and every blast-radius flow really was exposed;
5. *mitigates*: clips every fault window at the first alert time (the
   moment an on-call operator could have acted) and re-runs without the
   observer — mitigation is verified when every flow completes and no
   fault fires after the clip point;
6. for ``shard_check`` incidents, re-runs the same fleet + workload +
   plan under a 2-worker :class:`~repro.cluster.conductor.Conductor` and
   compares protocol digests with the observed run.

Scores are integers out of 100: detection 40, time-to-detect up to 20,
localization up to 25, verified mitigation 15.  The rendered report is
built only from simulated quantities, so two invocations with the same
seed print byte-identical text — ``python -m repro bench ops --check``
gates on the committed ``OPS_baseline.txt`` exactly like the chaos report.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.cluster.conductor import Conductor
from repro.faults.catalogue import (
    Case,
    CaseRun,
    behavior_signature,
    incidents,
    run_case,
)
from repro.faults.plan import FaultPlan
from repro.model.costs import DEFAULT_COSTS
from repro.ops.detect import Alert, localize, run_detectors
from repro.ops.observer import FlightRecorder, Journal
from repro.protocols.rto import MAX_RTO_NS
from repro.units import seconds

__all__ = [
    "IncidentResult",
    "LabReport",
    "baseline_signature",
    "run_incident",
    "run_lab",
]

#: Extra simulated time the mitigation re-run gets beyond the horizon —
#: protocols recovering from a clipped fault may still be in RTO backoff
#: at the horizon (TCP's maximum RTO is 2 simulated seconds).
MITIGATION_GRACE_NS = seconds(2)

#: Ground-truth sanity: the plan's first firing must land within this
#: many cadences after the labelled onset.
ONSET_SLACK_CADENCES = 10

# Score weights (total 100).
SCORE_DETECTED = 40
SCORE_TTD_FAST = 20  # time-to-detect within 2 cadences
SCORE_TTD_OK = 10  # within 5 cadences
SCORE_TOP1 = 25  # best localization candidate is a true site
SCORE_TOP3 = 15  # a true site appears in the top 3
SCORE_MITIGATED = 15


# ------------------------------------------------------------------ running


def _meta(incident: Case) -> dict:
    links = sorted(
        f"{low}<->{high}"
        for low, high in (
            sorted((hub_a, hub_b))
            for hub_a, _port_a, hub_b, _port_b in incident.fleet.links
        )
    )
    return {
        "incident": incident.name,
        "seed": incident.plan.seed,
        "summary": incident.summary,
        "topology": {
            "cabs": {name: hub for name, hub, _port in incident.fleet.cabs},
            "links": links,
            # Every fleet is built with the default cost model.
            "fifo_capacity": DEFAULT_COSTS.cab_fifo_bytes,
        },
    }


def _observed_run(incident: Case) -> Tuple[Journal, CaseRun]:
    """One fully-observed run: its journal and what the run left behind."""
    recorder = FlightRecorder(_meta(incident), incident.cadence_ns, incident.horizon_ns)
    run = run_case(incident, recorder=recorder)
    return recorder.journal(), run


def baseline_signature(incident: Case) -> Tuple:
    """The same run with *no observer attached* (the invariance baseline)."""
    return behavior_signature(run_case(incident))


# --------------------------------------------------------------- mitigation


def _clip_plan(plan: FaultPlan, clip_ns: int) -> FaultPlan:
    """The operator's fix: every fault window ends at the first alert.

    Specs that would only start at or after the clip point are removed
    outright; running ones keep their start but end early.  This models
    "the faulty component was pulled at detection time" while keeping
    the pre-detection history identical.
    """
    specs = []
    for spec in plan.specs:
        start, end = spec.window_ns if spec.window_ns is not None else (0, None)
        if start >= clip_ns:
            continue
        clipped = clip_ns if end is None else min(end, clip_ns)
        specs.append(dataclasses.replace(spec, window_ns=(start, clipped)))
    return FaultPlan(seed=plan.seed, specs=tuple(specs))


def _mitigate(incident: Case, clip_ns: int) -> Tuple[bool, str]:
    """Re-run with the clipped plan; verify full recovery."""
    plan = _clip_plan(incident.plan, clip_ns)
    run = run_case(
        incident, plan=plan, until_ns=incident.horizon_ns + MITIGATION_GRACE_NS
    )
    incomplete = run.workload.incomplete(run.system)
    late_fires = sum(
        1 for time_ns, _kind, _site in run.injector.fired if time_ns >= clip_ns
    )
    ok = not incomplete and late_fires == 0
    note = (
        f"clipped fault windows at {clip_ns} ns: "
        f"{len(plan.specs)}/{len(incident.plan.specs)} specs kept, "
        f"fires_after_clip={late_fires}, "
        f"incomplete={','.join(incomplete) if incomplete else 'none'}"
    )
    return ok, note


# ------------------------------------------------------------- verification


def _verify_truth(
    incident: Case, journal: Journal, run: CaseRun
) -> Tuple[bool, List[str]]:
    """Check the answer key against what actually happened."""
    notes: List[str] = []
    truth = incident.truth
    injector = run.injector
    if run.error is not None:
        notes.append(f"run error: {run.error}")
    if not injector.fired:
        notes.append("plan never fired")
    else:
        first_fire = injector.fired[0][0]
        latest = truth.onset_ns + ONSET_SLACK_CADENCES * incident.cadence_ns
        if first_fire < truth.onset_ns or first_fire > latest:
            notes.append(
                f"first fire at {first_fire} ns is outside "
                f"[{truth.onset_ns}, {latest}] ns"
            )
    known_sites = set(journal.cabs()) | set(journal.links())
    for cab in journal.cabs():
        known_sites.add(f"{cab}.fiber-in")
        known_sites.add(f"{cab}.fiber-out")
    for site in truth.sites:
        if site not in known_sites:
            notes.append(f"truth site {site!r} is not in the journal vocabulary")
    for flow_name in truth.blast_radius:
        record = run.workload.flow_results.get(flow_name)
        if record is not None and record["completed_ns"] <= truth.onset_ns:
            notes.append(
                f"blast-radius flow {flow_name} completed at "
                f"{record['completed_ns']} ns, before the fault onset"
            )
    return (not notes), notes


def _shard_parity(incident: Case, run: CaseRun) -> bool:
    """Does a 2-worker sharded run reproduce the observed protocol digest?"""
    results = run.workload.results(run.system)
    reference = {
        "flows": results["flows"],
        "retransmits": results["retransmits"],
        "incomplete": sorted(run.workload.incomplete(run.system)),
    }
    sharded = Conductor(
        incident.fleet,
        incident.workload,
        n_workers=2,
        mode="inline",
        # The sharded run goes on to quiescence, which a timer armed
        # before the horizon may delay by one RTO; anything the protocols
        # do after the horizon makes the digests differ.
        limit_ns=incident.horizon_ns + MAX_RTO_NS,
        fault_plan=incident.plan,
    ).run()
    return sharded.protocol_digest() == reference


# ---------------------------------------------------------------- results


@dataclass
class IncidentResult:
    """Everything one scored incident run produced."""

    incident: Case
    journal: Journal
    alerts: List[Alert]
    candidates: List[str]
    deterministic: bool
    detected: bool
    time_to_detect_ns: Optional[int]
    truth_ok: bool
    truth_notes: List[str]
    mitigation_ok: bool
    mitigation_note: str
    shard_parity: Optional[bool]  # None when the incident does not claim it
    incomplete: Tuple[str, ...]
    fires_text: str
    score: int

    @property
    def passed(self) -> bool:
        return (
            self.deterministic
            and self.detected
            and self.truth_ok
            and self.mitigation_ok
            and self.shard_parity is not False
        )

    def render(self) -> str:
        """The incident's scorecard block of the lab report (byte-stable)."""
        incident = self.incident
        lines = [
            f"incident: {incident.name} (seed {incident.plan.seed})",
            f"  summary: {incident.summary}",
            f"  fleet: {incident.fleet.describe()}, "
            f"{len(incident.flows)} flows, "
            f"horizon={incident.horizon_ns} ns, cadence={incident.cadence_ns} ns",
            "  fault specs:",
        ]
        lines.extend(f"  {line}" for line in self.fires_text.splitlines())
        lines.append(
            f"  journal: samples={self.journal.n_samples} "
            f"events={len(self.journal.events)} "
            f"events_dropped={self.journal.events_dropped} "
            f"bytes={len(self.journal.render())} "
            f"sha256={self.journal.sha256()[:16]}"
        )
        if self.alerts:
            first = self.alerts[0]
            lines.append(
                f"  alerts: {len(self.alerts)} "
                f"(first at {first.time_ns} ns: {first.detector}/{first.signal})"
            )
        else:
            lines.append("  alerts: 0")
        if self.detected:
            lines.append(
                f"  detection: DETECTED time_to_detect={self.time_to_detect_ns} ns"
            )
        else:
            lines.append("  detection: MISSED")
        if self.candidates:
            top1 = self.candidates[0]
            hit = "HIT" if top1 in incident.truth.sites else "miss"
            shown = ",".join(self.candidates[:5])
            lines.append(f"  localization: top1={top1} [{hit}] candidates={shown}")
        else:
            lines.append("  localization: (no candidates)")
        lines.append(
            f"  mitigation: {'VERIFIED' if self.mitigation_ok else 'FAILED'} "
            f"({self.mitigation_note})"
        )
        truth_text = "OK" if self.truth_ok else "; ".join(self.truth_notes)
        lines.append(f"  ground truth: {truth_text}")
        if self.shard_parity is not None:
            lines.append(
                f"  shard parity (2 workers): "
                f"{'OK' if self.shard_parity else 'VIOLATED'}"
            )
        lines.append(
            f"  determinism (two identical runs): "
            f"{'OK' if self.deterministic else 'VIOLATED'}"
        )
        if self.incomplete:
            lines.append(f"  incomplete flows: {','.join(self.incomplete)}")
        lines.append(f"  score: {self.score}/100")
        return "\n".join(lines)


@dataclass
class LabReport:
    """All incidents, scored, with the overall verdict."""

    seed: int
    results: List[IncidentResult]

    @property
    def passed(self) -> bool:
        return all(result.passed for result in self.results)

    @property
    def total_score(self) -> int:
        return sum(result.score for result in self.results)

    def render(self) -> str:
        """The full report text gated against ``OPS_baseline.txt``."""
        lines = [f"ops lab: {len(self.results)} incidents (seed {self.seed})"]
        for result in self.results:
            lines.append("")
            lines.append(result.render())
        lines.append("")
        lines.append(
            f"total score: {self.total_score}/{100 * len(self.results)}"
        )
        lines.append(f"verdict: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)


# ---------------------------------------------------------------- scoring


def _score(
    incident: Case,
    detected: bool,
    time_to_detect_ns: Optional[int],
    candidates: List[str],
    mitigation_ok: bool,
) -> int:
    score = 0
    if detected:
        score += SCORE_DETECTED
        if time_to_detect_ns <= 2 * incident.cadence_ns:
            score += SCORE_TTD_FAST
        elif time_to_detect_ns <= 5 * incident.cadence_ns:
            score += SCORE_TTD_OK
    if candidates and candidates[0] in incident.truth.sites:
        score += SCORE_TOP1
    elif any(site in incident.truth.sites for site in candidates[:3]):
        score += SCORE_TOP3
    if mitigation_ok:
        score += SCORE_MITIGATED
    return score


# ------------------------------------------------------------ entry points


def run_incident(incident: Case) -> IncidentResult:
    """Run one incident end to end: observe, double-run, score, mitigate."""
    journal, run = _observed_run(incident)
    second_journal, second_run = _observed_run(incident)
    deterministic = (
        journal.render() == second_journal.render()
        and behavior_signature(run) == behavior_signature(second_run)
    )

    alerts = run_detectors(journal)
    candidates = localize(journal, alerts)
    onset = incident.truth.onset_ns
    detected = bool(alerts) and alerts[0].time_ns >= onset
    time_to_detect = alerts[0].time_ns - onset if detected else None

    truth_ok, truth_notes = _verify_truth(incident, journal, run)

    if alerts:
        mitigation_ok, mitigation_note = _mitigate(incident, alerts[0].time_ns)
    else:
        mitigation_ok, mitigation_note = False, "no alert to mitigate from"

    shard_parity = _shard_parity(incident, run) if incident.shard_check else None

    return IncidentResult(
        incident=incident,
        journal=journal,
        alerts=alerts,
        candidates=candidates,
        deterministic=deterministic,
        detected=detected,
        time_to_detect_ns=time_to_detect,
        truth_ok=truth_ok,
        truth_notes=truth_notes,
        mitigation_ok=mitigation_ok,
        mitigation_note=mitigation_note,
        shard_parity=shard_parity,
        incomplete=run.workload.incomplete(run.system),
        fires_text=run.injector.describe_fires(),
        score=_score(incident, detected, time_to_detect, candidates, mitigation_ok),
    )


def run_lab(seed: int = 7) -> LabReport:
    """Run and score every incident (every catalogue case with ground truth)."""
    cases = incidents(seed)
    results = [run_incident(cases[name]) for name in sorted(cases)]
    return LabReport(seed=seed, results=results)
