"""Chaos campaigns: the one verdict over the fault catalogue.

A campaign runs one :class:`~repro.faults.catalogue.Case` through
:func:`~repro.faults.catalogue.run_case` — four flows across a four-CAB
rig under a seeded fault plan (see :mod:`repro.faults.catalogue`) — and
checks the repo's core invariant: every flow record delivered **exactly
once, in order, bit-exact** (its delivered-bytes digest equals the digest
of the flow's own payloads).  It then runs the case again from scratch
and checks that the whole run (its last event's time, its event count,
every counter, every fault firing, every delivered byte) is
**deterministic** for the fixed seed.
``python -m repro bench chaos`` renders every campaign and gates the text
against ``CHAOS_baseline.txt``; exit status 0 means both invariants held.

The report is rendered only from simulated quantities (counters, the
simulated clock, payload digests), never wall-clock time, so two runs
with the same case and seed render byte-identical text.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict

from repro.faults.catalogue import Case, CaseRun, behavior_signature, run_case
from repro.telemetry.metrics import Histogram
from repro.units import ms, seconds

#: Fault fire-time histogram buckets (upper bounds, ns) and their labels.
_FIRE_BUCKETS = (ms(1), ms(10), ms(100), seconds(1), seconds(10))
_FIRE_LABELS = ("1ms", "10ms", "100ms", "1s", "10s")

#: Counter-name suffixes of each transport's recovery counter.
_RETRANSMITS = {
    "rmp": ".rmp_retransmits",
    "rpc": ".rpc_retries",
    "tcp": ".tcp_retransmits",
    "nmp": ".nmp_repairs_out",
}

__all__ = ["CampaignReport", "run_campaign"]


@dataclass
class CampaignReport:
    """The rendered result of a chaos campaign (including determinism)."""

    case: Case
    run: CaseRun
    counters: Dict[str, int]
    deterministic: bool

    def flow_status(self) -> Dict[str, str]:
        """Record name -> ``ok`` / ``incomplete`` / ``corrupt`` (delivered
        bytes differ from the flow's payloads: lost, duplicated, reordered
        or damaged)."""
        workload = self.run.workload
        status = {}
        for flow in workload.flows:
            expected = hashlib.sha256(b"".join(flow.payloads())).hexdigest()
            for name, _observer in workload.records(flow):
                digest = workload.digests.get(name)
                if digest is None:
                    status[name] = "incomplete"
                else:
                    status[name] = "ok" if digest == expected else "corrupt"
        return status

    @property
    def delivery_ok(self) -> bool:
        """Did every flow deliver exactly once, in order, bit-exact?"""
        return self.run.error is None and all(
            status == "ok" for status in self.flow_status().values()
        )

    @property
    def passed(self) -> bool:
        """Overall verdict: delivery invariant AND determinism."""
        return self.delivery_ok and self.deterministic

    def _counter(self, *suffixes: str) -> int:
        """Sum every counter whose name ends in one of ``suffixes``."""
        return sum(
            value for name, value in self.counters.items() if name.endswith(suffixes)
        )

    @property
    def retransmissions(self) -> int:
        """All retransmit counters across the four transports."""
        return self._counter(*_RETRANSMITS.values())

    @property
    def crc_drops(self) -> int:
        """Frames rejected by the receive-side hardware CRC check."""
        return self._counter(".hw.crc_errors")

    def render(self) -> str:
        """The stable multi-line report text (simulated quantities only)."""
        run = self.run
        workload = run.workload
        lines = [
            f"chaos campaign: {self.case.name} (seed {self.case.plan.seed})",
            # The last event's time, not sim.now: run(until=...) leaves the
            # clock at the horizon once the queue has drained.
            f"simulated time: {run.system.sim.last_event_ns} ns",
            "flows:",
        ]
        for name, status in self.flow_status().items():
            record = workload.flow_results.get(name)
            if record is None:
                lines.append(f"  {name}: [{status}]")
                continue
            lines.append(
                f"  {name}: {record['messages']} messages, {record['bytes']} B"
                f" [{status}] digest={workload.digests[name][:16]}"
            )
        if run.error is not None:
            lines.append(f"run error: {run.error}")
        # What the fault plan ate: fabric frames and mailbox messages
        # (``<cab>.mbox.<mailbox>.fault_lost_messages``).
        fault_drops = self.counters.get("net.frames_dropped", 0) + self._counter(
            ".fault_lost_messages"
        )
        lines.append(
            "recovery: "
            f"retransmissions={self.retransmissions} "
            f"crc_drops={self.crc_drops} "
            f"dropped={fault_drops + self.crc_drops}"
        )
        fault_totals = " ".join(
            f"{name.split('.', 1)[1]}={value}"
            for name, value in sorted(self.counters.items())
            if name.startswith("fault.")
        )
        lines.append(f"faults fired: {fault_totals or '(none)'}")
        lines.append("telemetry:")
        lines.append(
            "  retransmits: "
            + " ".join(
                f"{kind}={self._counter(suffix)}"
                for kind, suffix in _RETRANSMITS.items()
            )
        )
        # NACKs the members sent, and NACK timers a peer's repair cancelled.
        nacks = self._counter(".nmp_nacks_out")
        suppressed = self._counter(".nmp_nacks_suppressed")
        timers = nacks + suppressed
        effectiveness = (
            f"{100 * suppressed // timers}%" if timers else "n/a"
        )
        lines.append(
            "  nack suppression: "
            f"nacks={nacks} suppressed={suppressed} "
            f"effectiveness={effectiveness}"
        )
        injected = self._counter("fault.fault_drop", "fault.fault_mbox-lose")
        lines.append(f"  drops: injected={injected} observed={fault_drops}")
        hist = Histogram("fault.fire_time_ns", buckets=_FIRE_BUCKETS)
        for time_ns, _kind, _site in run.injector.fired:
            hist.observe(time_ns)
        buckets = " ".join(
            f"le_{label}={count}" for label, count in zip(_FIRE_LABELS, hist.counts)
        )
        lines.append(
            f"  fire times: {buckets} overflow={hist.overflow} count={hist.count}"
        )
        lines.append("fault specs:")
        lines.append(run.injector.describe_fires())
        lines.append(
            "invariant exactly-once in-order bit-exact delivery: "
            + ("OK" if self.delivery_ok else "VIOLATED")
        )
        lines.append(
            "invariant determinism (two identical runs): "
            + ("OK" if self.deterministic else "VIOLATED")
        )
        lines.append(f"verdict: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)


def run_campaign(case: Case) -> CampaignReport:
    """Run ``case`` twice and report delivery + determinism."""
    first = run_case(case)
    second = run_case(case)
    return CampaignReport(
        case=case,
        run=first,
        counters=first.system.metrics.counters(),
        deterministic=behavior_signature(first) == behavior_signature(second),
    )
