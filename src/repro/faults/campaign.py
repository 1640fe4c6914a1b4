"""Chaos campaigns: run the reliable transports under a fault plan.

A campaign assembles a four-CAB extension of the paper's measurement rig
(``cab-a`` through ``cab-d`` on one HUB), attaches the scenario's
:class:`~repro.faults.plan.FaultPlan`, and drives four concurrent
workloads across the faulty fabric:

* **RMP** — a stream of stop-and-wait messages (``cab-a`` -> ``cab-b``),
* **request-response** — an RPC client calling an echo-upper server,
* **TCP** — a byte stream pushed through a full connection,
* **NMP** — a reliable multicast stream from ``cab-a`` to the group
  {``cab-b``, ``cab-c``, ``cab-d``}: every member must see every message
  exactly once, in order, even when fan-out replicas are dropped on
  individual branches.

When the simulation settles, the campaign checks the repo's core invariant
— every workload delivered **exactly once, in order, bit-exact** — and
then re-runs the whole campaign from scratch to check that the entire run
(final clock, every counter, every fault firing, every delivered byte) is
**deterministic** for the fixed seed.  ``python -m repro bench chaos``
renders every campaign and gates the text against ``CHAOS_baseline.txt``;
exit status 0 means both invariants held.

The report is rendered only from simulated quantities (counters, the
simulated clock, payload digests), never wall-clock time, so two runs
with the same scenario and seed render byte-identical text.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.apps import traffic
from repro.errors import ProtocolError
from repro.sim.core import SimulationError
from repro.faults.scenarios import build
from repro.hub.groups import GROUP_BASE
from repro.system import NectarSystem
from repro.telemetry.metrics import Histogram
from repro.units import ms, seconds

#: Fault fire-time histogram buckets (upper bounds, ns) and their labels.
_FIRE_BUCKETS = (ms(1), ms(10), ms(100), seconds(1), seconds(10))
_FIRE_LABELS = ("1ms", "10ms", "100ms", "1s", "10s")

__all__ = ["CampaignReport", "WorkloadOutcome", "run_campaign"]

#: Simulated-time budget for one campaign run.  TCP's exponential RTO
#: backoff dominates the worst case; anything unfinished by now is stuck.
CAMPAIGN_DEADLINE_NS = seconds(30)


@dataclass
class _Sizes:
    """How much traffic each workload pushes."""

    rmp_messages: int
    rpc_requests: int
    tcp_bytes: int
    nmp_messages: int

    @classmethod
    def full(cls) -> "_Sizes":
        """The standard campaign load."""
        return cls(rmp_messages=12, rpc_requests=8, tcp_bytes=6144, nmp_messages=10)

    @classmethod
    def smoke(cls) -> "_Sizes":
        """A fast load for CI smoke runs."""
        return cls(rmp_messages=4, rpc_requests=3, tcp_bytes=1024, nmp_messages=4)


@dataclass
class WorkloadOutcome:
    """What one workload expected, what it got, and how it ended."""

    name: str
    expected: List[bytes] = field(default_factory=list)
    received: List[bytes] = field(default_factory=list)
    error: Optional[str] = None
    finished: bool = False

    @property
    def ok(self) -> bool:
        """Exactly-once, in-order, bit-exact — and nothing blew up."""
        return self.finished and self.error is None and self.received == self.expected

    def collect(self, delivery) -> None:
        """A traffic ``take``: copy one delivery into :attr:`received`."""
        self.received.append(delivery.read())

    def finish(self) -> None:
        """A final traffic step: everything expected has arrived."""
        self.finished = True

    def failed(self, who: str):
        """A traffic ``on_error`` recording ``who``'s ProtocolError verbatim."""

        def record(exc: ProtocolError) -> None:
            self.error = f"{who}: {exc}"

        return record

    def digest(self) -> str:
        """SHA-256 over the delivered payloads (order-sensitive)."""
        h = hashlib.sha256()
        for item in self.received:
            h.update(len(item).to_bytes(8, "big"))
            h.update(item)
        return h.hexdigest()


def _workload_rmp(a, b, outcome: WorkloadOutcome) -> None:
    """Fork the RMP stream workload onto the two nodes."""
    receiver = traffic.RMP(b, "chaos-rmp-inbox", 200, (a.node_id, 100))
    sender = traffic.RMP(a, None, 100, (b.node_id, 200))
    traffic.fork(
        a,
        "chaos-rmp-sender",
        sender.stream(outcome.expected),
        on_error=outcome.failed("sender"),
    )
    traffic.fork(
        b,
        "chaos-rmp-receiver",
        receiver.drain(messages=len(outcome.expected), take=outcome.collect),
        outcome.finish,
    )


def _workload_rpc(a, b, requests: List[bytes], outcome: WorkloadOutcome) -> None:
    """Fork the request-response workload (client on ``a``, server on ``b``).

    The echo-upper server replays duplicate requests from its cache.
    """
    traffic.rpc_service(
        b, "chaos-rpc-server", 700, lambda body, _header: body.upper()
    )
    client = traffic.RequestResponse(
        a, None, peer=(b.node_id, 700), timeout_ns=ms(2)
    )
    outcome.expected = [request.upper() for request in requests]
    traffic.fork(
        a,
        "chaos-rpc-client",
        client.pingpong(requests, take=outcome.collect),
        outcome.finish,
        on_error=outcome.failed("client"),
    )


def _workload_tcp(a, b, payload: bytes, outcome: WorkloadOutcome) -> None:
    """Fork the TCP stream workload (client on ``a`` pushes to ``b``)."""
    outcome.expected = [payload]
    server = traffic.TCP(b, "chaos-tcp-inbox", 7000)
    client = traffic.TCP(a, "chaos-tcp-cli", 6000, (b.ip_address, 7000))
    received = bytearray()
    traffic.fork(
        a,
        "chaos-tcp-client",
        client.stream([payload]),
        on_error=outcome.failed("client"),
    )
    traffic.fork(
        b,
        "chaos-tcp-collector",
        server.drain(nbytes=len(payload), take=lambda msg: received.extend(msg.read())),
        lambda: outcome.received.append(bytes(received)),
        outcome.finish,
    )


def _workload_nmp(system, sender, members, outcomes) -> None:
    """Fork the NMP multicast workload: one sender, every member a receiver.

    ``outcomes`` maps ``nmp-<member>`` to that member's
    :class:`WorkloadOutcome`; all share the same ``expected`` list, so the
    campaign's exactly-once/in-order invariant applies per member.
    """
    group_id = GROUP_BASE + 1
    port = 0x4100
    system.network.groups.register(group_id, tuple(n.name for n in members))
    source = traffic.NMP(
        sender, None, group_id, port, members=tuple(n.node_id for n in members)
    )
    expected = outcomes[f"nmp-{members[0].name}"].expected

    def sender_failed(exc: ProtocolError) -> None:
        for outcome in outcomes.values():
            if outcome.error is None:
                outcome.error = f"sender: {exc}"

    for rank, node in enumerate(members):
        outcome = outcomes[f"nmp-{node.name}"]
        member = traffic.NMP(node, f"chaos-nmp-{node.name}", group_id, port, rank=rank)
        traffic.fork(
            node,
            f"chaos-nmp-recv-{node.name}",
            member.drain(messages=len(outcome.expected), take=outcome.collect),
            outcome.finish,
        )
    traffic.fork(
        sender,
        "chaos-nmp-sender",
        source.stream(expected),
        on_error=sender_failed,
    )


@dataclass
class _CampaignRun:
    """Everything one execution of a campaign produced."""

    outcomes: Dict[str, WorkloadOutcome]
    counters: Dict[str, int]
    fired: Tuple[Tuple[int, str, str], ...]
    fires_text: str
    final_ns: int
    run_error: Optional[str]

    def signature(self) -> Tuple:
        """A value equal between two runs iff the runs were identical."""
        return (
            self.final_ns,
            tuple(sorted(self.counters.items())),
            self.fired,
            tuple(
                (name, out.finished, out.error, out.digest())
                for name, out in sorted(self.outcomes.items())
            ),
            self.run_error,
        )


def _run_once(scenario: str, seed: int, sizes: _Sizes) -> _CampaignRun:
    """Build a fresh rig, attach the plan, run all workloads to quiescence."""
    system = NectarSystem()
    hub = system.add_hub("hub0")
    a = system.add_node("cab-a", hub, 0)
    b = system.add_node("cab-b", hub, 1)
    c = system.add_node("cab-c", hub, 2)
    d = system.add_node("cab-d", hub, 3)
    injector = system.attach_fault_plan(build(scenario, seed))

    nmp_expected = [
        bytes([0x40 + index]) * (64 * (index % 3 + 1))
        for index in range(sizes.nmp_messages)
    ]
    outcomes = {
        "rmp": WorkloadOutcome(
            "rmp",
            expected=[
                bytes([index & 0xFF]) * (96 * (index % 5 + 1))
                for index in range(sizes.rmp_messages)
            ],
        ),
        "rpc": WorkloadOutcome("rpc"),
        "tcp": WorkloadOutcome("tcp"),
    }
    for member in (b, c, d):
        outcomes[f"nmp-{member.name}"] = WorkloadOutcome(
            f"nmp-{member.name}", expected=list(nmp_expected)
        )
    _workload_rmp(a, b, outcomes["rmp"])
    _workload_nmp(system, a, (b, c, d), outcomes)
    _workload_rpc(
        a,
        b,
        [b"request-%02d" % index * 8 for index in range(sizes.rpc_requests)],
        outcomes["rpc"],
    )
    _workload_tcp(
        a, b, bytes(range(256)) * (sizes.tcp_bytes // 256), outcomes["tcp"]
    )

    run_error: Optional[str] = None
    try:
        system.run(until=CAMPAIGN_DEADLINE_NS)
    except (ProtocolError, SimulationError) as exc:
        run_error = f"{type(exc).__name__}: {exc}"

    return _CampaignRun(
        outcomes=outcomes,
        counters=system.metrics.counters(),
        fired=tuple(injector.fired),
        fires_text=injector.describe_fires(),
        # The last event's time, not system.now: run(until=...) leaves the
        # clock at the deadline once the queue has drained.
        final_ns=system.sim.last_event_ns,
        run_error=run_error,
    )


@dataclass
class CampaignReport:
    """The rendered result of a chaos campaign (including determinism)."""

    scenario: str
    seed: int
    run: _CampaignRun
    deterministic: bool

    @property
    def delivery_ok(self) -> bool:
        """Did every workload deliver exactly once, in order, bit-exact?"""
        return self.run.run_error is None and all(
            out.ok for out in self.run.outcomes.values()
        )

    @property
    def passed(self) -> bool:
        """Overall verdict: delivery invariant AND determinism."""
        return self.delivery_ok and self.deterministic

    def _counter(self, *names: str) -> int:
        """Sum the named counters across the run."""
        return sum(self.run.counters.get(name, 0) for name in names)

    @property
    def retransmissions(self) -> int:
        """All retransmit counters across the four transports."""
        return self._counter(
            "cab-a.rmp_retransmits",
            "cab-b.rmp_retransmits",
            "cab-a.rpc_retries",
            "cab-b.rpc_retries",
            "cab-a.tcp_retransmits",
            "cab-b.tcp_retransmits",
            "cab-a.nmp_repairs_out",
        )

    @property
    def nmp_nacks(self) -> int:
        """NACKs actually put on the wire by the multicast members."""
        return self._counter(*(f"cab-{m}.nmp_nacks_out" for m in "bcd"))

    @property
    def nmp_suppressed(self) -> int:
        """NACK timers cancelled because another member's repair arrived."""
        return self._counter(*(f"cab-{m}.nmp_nacks_suppressed" for m in "bcd"))

    @property
    def crc_drops(self) -> int:
        """Frames rejected by the receive-side hardware CRC check."""
        return self._counter(*(f"cab-{m}.hw.crc_errors" for m in "abcd"))

    @property
    def fault_drops(self) -> int:
        """Frames/messages the fault plan ate: fabric, datalink, mailboxes."""
        return self._counter(
            "net.frames_dropped",
            *(f"cab-{m}.hw.dl_fault_drops" for m in "abcd"),
        ) + sum(
            value
            for name, value in self.run.counters.items()
            if name.endswith(".fault_lost_messages")  # <cab>.mbox.<mailbox>
        )

    @property
    def dropped(self) -> int:
        """Frames/messages eaten anywhere: fabric, CRC, datalink, mailbox."""
        return self.fault_drops + self.crc_drops

    def render(self) -> str:
        """The stable multi-line report text (simulated quantities only)."""
        run = self.run
        lines = [
            f"chaos campaign: {self.scenario} (seed {self.seed})",
            f"simulated time: {run.final_ns} ns",
            "workloads:",
        ]
        for name in sorted(run.outcomes):
            out = run.outcomes[name]
            status = "ok" if out.ok else (out.error or "incomplete")
            lines.append(
                f"  {name}: delivered {len(out.received)}/{len(out.expected)}"
                f" [{status}] digest={out.digest()[:16]}"
            )
        if run.run_error is not None:
            lines.append(f"run error: {run.run_error}")
        lines.append(
            "recovery: "
            f"retransmissions={self.retransmissions} "
            f"crc_drops={self.crc_drops} "
            f"dropped={self.dropped}"
        )
        fault_totals = " ".join(
            f"{name.split('.', 1)[1]}={value}"
            for name, value in sorted(run.counters.items())
            if name.startswith("fault.")
        )
        lines.append(f"faults fired: {fault_totals or '(none)'}")
        lines.append("telemetry:")
        lines.append(
            "  retransmits: "
            f"rmp={self._counter('cab-a.rmp_retransmits', 'cab-b.rmp_retransmits')}"
            f" rpc={self._counter('cab-a.rpc_retries', 'cab-b.rpc_retries')}"
            f" tcp={self._counter('cab-a.tcp_retransmits', 'cab-b.tcp_retransmits')}"
            f" nmp={self._counter('cab-a.nmp_repairs_out')}"
        )
        nacks = self.nmp_nacks
        suppressed = self.nmp_suppressed
        timers = nacks + suppressed
        effectiveness = (
            f"{100 * suppressed // timers}%" if timers else "n/a"
        )
        lines.append(
            "  nack suppression: "
            f"nacks={nacks} suppressed={suppressed} "
            f"effectiveness={effectiveness}"
        )
        injected = self._counter(
            "fault.fault_drop", "fault.fault_rx-drop", "fault.fault_mbox-lose"
        )
        lines.append(f"  drops: injected={injected} observed={self.fault_drops}")
        hist = Histogram("fault.fire_time_ns", buckets=_FIRE_BUCKETS)
        for time_ns, _kind, _site in run.fired:
            hist.observe(time_ns)
        buckets = " ".join(
            f"le_{label}={count}" for label, count in zip(_FIRE_LABELS, hist.counts)
        )
        lines.append(
            f"  fire times: {buckets} overflow={hist.overflow} count={hist.count}"
        )
        lines.append("fault specs:")
        lines.append(run.fires_text)
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


def run_campaign(scenario: str, seed: int, smoke: bool = False) -> CampaignReport:
    """Run the named scenario twice and report delivery + determinism."""
    sizes = _Sizes.smoke() if smoke else _Sizes.full()
    first = _run_once(scenario, seed, sizes)
    second = _run_once(scenario, seed, sizes)
    return CampaignReport(
        scenario=scenario,
        seed=seed,
        run=first,
        deterministic=first.signature() == second.signature(),
    )

