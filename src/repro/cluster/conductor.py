"""Adaptive conservative synchronization across shard simulators.

The original conductor advanced every shard in lock-step windows of one
global worst-case lookahead — ``CostModel.fiber_propagation_ns``, the
minimum time for anything to cross an inter-HUB fiber.  Safe, but slow:
a run that needs 2,500 such windows spends almost all of them exchanging
nothing (see docs/scaling.md for the postmortem).  This conductor keeps
the same conservative guarantee while sizing every window from what the
shards actually report:

* **Emission bounds.**  Each shard exposes
  :meth:`~repro.hub.network.NectarNetwork.next_emission_bound` — a proven
  lower bound on when it could next put a hand-off on a cut fiber
  (``None`` = never, until injected into).  Bounds come from live
  transmission intents plus an event-to-emission floor, not from the
  worst case.

* **Asymmetric horizons.**  :meth:`Partitioner.shard_distances` gives the
  minimum cut-crossing cost ``D[j][i]`` between every shard pair.  Shard
  ``i`` may safely run to ``horizon(i) = min over j != i of
  (bound(j) + D[j][i])``, exclusive: nothing another shard does from here
  on can be observed in ``i`` before that.  Adjacent shards constrain each
  other by one propagation delay; distant shards by several; idle shards
  (bound ``None``) not at all.

* **Epoch grants with null-message elision.**  Per barrier, only shards
  with work strictly before their horizon are granted an epoch
  ``[t, horizon)``; the rest are skipped — the classic CMB null message,
  elided.  When every other shard is provably quiet the grant is
  unbounded and one epoch runs the whole idle tail.

* **Emission-margin parking.**  A granted shard does not stop at its
  first boundary emission; it keeps executing while its next event is
  within the emission's causal shadow (one forwarding hop plus two
  propagation delays away), batching chatty windows into one exchange.

* **Seam fast path.**  A barrier with zero hand-offs skips the sort /
  group / inject machinery entirely.

Exchange stays deterministic by construction: hand-offs are sorted by
``(fire_ns, key)`` before injection, and the keys themselves (source hub,
output port, per-site sequence) are shard-independent, so the merged
result is a pure function of the fleet, workload, and seed — never of
worker scheduling or of the window schedule.  ``workers=1`` and
``workers=N`` runs, and the unsharded single-``Simulator`` reference, all
produce bit-identical protocol-level results, and inline and process
modes take bit-identical conductor decisions (same barriers, same
epochs) because those decisions are pure functions of the shard states.

In process mode the conductor hosts shard 0 itself and forks one worker
process for each other shard, so n shards run on n processes.  Only the
workers use the seam transport: their bulk hand-off records ride per-shard
shared-memory :class:`~repro.buf.ring.HandoffRing` pairs, and the pipe
carries only verbs, counts, and overflow (see ``runner.worker_main`` for
the protocol).  Shard 0's hand-offs pass by reference, as in inline mode.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass, field
from multiprocessing.sharedctypes import RawArray, RawValue
from typing import Dict, List, Optional

from repro.buf.ring import HandoffRing
from repro.cluster.fleet import FleetSpec, build_fleet_system
from repro.cluster.partition import Partition, Partitioner
from repro.cluster.runner import ShardRunner, worker_main
from repro.cluster.workload import Workload, WorkloadSpec
from repro.errors import ConfigurationError
from repro.model.costs import DEFAULT_COSTS

__all__ = ["Conductor", "FleetResult", "run_reference"]

#: Shared-memory ring size per direction per shard.  Generously above the
#: common per-window hand-off volume; overflow falls back to the pipe.
RING_CAPACITY = 1 << 16


@dataclass
class FleetResult:
    """The merged outcome of a fleet run.

    ``flows`` / ``retransmits`` / ``incomplete`` are protocol-level and
    bit-identical across worker counts; ``events`` / ``sim_ns`` and the
    conductor counters (``barriers`` through ``handoffs``) are meter
    readings that are deterministic for a given worker count and identical
    across inline/process modes; ``ring_bytes`` / ``pickle_bytes`` are
    transport meters (process mode's worker shards only — a shard in the
    conductor's process has no seam transport).
    """

    n_workers: int
    mode: str
    #: flow name -> {kind, src, dst, bytes, messages, completed_ns}
    flows: Dict[str, dict] = field(default_factory=dict)
    #: node name -> {rmp_retransmits, rpc_retries, tcp_retransmits,
    #: nmp_nacks, nmp_repairs}
    retransmits: Dict[str, dict] = field(default_factory=dict)
    #: locally-observed flows that never finished (should be empty)
    incomplete: List[str] = field(default_factory=list)
    events: int = 0
    sim_ns: int = 0
    #: synchronization rounds driven (each with at least one grant)
    barriers: int = 0
    #: per-shard windows granted across all barriers
    epochs: int = 0
    #: shard-barrier slots skipped (the elided CMB null messages)
    null_elided: int = 0
    #: barriers that exchanged nothing and skipped the seam machinery
    fastpath: int = 0
    #: hand-off records exchanged across cuts
    handoffs: int = 0
    #: payload+record bytes that rode the shared-memory rings
    ring_bytes: int = 0
    #: payload bytes that overflowed to pickled pipe transport
    pickle_bytes: int = 0

    @property
    def recoveries(self) -> int:
        """Every retransmission, retry, NACK and repair of the run: zero
        without a fault plan, because no timer fires on a lossless fabric."""
        return sum(sum(rec.values()) for rec in self.retransmits.values())

    def protocol_digest(self) -> dict:
        """The parity currency: everything that must match bit-for-bit."""
        return {
            "flows": {name: dict(rec) for name, rec in sorted(self.flows.items())},
            "retransmits": {
                name: dict(rec) for name, rec in sorted(self.retransmits.items())
            },
            "incomplete": sorted(self.incomplete),
        }


# ---------------------------------------------------------------- shard proxies


class _InlineShard:
    """A shard executed in the conductor's process (zero IPC, no seam
    transport): every shard in inline mode, shard 0 in process mode."""

    def __init__(self, fleet, partition, shard_id, workload_spec, fault_plan=None):
        self.runner = ShardRunner(
            fleet, partition, shard_id, workload_spec, fault_plan=fault_plan
        )
        self._pending = None
        self.seam_ring_bytes = 0
        self.seam_pickle_bytes = 0

    def initial_state(self):
        return self.runner.sync_state()

    def begin_advance(self, until: Optional[int]) -> None:
        self.runner.advance(until)
        self._pending = (self.runner.take_outbox(), self.runner.sync_state())

    def finish_advance(self):
        pending, self._pending = self._pending, None
        return pending

    def inject(self, handoffs):
        self.runner.inject(handoffs)
        return self.runner.sync_state()

    def results(self) -> dict:
        return self.runner.results()

    def stop(self) -> None:
        pass


class _ProcessShard:
    """A shard in a worker process: pipe for verbs, shared rings for bulk."""

    def __init__(
        self,
        context,
        fleet,
        partition,
        shard_id,
        workload_spec,
        fault_plan=None,
    ):
        self.shard_id = shard_id
        # Ring storage and index cells live in shared anonymous memory,
        # created before the fork so both sides address the same pages.
        tx_storage = RawArray("B", RING_CAPACITY)
        tx_head, tx_tail = RawValue("Q", 0), RawValue("Q", 0)
        rx_storage = RawArray("B", RING_CAPACITY)
        rx_head, rx_tail = RawValue("Q", 0), RawValue("Q", 0)
        # Conductor's view: pops what the worker transmits, pushes what
        # the worker will receive.
        self.tx_ring = HandoffRing(
            tx_storage, tx_head, tx_tail, label=f"shard{shard_id}-tx"
        )
        self.rx_ring = HandoffRing(
            rx_storage, rx_head, rx_tail, label=f"shard{shard_id}-rx"
        )
        self.seam_pickle_bytes = 0
        self.conn, child = context.Pipe()
        self.process = context.Process(
            target=worker_main,
            args=(
                child,
                fleet,
                partition,
                shard_id,
                workload_spec,
                (tx_storage, tx_head, tx_tail, rx_storage, rx_head, rx_tail),
                fault_plan,
            ),
            name=f"nectar-shard-{shard_id}",
            daemon=True,
        )
        self.process.start()
        child.close()

    @property
    def seam_ring_bytes(self) -> int:
        """Bytes this side pushed into the worker's inbound ring."""
        return self.rx_ring.pushed_bytes

    def _worker_died(self, exc: BaseException) -> RuntimeError:
        """A pipe failure means the worker is gone: name it and its exit."""
        # OS-process join, not a simulation thread: reap it for the exitcode.
        self.process.join(timeout=10)  # nectarlint: disable=NS101
        return RuntimeError(
            f"shard {self.shard_id} worker exited "
            f"(exitcode {self.process.exitcode}) mid-run: "
            f"{type(exc).__name__} on its pipe"
        )

    def _send(self, message) -> None:
        try:
            self.conn.send(message)
        except OSError as exc:
            raise self._worker_died(exc) from exc

    def _recv(self):
        try:
            reply = self.conn.recv()
        except (EOFError, OSError) as exc:
            raise self._worker_died(exc) from exc
        if reply[0] != "ok":
            raise RuntimeError(f"shard worker failed: {reply[1]}")
        return reply[1:]

    def initial_state(self):
        return self._recv()[0]

    def begin_advance(self, until: Optional[int]) -> None:
        self._send(("advance", until))

    def finish_advance(self):
        ringed, overflow, state = self._recv()
        outbox = self.tx_ring.pop_many(ringed) if ringed else []
        outbox.extend(overflow)
        return outbox, state

    def inject(self, handoffs):
        ringed = 0
        overflow = []
        use_ring = True
        for handoff in handoffs:
            if use_ring and self.rx_ring.push(handoff):
                ringed += 1
            else:
                # First miss flips the whole remainder to the pipe so the
                # worker reconstructs the batch in FIFO order.
                use_ring = False
                self.seam_pickle_bytes += len(handoff.payload)
                overflow.append(handoff)
        self._send(("inject", ringed, overflow))
        return self._recv()[0]

    def results(self) -> dict:
        self._send(("results",))
        return self._recv()[0]

    def stop(self) -> None:
        try:
            self.conn.send(("stop",))
        except (BrokenPipeError, OSError):
            pass
        # OS-process join, not a simulation thread.
        self.process.join(timeout=10)  # nectarlint: disable=NS101
        if self.process.is_alive():  # pragma: no cover - defensive
            self.process.terminate()
            self.process.join(timeout=10)  # nectarlint: disable=NS101
        self.conn.close()


def _fork_context():
    """Prefer fork (cheap, Linux); fall back to spawn elsewhere."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-fork platforms
        return multiprocessing.get_context("spawn")


# -------------------------------------------------------------------- conductor


class Conductor:
    """Partition a fleet, run its shards in adaptive epochs, merge results."""

    def __init__(
        self,
        fleet: FleetSpec,
        workload_spec: WorkloadSpec,
        n_workers: int = 1,
        mode: str = "inline",
        strategy: str = "contiguous",
        limit_ns: Optional[int] = None,
        fault_plan=None,
    ):
        if mode not in ("inline", "process"):
            raise ConfigurationError(
                f"unknown conductor mode {mode!r} (choose inline or process)"
            )
        self.fleet = fleet
        self.workload_spec = workload_spec
        self.mode = mode
        self.partition = Partitioner.partition(fleet, n_workers, strategy)
        #: Shared fault plan: every shard attaches the same plan, so each
        #: injector fires against the sites that are physically local to it.
        self.fault_plan = fault_plan
        #: One fiber's propagation delay: the per-cut unit of lookahead.
        self.lookahead_ns = DEFAULT_COSTS.fiber_propagation_ns
        #: Minimum cut-crossing cost between every shard pair, in ns.
        self.distances = Partitioner.shard_distances(
            fleet, self.partition, self.lookahead_ns
        )
        self.limit_ns = limit_ns
        self._hub_shard = {
            hub: shard_id
            for shard_id, hubs in enumerate(self.partition.shards)
            for hub in hubs
        }

    def run(self) -> FleetResult:
        """Drive every shard to quiescence; return the merged result."""
        n = self.partition.n_shards
        # Process mode hosts shard 0 here and forks a worker for each other
        # shard: n shards on n processes.  The workers fork first, so they
        # build their shards while this process builds shard 0, and every
        # build sits inside the ``finally`` so a failed one leaves no worker.
        workers = range(1, n) if self.mode == "process" else range(0)
        shards = []
        try:
            context = _fork_context()
            for i in workers:
                shards.append(
                    _ProcessShard(
                        context,
                        self.fleet,
                        self.partition,
                        i,
                        self.workload_spec,
                        self.fault_plan,
                    )
                )
            shards = [
                _InlineShard(
                    self.fleet,
                    self.partition,
                    i,
                    self.workload_spec,
                    self.fault_plan,
                )
                for i in range(n - len(workers))
            ] + shards
            return self._drive(shards)
        finally:
            for shard in shards:
                shard.stop()

    def _horizon(self, states, index: int) -> Optional[int]:
        """Exclusive safe-run bound for one shard, from everyone else's
        emission bounds plus the inter-shard distance matrix.  ``None``
        means unconstrained: every other shard is provably quiet."""
        horizon = None
        for j, (_t, bound) in enumerate(states):
            if j == index or bound is None:
                continue
            distance = self.distances[j][index]
            if distance is None:
                continue
            reach = bound + distance
            if horizon is None or reach < horizon:
                horizon = reach
        return horizon

    def _drive(self, shards) -> FleetResult:
        states = [shard.initial_state() for shard in shards]
        n = len(shards)
        barriers = epochs = null_elided = fastpath = total_handoffs = 0
        while True:
            pending = [t for t, _bound in states if t is not None]
            if not pending:
                break
            start = min(pending)
            if self.limit_ns is not None and start > self.limit_ns:
                raise RuntimeError(
                    f"fleet still active past limit ({start} > {self.limit_ns} ns); "
                    f"incomplete flows or a runaway timer?"
                )
            # Grant an epoch [t, horizon) to every shard whose next event
            # is strictly inside its horizon; skip the rest (their CMB
            # null message is thereby elided).  The minimum-time shard is
            # always grantable — its horizon exceeds its own next event —
            # so every barrier makes progress.
            grants = []
            for index in range(n):
                next_time = states[index][0]
                if next_time is None:
                    null_elided += 1
                    continue
                horizon = self._horizon(states, index)
                if horizon is not None and next_time >= horizon:
                    null_elided += 1
                    continue
                grants.append(
                    (index, None if horizon is None else horizon - 1)
                )
            if not grants:  # pragma: no cover - would break the progress proof
                raise RuntimeError(
                    f"conductor deadlock: no shard grantable at t={start}"
                )
            # Grants are in shard order, so a worker's ``advance`` goes out
            # before shard 0 advances in place and the two run together.
            for index, until in reversed(grants):
                shards[index].begin_advance(until)
            window = []
            for index, until in grants:
                outbox, states[index] = shards[index].finish_advance()
                window.extend(outbox)
            barriers += 1
            epochs += len(grants)
            if not window:
                fastpath += 1
                continue
            total_handoffs += len(window)
            window.sort(key=lambda h: (h.fire_ns, h.key))
            by_shard = {}
            for handoff in window:
                by_shard.setdefault(
                    self._hub_shard[handoff.dst_hub], []
                ).append(handoff)
            for shard_id, batch in sorted(by_shard.items()):
                states[shard_id] = shards[shard_id].inject(batch)
        counters = {
            "barriers": barriers,
            "epochs": epochs,
            "null_elided": null_elided,
            "fastpath": fastpath,
            "handoffs": total_handoffs,
        }
        return self._merge([shard.results() for shard in shards], shards, counters)

    def _merge(self, shard_results, shards, counters) -> FleetResult:
        result = FleetResult(
            n_workers=self.partition.n_shards, mode=self.mode, **counters
        )
        for shard in shard_results:
            overlap = set(result.flows) & set(shard["flows"])
            if overlap:  # pragma: no cover - would be a partitioning bug
                raise RuntimeError(f"flows observed by two shards: {sorted(overlap)}")
            result.flows.update(shard["flows"])
            result.retransmits.update(shard["retransmits"])
            result.incomplete.extend(shard["incomplete"])
            result.events += shard["events"]
            result.sim_ns = max(result.sim_ns, shard["sim_ns"])
            seam = shard.get("seam")
            if seam:
                result.ring_bytes += seam["ring_bytes"]
                result.pickle_bytes += seam["pickle_bytes"]
        for shard in shards:
            result.ring_bytes += shard.seam_ring_bytes
            result.pickle_bytes += shard.seam_pickle_bytes
        result.flows = dict(sorted(result.flows.items()))
        result.retransmits = dict(sorted(result.retransmits.items()))
        result.incomplete.sort()
        return result


def run_reference(fleet: FleetSpec, workload_spec: WorkloadSpec) -> FleetResult:
    """The unsharded baseline: one Simulator runs the whole fleet."""
    system = build_fleet_system(fleet)
    workload = Workload(workload_spec, fleet)
    workload.install(system)
    system.run()
    merged = FleetResult(n_workers=0, mode="reference")
    results = workload.results(system)
    merged.flows = results["flows"]
    merged.retransmits = results["retransmits"]
    merged.incomplete = sorted(workload.incomplete(system))
    merged.events = system.sim.events_scheduled
    merged.sim_ns = system.sim.now
    return merged
