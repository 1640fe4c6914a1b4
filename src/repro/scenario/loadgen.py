"""The ``load`` scenario kind: a closed-loop multi-user capacity workload.

Laminar-style capacity methodology (PAPERS.md): rather than a single
operating point, report the **curve** — offered load (concurrent users)
against p50/p99 latency and delivered throughput.  Each user is a
closed-loop datagram ping-pong client on CAB ``a`` echoed by CAB ``b``
through one HUB; as users contend for the CAB CPUs and the fiber, tail
latency rises and per-user throughput flattens, which is exactly the
shape a capacity sweep exists to expose.

Everything reported from :func:`run_load` derives from simulated
quantities (integer nanoseconds, byte counts, event counts), so a sweep
over ``users`` is byte-stable run to run — the property the committed
``BENCH_load.json`` gate pins.
"""

from __future__ import annotations

from itertools import repeat

from repro.apps.traffic import Datagram, fork
from repro.bench.harness import two_nodes
from repro.errors import ConfigurationError
from repro.model.stats import LatencyRecorder
from repro.units import seconds

__all__ = ["run_load"]

_LIMIT = seconds(120)

#: Datagram port bases; user ``u`` binds client port BASE_A+u on CAB a and
#: echo port BASE_B+u on CAB b, keeping every user's traffic separable.
_BASE_A = 100
_BASE_B = 600


def run_load(
    users: int = 1,
    messages: int = 16,
    payload_bytes: int = 128,
    warmup: int = 2,
) -> dict:
    """Drive ``users`` concurrent ping-pong clients; return the point record.

    Returns a dict of deterministic series values for one operating
    point: message count, delivered payload bytes, simulated time,
    p50/p99/mean round-trip latency (us), throughput (Mbit/s of payload
    delivered back to the clients), and the engine's event count.
    """
    if users < 1:
        raise ConfigurationError(f"users must be >= 1, got {users}")
    if messages <= warmup:
        raise ConfigurationError(f"messages={messages} must exceed warmup={warmup}")
    system, node_a, node_b = two_nodes()
    payload = b"\xA5" * payload_bytes

    recorder = LatencyRecorder("load")
    done = system.sim.event()
    finished = [0]
    delivered = [0]

    def on_round(index: int, rtt_ns: int, nbytes: int) -> None:
        delivered[0] += nbytes
        if index >= warmup:
            recorder.record(rtt_ns)

    def on_finish() -> None:
        finished[0] += 1
        if finished[0] == users:
            done.succeed()

    for user in range(users):
        port_a, port_b = _BASE_A + user, _BASE_B + user
        client = Datagram(node_a, f"load-a-{user}", port_a, (node_b.node_id, port_b))
        server = Datagram(node_b, f"load-b-{user}", port_b, (node_a.node_id, port_a))
        fork(
            node_a,
            f"load-cl-{user}",
            # Each client copies its reply out before counting it.
            client.pingpong(
                repeat(payload, messages), on_round, take=lambda msg: len(msg.read())
            ),
            on_finish,
        )
        fork(node_b, f"load-echo-{user}", server.echo(messages), service=True)

    system.run_until(done, limit=_LIMIT)
    sim_ns = max(1, system.now)
    # Payload bits echoed back to the clients over the simulated interval.
    throughput_mbps = round(delivered[0] / 2 * 8 * 1e3 / sim_ns, 3)
    return {
        "users": users,
        "messages": users * messages,
        "payload_bytes": payload_bytes,
        "delivered_bytes": delivered[0],
        "events": system.sim.events_scheduled,
        "sim_ns": sim_ns,
        "p50_us": round(recorder.percentile_ns(50) / 1e3, 1),
        "p99_us": round(recorder.percentile_ns(99) / 1e3, 1),
        "mean_us": round(recorder.mean_us, 1),
        "throughput_mbps": throughput_mbps,
    }
