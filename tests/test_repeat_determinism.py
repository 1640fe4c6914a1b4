"""Three builds, one process, identical fingerprints.

A simulation must not depend on how many systems the interpreter built
before it.  ``TCPConnection`` numbered connections from a process-wide
counter that seeds the ISS, so the *third* system built in a process sent
other header bytes than the first and — through the checksum-field-is-0
skip in ``tcp.py`` — simulated a different run.  Every workload here is
built and run three times in this interpreter and must give the same
``(events_scheduled, now, digest of what was delivered)`` each time.
"""

import hashlib
import json
import random

import pytest

from repro.apps import traffic
from repro.apps.throughput import host_tcp_throughput
from repro.bench.harness import two_hosted_nodes, two_nodes
from repro.cluster.conductor import run_reference
from repro.cluster.fleet import line_fleet
from repro.cluster.workload import WorkloadSpec
from repro.faults.catalogue import behavior_signature, run_case
from repro.sim.trace import TraceRecorder
from repro.units import seconds
from tests.conftest import shrunk_case

ROUNDS = 6


def three_times(run):
    return [run() for _ in range(3)]


def seeded_messages(seed, size, count):
    data = random.Random(seed).randbytes(size * count)
    return [data[i * size : (i + 1) * size] for i in range(count)]


def fingerprint(system, delivered):
    return system.sim.events_scheduled, system.now, delivered.hexdigest()


def pingpong_once(kind, rig):
    system, a, b = rig()
    client, server = traffic.pair(kind, a, b, "rep-a", "rep-b")
    done = system.sim.event()
    delivered = hashlib.sha256()
    traffic.fork(b, "rep-echo", server.echo(), service=True)
    traffic.fork(
        a,
        "rep-client",
        client.pingpong(
            seeded_messages(17, 96, ROUNDS),
            lambda _index, _rtt_ns, reply: delivered.update(reply),
            take=traffic.copy,
        ),
        done.succeed,
    )
    system.run_until(done, limit=seconds(10))
    return fingerprint(system, delivered)


def tcp_stream_once(seed, size, count):
    system, a, b = two_nodes()
    sender, receiver = traffic.pair("tcp", a, b, "rep-cli", "rep-srv")
    done = system.sim.event()
    delivered = hashlib.sha256()
    traffic.fork(a, "rep-sender", sender.stream(seeded_messages(seed, size, count)))
    traffic.fork(
        b,
        "rep-receiver",
        receiver.drain(nbytes=size * count, take=lambda msg: delivered.update(msg.read())),
        done.succeed,
    )
    system.run_until(done, limit=seconds(60))
    system.run()  # let the last ACKs and the timer thread settle
    return fingerprint(system, delivered)


@pytest.mark.parametrize("rig", [two_nodes, two_hosted_nodes], ids=["cab", "host"])
@pytest.mark.parametrize("kind", ["datagram", "rmp", "request-response", "udp"])
def test_message_endpoints_repeat(kind, rig):
    first, second, third = three_times(lambda: pingpong_once(kind, rig))
    assert first == second == third


def test_datagram_rtt_trace_repeats():
    """The Table-1 datagram RTT run, down to every ``(time, component,
    label)`` trace record, latency sample and the final clock: any hidden
    global state, host-clock read or iteration-order dependence shows."""

    def once():
        system, a, b = two_nodes()
        recorder = TraceRecorder()
        system.tracer.sink = recorder
        latencies = traffic.measure_rtt(system, a, b, "datagram", rounds=8, warmup=2)
        records = [(e.time_ns, e.component, e.label) for e in recorder.events]
        return records, latencies.samples_ns, system.now

    first, second, third = three_times(once)
    assert first == second == third
    records, samples, now = first
    assert records and len(samples) == 8 - 2 and now > 0


def test_frame_span_ids_repeat():
    """A frame's async span id is its seqno, numbered per network: the
    third build records the same raw ids as the first."""

    def once():
        system, a, b = two_nodes()
        recorder = TraceRecorder()
        system.tracer.sink = recorder
        traffic.measure_rtt(system, a, b, "datagram", rounds=4, warmup=1)
        return [(e.phase, e.span_id) for e in recorder.events if e.span_id is not None]

    first, second, third = three_times(once)
    assert first == second == third
    assert first[:2] == [("b", 1), ("e", 1)]


def test_tcp_between_cab_threads_repeats():
    first, second, third = three_times(lambda: tcp_stream_once(5, 1024, 24))
    assert first == second == third


def test_tcp_between_host_processes_repeats():
    def once():
        system, hosted_a, hosted_b = two_hosted_nodes()
        mbps = host_tcp_throughput(system, hosted_a, hosted_b, 1024, count=12)
        return system.sim.events_scheduled, system.now, mbps

    first, second, third = three_times(once)
    assert first == second == third


def test_bulk_tcp_third_build_matches_the_first():
    """The run that exposed the counter: 450 x 8 KB from seed 201.  With the
    process-wide id source the third build lost 3 events and 85 us."""
    first, second, third = three_times(lambda: tcp_stream_once(201, 8192, 450))
    assert first[:2] == (65_546, 859_226_160)
    assert first == second == third


def test_default_fleet_mix_repeats():
    def once():
        result = run_reference(line_fleet(3, 2), WorkloadSpec())
        assert not result.incomplete
        flows = json.dumps([result.flows, result.retransmits], sort_keys=True)
        return result.events, result.sim_ns, hashlib.sha256(flows.encode()).hexdigest()

    first, second, third = three_times(once)
    assert first == second == third


def test_chaos_lossy_link_repeats():
    first, second, third = three_times(
        lambda: behavior_signature(run_case(shrunk_case("lossy-link", 7)))
    )
    assert first == second == third
