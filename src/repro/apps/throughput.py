"""Figure 8's byte-stream measurements: host processes over a socket.

The message transports are measured by
:func:`repro.apps.traffic.measure_throughput`; these three stream through
an API that hands the receiver bytes, not deliveries, so each reads
``warmup`` messages' worth, starts the clock, and reads the rest.

* ``host_tcp_throughput`` — the socket emulation over on-CAB TCP.
* ``netdev_throughput`` / ``ethernet_throughput`` — the Figure 8 baselines:
  the same Berkeley-style host stack over the CAB-as-network-device and
  over the on-board Ethernet.
"""

from __future__ import annotations

from typing import Generator

from repro.host.ethernet import EthernetNIC, EthernetSegment
from repro.host.hoststack import HostStream
from repro.host.machine import HostedNode
from repro.host.netdev import NetdevNIC
from repro.host.sockets import SocketLibrary
from repro.system import NectarSystem
from repro.units import seconds, throughput_mbps

__all__ = ["ethernet_throughput", "host_tcp_throughput", "netdev_throughput"]

_LIMIT = seconds(600)


def host_tcp_throughput(
    system: NectarSystem,
    hosted_a: HostedNode,
    hosted_b: HostedNode,
    message_size: int,
    count: int = 40,
    warmup: int = 3,
) -> float:
    """TCP stream between host processes through the socket emulation."""
    lib_a = SocketLibrary(hosted_a)
    lib_b = SocketLibrary(hosted_b)
    done = system.sim.event()
    payload = b"\xCD" * message_size
    total = message_size * count
    warm_bytes = message_size * warmup
    marks = {}

    def server() -> Generator:
        yield from lib_b.init()
        sock = lib_b.socket()
        listener = yield from sock.listen(7000)
        yield from sock.accept(listener)
        yield from sock.recv(warm_bytes)
        marks["start"] = system.now
        yield from sock.recv(total)
        done.succeed(system.now)

    def client() -> Generator:
        yield from lib_a.init()
        sock = lib_a.socket()
        yield from sock.connect(hosted_b.node.ip_address, 7000, 6000)
        for _ in range(count + warmup):
            yield from sock.send(payload)

    hosted_b.host.fork_process(server(), "tp-server")
    hosted_a.host.fork_process(client(), "tp-client")
    end = system.run_until(done, limit=_LIMIT)
    return throughput_mbps(total, end - marks["start"])


def netdev_throughput(
    system: NectarSystem,
    hosted_a: HostedNode,
    hosted_b: HostedNode,
    message_size: int,
    count: int = 40,
    warmup: int = 3,
) -> float:
    """Host stack over the CAB-as-network-device (paper: ~6.4 Mbit/s)."""
    nic_a = NetdevNIC(hosted_a)
    nic_b = NetdevNIC(hosted_b)
    return _host_stack_throughput(
        system,
        hosted_a,
        hosted_b,
        nic_a,
        nic_b,
        peer_a=hosted_b.node.name,
        peer_b=hosted_a.node.name,
        message_size=message_size,
        count=count,
        warmup=warmup,
        map_memory=True,
    )


def ethernet_throughput(
    system: NectarSystem,
    hosted_a: HostedNode,
    hosted_b: HostedNode,
    message_size: int,
    count: int = 40,
    warmup: int = 3,
) -> float:
    """Host stack over the on-board Ethernet (paper: ~7.2 Mbit/s)."""
    segment = EthernetSegment(system.sim, system.costs)
    nic_a = EthernetNIC(hosted_a.host, segment)
    nic_b = EthernetNIC(hosted_b.host, segment)
    return _host_stack_throughput(
        system,
        hosted_a,
        hosted_b,
        nic_a,
        nic_b,
        peer_a=hosted_b.host.name,
        peer_b=hosted_a.host.name,
        message_size=message_size,
        count=count,
        warmup=warmup,
        map_memory=False,
    )


def _host_stack_throughput(
    system: NectarSystem,
    hosted_a: HostedNode,
    hosted_b: HostedNode,
    nic_a,
    nic_b,
    peer_a: str,
    peer_b: str,
    message_size: int,
    count: int,
    warmup: int,
    map_memory: bool,
) -> float:
    done = system.sim.event()
    total = message_size * count
    warm_bytes = message_size * warmup
    payload = b"\xEF" * message_size
    marks = {}

    def sender() -> Generator:
        if map_memory:
            yield from hosted_a.driver.map_cab_memory()
        stream = HostStream(hosted_a.host, nic_a, system.costs, peer=peer_a)
        for _ in range(count + warmup):
            yield from stream.send(payload)
        yield from stream.drain()

    def receiver() -> Generator:
        if map_memory:
            yield from hosted_b.driver.map_cab_memory()
        stream = HostStream(hosted_b.host, nic_b, system.costs, peer=peer_b)
        yield from stream.recv(warm_bytes)
        marks["start"] = system.now
        yield from stream.recv(total)
        done.succeed(system.now)

    hosted_a.host.fork_process(sender(), "tp-sender")
    hosted_b.host.fork_process(receiver(), "tp-receiver")
    end = system.run_until(done, limit=_LIMIT)
    return throughput_mbps(total, end - marks["start"])
