"""Network-device mode: the CAB as a conventional network interface.

Paper Sec. 5.1: "The Nectar network can be used as a conventional,
high-speed LAN by treating the CAB as a network device and enhancing the CAB
device driver to act as a network interface ... the driver and the server
share a pool of buffers: to send a packet the driver writes the packet into
a free buffer in the output pool and notifies the server that the packet
should be sent; when a packet is received the server finds a free input
buffer, receives the packet into the buffer, and informs the driver of the
packet's arrival."

All protocol processing stays on the *host* (the Berkeley-style stack in
:mod:`repro.host.hoststack`); every packet crosses the VME bus, which is why
this mode tops out around 6.4 Mbit/s in the paper's Figure 8 while the
protocol-engine mode reaches 24-28 Mbit/s.
"""

from __future__ import annotations

import struct
from typing import Generator

from repro.errors import ConfigurationError
from repro.host.machine import HostedNode
from repro.protocols.datalink import ProtocolBinding
from repro.runtime.mailbox import Mailbox

__all__ = ["DL_TYPE_NETDEV", "NetdevNIC"]

#: Datalink type for raw netdev packets ('ND').
DL_TYPE_NETDEV = 0x4E44

_DST_FMT = ">I"  # node id prefix on outgoing buffers


class NetdevNIC:
    """The CAB-as-network-device interface of one hosted node."""

    def __init__(self, hosted: HostedNode, mtu: int = 1500):
        self.hosted = hosted
        self.node = hosted.node
        self.driver = hosted.driver
        self.host = hosted.host
        self.costs = hosted.system.costs
        self.mtu = mtu
        runtime = self.node.runtime
        #: Output buffer pool: driver writes packets, CAB server sends them.
        self.out_pool: Mailbox = runtime.mailbox("netdev-out")
        #: Input buffer pool: the datalink receives packets into it, the
        #: driver reads them out.
        self.in_pool: Mailbox = runtime.mailbox("netdev-in")
        self.node.datalink.register(
            DL_TYPE_NETDEV, ProtocolBinding(input_mailbox=self.in_pool)
        )
        runtime.fork_system(self._cab_server(), name="netdev-server")
        self.stats = runtime.stats

    # -- host-process API (same shape as EthernetNIC) ------------------------------

    def send(self, dst: str, packet: bytes) -> Generator:
        """Send a raw packet to another host's netdev interface.

        The driver writes the packet into a free output buffer across the
        VME bus and notifies the CAB server.
        """
        if len(packet) > self.mtu:
            raise ConfigurationError(
                f"packet of {len(packet)} bytes exceeds netdev MTU {self.mtu}"
            )
        dst_node = self.node.system.registry.node_id(dst)
        yield self.costs.netdev_handshake_ns
        msg = yield from self.driver.begin_put(self.out_pool, 4 + len(packet))
        yield from self.driver.fill(msg, struct.pack(_DST_FMT, dst_node) + packet)
        yield from self.driver.end_put(self.out_pool, msg)
        self.stats.add("netdev_out")

    def recv(self) -> Generator:
        """Next received packet (blocks in the driver until one arrives)."""
        msg = yield from self.driver.begin_get(self.in_pool, blocking=True)
        data = yield from self.driver.read(msg)
        yield from self.driver.end_get(self.in_pool, msg)
        yield self.costs.netdev_handshake_ns
        self.stats.add("netdev_in")
        return data

    # -- the CAB server thread -------------------------------------------------------

    def _cab_server(self) -> Generator:
        """Transmit packets the driver placed in the output pool.

        (The receive direction needs no thread: the datalink lands packets
        straight in the input pool, whose message hook fires the driver's
        host condition.)
        """
        datalink = self.node.datalink
        while True:
            msg = yield from self.out_pool.begin_get()
            (dst_node,) = struct.unpack(_DST_FMT, msg.read(0, 4))
            msg.trim_front(4)
            yield from datalink.send_message(dst_node, DL_TYPE_NETDEV, msg, free_after=True)
