"""Mach IPC over Nectar: the message-forwarding server on the CAB.

Paper Sec. 5.2: "Work is also in progress to support the Mach interprocess
communication interface.  Network IPC in Mach is provided by a
message-forwarding server external to the Mach kernel; this server is a
natural candidate for execution on the CAB."

This module implements that design point:

* :class:`MachPort` — a receive right owned by one task; messages queue in
  a CAB mailbox, so local and network senders are indistinguishable to the
  receiver.
* :class:`NetMsgServer` — the per-node forwarding server, running *on the
  CAB*: it registers network-visible names for local ports and forwards
  messages addressed to remote ports over the request-response transport,
  without any host involvement on the forwarding path.
* Typed messages: a small header (msgh_id, reply port name) plus a body,
  all real bytes on the wire.
"""

from __future__ import annotations

import struct
from typing import Dict, Generator, Optional, Tuple

from repro.apps.traffic import rpc_service
from repro.errors import AddressError, NectarError, ProtocolError
from repro.runtime.mailbox import Mailbox
from repro.system import NectarNode

__all__ = ["MachMessage", "MachPort", "NetMsgServer"]

NETMSG_PORT = 0x4D49  # 'MI'

_MSG_FMT = ">IHH"  # msgh_id, dst name length, reply name length
_FORWARD_OK = b"ok"
_FORWARD_NO_PORT = b"no-port"


class MachMessage:
    """A Mach message: id, optional reply-port name, body bytes."""

    __slots__ = ("msgh_id", "reply_to", "body")

    def __init__(self, msgh_id: int, body: bytes, reply_to: str = ""):
        self.msgh_id = msgh_id
        self.body = body
        self.reply_to = reply_to

    def pack(self, dst_name: str) -> bytes:
        """Encode for the wire, prefixed with the destination port name."""
        dst = dst_name.encode()
        reply = self.reply_to.encode()
        return (
            struct.pack(_MSG_FMT, self.msgh_id, len(dst), len(reply))
            + dst
            + reply
            + self.body
        )

    @classmethod
    def unpack(cls, data: bytes) -> Tuple[str, "MachMessage"]:
        header_size = struct.calcsize(_MSG_FMT)
        if len(data) < header_size:
            raise ProtocolError("short Mach message")
        msgh_id, dst_len, reply_len = struct.unpack(_MSG_FMT, data[:header_size])
        offset = header_size
        dst = data[offset : offset + dst_len].decode()
        offset += dst_len
        reply = data[offset : offset + reply_len].decode()
        offset += reply_len
        return dst, cls(msgh_id, data[offset:], reply_to=reply)


class MachPort:
    """A receive right: messages land in a CAB mailbox."""

    def __init__(self, server: "NetMsgServer", name: str, mailbox: Mailbox):
        self.server = server
        self.name = name
        self.mailbox = mailbox

    def receive(self) -> Generator:
        """Thread-context: next message for this port (blocks)."""
        msg = yield from self.mailbox.begin_get()
        data = yield from self.server.node.runtime.read_message(msg)
        yield from self.mailbox.end_get(msg)
        _dst, message = MachMessage.unpack(data)
        return message


class NetMsgServer:
    """One node's network message server, a CAB task."""

    def __init__(self, node: NectarNode):
        self.node = node
        self.runtime = node.runtime
        # The network-wide name directory lives on the NectarSystem (in the
        # real system: a network name server; not on any timing path).
        system = node.system
        if not hasattr(system, "_mach_directory"):
            system._mach_directory = {}
        self._directory: Dict[str, int] = system._mach_directory
        self._ports: Dict[str, MachPort] = {}
        rpc_service(node, "netmsg-server", NETMSG_PORT, self._forward)
        self.stats = node.runtime.stats

    # -- port management ------------------------------------------------------

    def allocate_port(self, name: str) -> MachPort:
        """Create a receive right with a network-visible name."""
        if name in self._directory:
            raise AddressError(f"Mach port name {name!r} already in use")
        mailbox = self.runtime.mailbox(f"machport-{name}")
        port = MachPort(self, name, mailbox)
        self._ports[name] = port
        self._directory[name] = self.node.node_id
        return port

    def deallocate_port(self, port: MachPort) -> None:
        """Destroy a receive right and withdraw its name."""
        self._ports.pop(port.name, None)
        self._directory.pop(port.name, None)

    # -- sending ------------------------------------------------------------------

    def send(self, dst_name: str, message: MachMessage) -> Generator:
        """Thread-context: send to a port anywhere on the network.

        Local destinations are delivered directly; remote ones are forwarded
        by the destination node's message server (one RPC, CAB-to-CAB).
        """
        home = self._directory.get(dst_name)
        if home is None:
            raise AddressError(f"no Mach port named {dst_name!r}")
        payload = message.pack(dst_name)
        if home == self.node.node_id:
            yield from self._deliver_local(dst_name, payload)
            self.stats.add("mach_local_sends")
            return
        client_port = self.node.rpc.allocate_client_port()
        reply = yield from self.node.rpc.request(
            client_port, home, NETMSG_PORT, payload
        )
        if reply != _FORWARD_OK:
            raise NectarError(f"Mach forward failed: {reply!r}")
        self.stats.add("mach_remote_sends")

    def _deliver_local(self, dst_name: str, payload: bytes) -> Generator:
        port = self._ports.get(dst_name)
        if port is None:
            raise AddressError(f"port {dst_name!r} has no local receive right")
        msg = yield from port.mailbox.begin_put(len(payload))
        yield from self.runtime.fill_message(msg, payload)
        yield from port.mailbox.end_put(msg)

    # -- the forwarding server (runs on the CAB) ------------------------------------

    def _forward(self, payload: bytes, _header) -> Generator:
        try:
            dst_name, _message = MachMessage.unpack(payload)
        except ProtocolError:
            self.stats.add("mach_malformed")
            return _FORWARD_NO_PORT
        if dst_name not in self._ports:
            self.stats.add("mach_no_port")
            return _FORWARD_NO_PORT
        yield from self._deliver_local(dst_name, payload)
        self.stats.add("mach_forwards")
        return _FORWARD_OK
