"""Berkeley socket emulation over the protocol-engine mode (paper Sec. 5.2).

"The familiar Berkeley socket interface is also being implemented at this
level.  Initially, an emulation library will be provided for applications
that can be re-linked."  This is that library: a socket-shaped API for host
processes whose transport protocol (TCP) runs on the CAB.

Control operations (connect, listen, accept, close) are host-to-CAB RPCs;
the data path uses the shared-memory mailbox interface directly — sends go
through the TCP send-request mailbox, receives come from a per-connection
receive mailbox in CAB memory — so steady-state data transfer involves no
system calls at all.
"""

from __future__ import annotations

import struct
from typing import Generator, Optional

from repro.errors import NectarError
from repro.host.machine import HostedNode
from repro.protocols.tcp.connection import TCPConnection
from repro.protocols.tcp.tcp import _SEND_REQUEST_FMT

__all__ = ["NectarSocket", "SocketLibrary"]


class SocketLibrary:
    """Per-process socket library state."""

    def __init__(self, hosted: HostedNode):
        self.hosted = hosted
        self.driver = hosted.driver
        self.node = hosted.node
        self._next_mailbox = 0

    def init(self) -> Generator:
        """Map CAB memory (done once, at library initialization)."""
        yield from self.driver.map_cab_memory()

    def socket(self) -> "NectarSocket":
        """A fresh unconnected socket."""
        return NectarSocket(self)

    def _fresh_mailbox_name(self) -> str:
        self._next_mailbox += 1
        return f"socket-recv-{self._next_mailbox}"


class NectarSocket:
    """One emulated stream socket."""

    def __init__(self, library: SocketLibrary):
        self.library = library
        self.driver = library.driver
        self.node = library.node
        self.conn: Optional[TCPConnection] = None
        self.recv_mailbox = None
        self._pending = bytearray()

    # -- control path (host-to-CAB RPC) ------------------------------------------

    def connect(self, remote_ip: int, remote_port: int, local_port: int) -> Generator:
        """Active open; blocks until established."""
        if self.conn is not None:
            raise NectarError("socket already connected")
        mailbox_name = self.library._fresh_mailbox_name()
        node = self.node

        def on_cab() -> Generator:
            inbox = node.runtime.mailbox(mailbox_name)
            conn = yield from node.tcp.connect(local_port, remote_ip, remote_port, inbox)
            return (conn, inbox)

        self.conn, self.recv_mailbox = yield from self.driver.call_cab(on_cab)

    def listen(self, port: int) -> Generator:
        """Passive open: returns a listener handle for :meth:`accept`."""
        node = self.node
        library = self.library

        def on_cab() -> Generator:
            yield node.runtime.costs.rt_lock_ns
            listener = node.tcp.listen(
                port, lambda conn: node.runtime.mailbox(library._fresh_mailbox_name())
            )
            return listener

        listener = yield from self.driver.call_cab(on_cab)
        return listener

    def accept(self, listener) -> Generator:
        """Block until a connection is accepted; binds it to this socket."""
        node = self.node

        def on_cab() -> Generator:
            conn = yield from node.tcp.accept(listener)
            return conn

        self.conn = yield from self.driver.call_cab(on_cab)
        self.recv_mailbox = self.conn.receive_mailbox

    def close(self) -> Generator:
        """Begin an orderly close of the underlying connection."""
        if self.conn is None:
            return
        node = self.node
        conn = self.conn

        def on_cab() -> Generator:
            yield from node.tcp.close(conn)

        yield from self.driver.call_cab(on_cab)
        self.conn = None

    # -- data path (shared memory, no system calls) ------------------------------------

    def send(self, data: bytes) -> Generator:
        """Write bytes to the stream.

        Places a request (plus the data) in the TCP send-request mailbox,
        exactly as paper Sec. 4.2 describes, and kicks the TCP send thread.
        """
        if self.conn is None:
            raise NectarError("socket is not connected")
        request_mailbox = self.node.tcp.send_request_mailbox
        header_size = struct.calcsize(_SEND_REQUEST_FMT)
        msg = yield from self.driver.begin_put(request_mailbox, header_size + len(data))
        yield from self.driver.fill(
            msg, struct.pack(_SEND_REQUEST_FMT, self.conn.conn_id, len(data)) + data
        )
        yield from self.driver.end_put(request_mailbox, msg)

    def recv(self, nbytes: int, blocking: bool = True) -> Generator:
        """Read exactly ``nbytes`` from the stream."""
        if self.recv_mailbox is None:
            raise NectarError("socket is not connected")
        while len(self._pending) < nbytes:
            msg = yield from self.driver.begin_get(self.recv_mailbox, blocking=blocking)
            data = yield from self.driver.read(msg)
            yield from self.driver.end_get(self.recv_mailbox, msg)
            self._pending.extend(data)
        out = bytes(self._pending[:nbytes])
        del self._pending[:nbytes]
        return out
