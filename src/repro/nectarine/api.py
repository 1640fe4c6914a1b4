"""The Nectarine procedural interface, identical on CAB and host.

:class:`CabNectarine` runs operations directly in CAB thread context;
:class:`HostNectarine` runs them from host processes, using the device
driver's shared-memory mailbox operations and offloading transport work to
the CAB — hiding the details of the host-CAB interface, exactly the role
the paper gives the library.

All methods are generators to be driven with ``yield from`` inside the
caller's thread/process body.
"""

from __future__ import annotations

from typing import Callable, Generator, Optional, Union

from repro.apps.traffic import Datagram, RequestResponse, copy, rpc_service, serve
from repro.errors import AddressError
from repro.nectarine.naming import MailboxAddress, NameService
from repro.nectarine.tasks import TASK_SERVER_PORT, TaskRegistry
from repro.runtime.mailbox import Mailbox

__all__ = ["CabNectarine", "HostNectarine", "MailboxFactory", "Nectarine"]

#: Well-known port of the per-node mailbox factory service.
MAILBOX_FACTORY_PORT = 0x4D58


class MailboxFactory:
    """Per-node service that creates mailboxes on behalf of remote callers.

    Nectarine "allows applications to create mailboxes and tasks on other
    hosts or CABs" (paper Sec. 3.5); this is the mailbox half.  Install one
    per node; remote creation is a single RPC whose reply carries the new
    network-wide address.
    """

    def __init__(self, node, names: NameService):
        self.node = node
        self.names = names
        rpc_service(node, "mailbox-factory", MAILBOX_FACTORY_PORT, self._create)

    def _create(self, body: bytes, _header) -> bytes:
        name, _sep, publish_as = body.partition(b"\x00")
        try:
            mailbox = self.node.runtime.mailbox(name.decode())
            port = self.names.allocate_port(self.node.node_id)
            self.node.datagram.bind(port, mailbox)
            address = MailboxAddress(self.node.node_id, port)
            if publish_as:
                self.names.publish(publish_as.decode(), address)
            return f"OK {address.node_id}:{address.port}".encode()
        except Exception as exc:  # creation is best-effort for callers
            return f"ERR {exc}".encode()


class Nectarine:
    """The operations both flavours share, written once over the traffic
    endpoints, which read the flavour off :attr:`where`."""

    def __init__(self, node, names: NameService, tasks: Optional[TaskRegistry] = None):
        self.node = node
        #: What endpoints are opened on: the node, or a host's HostedNode.
        self.where = node
        self.names = names
        self.tasks = tasks

    # -- naming ---------------------------------------------------------------

    def lookup(self, service: str) -> MailboxAddress:
        """Resolve a published service name to its address."""
        return self.names.lookup(service)

    def _resolve(self, target: Union[str, MailboxAddress]) -> MailboxAddress:
        if isinstance(target, MailboxAddress):
            return target
        return self.names.lookup(target)

    # -- mailboxes ------------------------------------------------------------

    def create_mailbox(self, name: str, publish_as: Optional[str] = None) -> tuple[Mailbox, MailboxAddress]:
        """Create a mailbox on this node's CAB, reachable from the whole
        network via datagrams."""
        mailbox = self.node.runtime.mailbox(name)
        port = self.names.allocate_port(self.node.node_id)
        self.node.datagram.bind(port, mailbox)
        address = MailboxAddress(self.node.node_id, port)
        if publish_as:
            self.names.publish(publish_as, address)
        return mailbox, address

    def send(self, target: Union[str, MailboxAddress], data: bytes, src_port: int = 0) -> Generator:
        """Unreliable datagram to a network-wide mailbox address.  A host
        builds the packet in the datagram send mailbox and the CAB send
        thread transmits it."""
        address = self._resolve(target)
        return Datagram(
            self.where, None, src_port, (address.node_id, address.port)
        ).send(data)

    # -- RPC --------------------------------------------------------------------

    def _request(self, node_id: int, port: int, data: bytes) -> Generator:
        """One call from a fresh client port; from a host, the transport
        work runs on the CAB."""
        return RequestResponse(self.where, None, peer=(node_id, port)).exchange(data, copy)

    def call(self, target: Union[str, MailboxAddress], data: bytes) -> Generator:
        """Request-response call; returns the response bytes."""
        address = self._resolve(target)
        return self._request(address.node_id, address.port, data)

    def create_remote_task(self, node_id: int, task: str, arg: bytes = b"") -> Generator:
        """Start a named task on another node; returns its task server's reply."""
        if self.tasks is None or task not in self.tasks:
            raise AddressError(f"task {task!r} is not registered")
        return self._request(
            node_id, TASK_SERVER_PORT, TaskRegistry.encode_request(task, arg)
        )


class CabNectarine(Nectarine):
    """The interface as seen by tasks running *on* the CAB."""

    def receive(self, mailbox: Mailbox) -> Generator:
        """Next message's bytes from a mailbox (blocking)."""
        msg = yield from mailbox.begin_get()
        data = yield from self.node.runtime.read_message(msg)
        yield from mailbox.end_get(msg)
        return data

    def serve(self, name: str, handler: Callable[[bytes], bytes], port: Optional[int] = None) -> MailboxAddress:
        """Publish an RPC service; ``handler(request_bytes) -> response``.

        Spawns a server thread feeding the handler.  (Plain function
        handlers only; stateful servers can use the lower-level API.)
        """
        if port is None:
            port = self.names.allocate_port(self.node.node_id)
        mailbox = self.node.runtime.mailbox(f"svc-{name}")
        self.node.rpc.serve(port, mailbox)
        address = MailboxAddress(self.node.node_id, port)
        self.names.publish(name, address)
        self.node.runtime.fork_system(
            serve(self.node, mailbox, lambda body, _header: handler(body)),
            name=f"svc:{name}",
        )
        return address

    def create_remote_mailbox(
        self, node_id: int, name: str, publish_as: str = ""
    ) -> Generator:
        """Create a mailbox on another node (its MailboxFactory must be
        installed); returns the new mailbox's network-wide address."""
        request = name.encode() + b"\x00" + publish_as.encode()
        reply = yield from self._request(node_id, MAILBOX_FACTORY_PORT, request)
        if not reply.startswith(b"OK "):
            raise AddressError(f"remote mailbox creation failed: {reply!r}")
        node_text, _colon, port_text = reply[3:].decode().partition(":")
        return MailboxAddress(int(node_text), int(port_text))


class HostNectarine(Nectarine):
    """The interface as seen by host processes.

    Same operations, but mailbox access goes through the mapped CAB memory
    and transport operations are offloaded to the CAB.
    """

    def __init__(self, hosted, names: NameService, tasks: Optional[TaskRegistry] = None):
        super().__init__(hosted.node, names, tasks)
        self.where = self.hosted = hosted
        self.driver = hosted.driver

    def init(self) -> Generator:
        """Program initialization: map CAB memory (paper Sec. 3.2)."""
        yield from self.driver.map_cab_memory()

    def receive(self, mailbox: Mailbox, blocking: bool = False) -> Generator:
        """Next message's bytes from a mailbox (read over VME)."""
        msg = yield from self.driver.begin_get(mailbox, blocking=blocking)
        data = yield from self.driver.read(msg)
        yield from self.driver.end_get(mailbox, msg)
        return data
