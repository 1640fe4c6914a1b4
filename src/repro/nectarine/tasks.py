"""Remote task creation (paper Sec. 3.5 / 5.3).

Nectarine "allows applications to create mailboxes and tasks on other hosts
or CABs".  Each node runs a *task server* on a well-known request-response
port; a task is named code registered in the :class:`TaskRegistry` (the
moral equivalent of the application image being present on every node), and
remote creation is one RPC carrying the task name and an argument blob.
"""

from __future__ import annotations

from typing import Callable, Dict

from repro.apps.traffic import rpc_service
from repro.errors import AddressError, ProtocolError

__all__ = ["TASK_SERVER_PORT", "TaskRegistry"]

TASK_SERVER_PORT = 0x7A5C


class TaskRegistry:
    """Named task bodies, installable as a task server on every node."""

    def __init__(self):
        #: name -> factory(node, arg: bytes) -> generator (the task body)
        self._factories: Dict[str, Callable] = {}

    def register(self, name: str, factory: Callable) -> None:
        """Register a named task body factory."""
        if name in self._factories:
            raise AddressError(f"task {name!r} already registered")
        self._factories[name] = factory

    def __contains__(self, name: str) -> bool:
        return name in self._factories

    # -- wire format -------------------------------------------------------------

    @staticmethod
    def encode_request(name: str, arg: bytes) -> bytes:
        encoded = name.encode()
        if b"\x00" in encoded:
            raise ProtocolError("task names must not contain NUL")
        return encoded + b"\x00" + arg

    @staticmethod
    def decode_request(data: bytes) -> tuple[str, bytes]:
        name, _sep, arg = data.partition(b"\x00")
        return name.decode(), arg

    # -- the per-node task server ---------------------------------------------------

    def install(self, node) -> None:
        """Start this node's task server (idempotent per node)."""

        def create(body: bytes, _header) -> bytes:
            name, arg = self.decode_request(body)
            factory = self._factories.get(name)
            if factory is None:
                return b"ERR unknown task"
            tcb = node.runtime.fork_application(factory(node, arg), name=f"task:{name}")
            return b"OK " + tcb.name.encode()

        rpc_service(node, "task-server", TASK_SERVER_PORT, create)
