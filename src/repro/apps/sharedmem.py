"""Network shared memory over Nectar (paper Sec. 5.3, future work).

"Using Mach together with Nectar, we are investigating network shared
memory.  The CABs will run external pager tasks that cooperate to provide
the required consistency guarantees."

This module implements those cooperating pager tasks: a distributed shared
address space with single-writer / multiple-reader page coherence
(MSI-style invalidation), built entirely on the request-response transport.

Design:

* The address space is split into fixed pages; each page has a static
  *home* node (``page % n_nodes``) holding its directory entry (owner and
  copyset) and the authoritative copy while nobody holds it exclusively.
* Each node runs two pager services: the **fetch** service (directory
  operations — may itself issue RPCs) and the **control** service
  (invalidate/downgrade callbacks — terminal, never issues RPCs), which
  breaks the request cycle that would otherwise deadlock two pagers
  fetching from each other.
* A local access goes through the page table: ``read`` needs SHARED or
  EXCLUSIVE, ``write`` needs EXCLUSIVE; misses trigger a fetch RPC to the
  home, which invalidates or downgrades other holders as needed.

Page contents are real bytes; the coherence invariant (a write is visible
to every subsequent reader anywhere) is property-tested.
"""

from __future__ import annotations

import struct
from typing import Dict, Generator, List, Set

from repro.apps.traffic import rpc_service
from repro.errors import NectarError, ProtocolError
from repro.system import NectarNode

__all__ = ["PAGE_BYTES", "SharedMemory", "SharedPager"]

PAGE_BYTES = 1024

#: Pager service ports (well-known).
FETCH_PORT = 0x5A00
CTRL_PORT = 0x5A01

# Request opcodes.
_OP_FETCH_READ = 1
_OP_FETCH_WRITE = 2
_OP_INVALIDATE = 3
_OP_DOWNGRADE = 4

# Local page states.
INVALID = "invalid"
SHARED = "shared"
EXCLUSIVE = "exclusive"

_REQ_FMT = ">BII"  # opcode, page, requester node id


def _request(opcode: int, page: int, requester: int) -> bytes:
    return struct.pack(_REQ_FMT, opcode, page, requester)


def _parse_request(data: bytes) -> tuple[int, int, int]:
    if len(data) < struct.calcsize(_REQ_FMT):
        raise ProtocolError("short pager request")
    return struct.unpack(_REQ_FMT, data[: struct.calcsize(_REQ_FMT)])


class _Directory:
    """Home-side record for one page."""

    __slots__ = ("owner", "copyset", "data")

    def __init__(self, data: bytes):
        self.owner: int = 0  # 0 = no exclusive owner
        self.copyset: Set[int] = set()
        self.data = bytearray(data)


class SharedPager:
    """One node's external pager task."""

    def __init__(self, shared: "SharedMemory", node: NectarNode):
        self.shared = shared
        self.node = node
        self.runtime = node.runtime
        #: page -> (state, bytearray) for locally present pages.
        self.pages: Dict[int, tuple[str, bytearray]] = {}
        #: Directory entries for pages whose home is this node.
        self.directory: Dict[int, _Directory] = {}
        rpc_service(node, "pager-fetch", FETCH_PORT, self._handle_fetch)
        rpc_service(node, "pager-ctrl", CTRL_PORT, self._handle_ctrl)
        self.stats = node.runtime.stats

    # ------------------------------------------------------------ local access

    def read(self, page: int) -> Generator:
        """Thread-context: return the page's bytes (fetching if needed)."""
        self.shared._check_page(page)
        state = self.pages.get(page, (INVALID, None))[0]
        if state == INVALID:
            yield from self._fetch(page, _OP_FETCH_READ)
            self.stats.add("dsm_read_misses")
        else:
            self.stats.add("dsm_read_hits")
        return bytes(self.pages[page][1])

    def write(self, page: int, offset: int, data: bytes) -> Generator:
        """Thread-context: write into the page (acquiring exclusivity)."""
        self.shared._check_page(page)
        if offset < 0 or offset + len(data) > PAGE_BYTES:
            raise NectarError(f"write outside page: [{offset}, {offset + len(data)})")
        state = self.pages.get(page, (INVALID, None))[0]
        if state != EXCLUSIVE:
            yield from self._fetch(page, _OP_FETCH_WRITE)
            self.stats.add("dsm_write_misses")
        else:
            self.stats.add("dsm_write_hits")
        self.pages[page][1][offset : offset + len(data)] = data

    # ------------------------------------------------------------------- fetch

    def _fetch(self, page: int, opcode: int) -> Generator:
        home = self.shared.home_of(page)
        if home is self.node:
            # The home services its own miss locally (no self-RPC): run the
            # directory logic inline.
            data = yield from self._home_grant(page, opcode, self.node.node_id)
        else:
            port = self.node.rpc.allocate_client_port()
            reply = yield from self.node.rpc.request(
                port,
                home.node_id,
                FETCH_PORT,
                _request(opcode, page, self.node.node_id),
            )
            data = reply
        state = EXCLUSIVE if opcode == _OP_FETCH_WRITE else SHARED
        self.pages[page] = (state, bytearray(data))

    # ---------------------------------------------------------- service loops

    def _handle_fetch(self, body: bytes, _header) -> Generator:
        opcode, page, requester = _parse_request(body)
        data = yield from self._home_grant(page, opcode, requester)
        return data

    def _home_grant(self, page: int, opcode: int, requester: int) -> Generator:
        """Directory logic at the page's home.  Returns the page bytes."""
        entry = self.directory.get(page)
        if entry is None:
            raise ProtocolError(f"node {self.node.name} is not home for page {page}")
        if opcode == _OP_FETCH_READ:
            if entry.owner and entry.owner != requester:
                # Downgrade the exclusive owner; it writes its copy back.
                data = yield from self._callback(entry.owner, _OP_DOWNGRADE, page)
                entry.data[:] = data
                entry.copyset.add(entry.owner)
                entry.owner = 0
            entry.copyset.add(requester)
            self.stats.add("dsm_fetch_read")
            return bytes(entry.data)
        if opcode == _OP_FETCH_WRITE:
            if entry.owner and entry.owner != requester:
                data = yield from self._callback(entry.owner, _OP_INVALIDATE, page)
                entry.data[:] = data
                entry.owner = 0
            for holder in sorted(entry.copyset):
                if holder != requester:
                    yield from self._callback(holder, _OP_INVALIDATE, page)
            entry.copyset.clear()
            entry.owner = requester
            self.stats.add("dsm_fetch_write")
            # If the home itself holds a stale copy, drop it (unless the
            # home is the requester).
            if requester != self.node.node_id:
                self.pages.pop(page, None)
            return bytes(entry.data)
        raise ProtocolError(f"bad fetch opcode {opcode}")

    def _callback(self, holder_id: int, opcode: int, page: int) -> Generator:
        """Home -> holder control RPC (invalidate or downgrade)."""
        if holder_id == self.node.node_id:
            response = yield from self._ctrl_action(opcode, page)
            return response
        holder = self.shared.node_by_id(holder_id)
        port = self.node.rpc.allocate_client_port()
        reply = yield from self.node.rpc.request(
            port, holder.node_id, CTRL_PORT, _request(opcode, page, self.node.node_id)
        )
        return reply

    def _handle_ctrl(self, body: bytes, _header) -> Generator:
        opcode, page, _requester = _parse_request(body)
        response = yield from self._ctrl_action(opcode, page)
        return response

    def _ctrl_action(self, opcode: int, page: int) -> Generator:
        yield from self.runtime.ops.sleep(0)  # control handler scheduling
        state, data = self.pages.get(page, (INVALID, bytearray(PAGE_BYTES)))
        payload = bytes(data)
        if opcode == _OP_INVALIDATE:
            self.pages.pop(page, None)
            self.stats.add("dsm_invalidations")
        elif opcode == _OP_DOWNGRADE:
            if page in self.pages:
                self.pages[page] = (SHARED, self.pages[page][1])
            self.stats.add("dsm_downgrades")
        else:
            raise ProtocolError(f"bad control opcode {opcode}")
        return payload


class SharedMemory:
    """A distributed shared address space across a set of nodes."""

    def __init__(self, nodes: List[NectarNode], n_pages: int):
        if not nodes:
            raise NectarError("shared memory needs at least one node")
        if n_pages <= 0:
            raise NectarError("shared memory needs at least one page")
        self.nodes = list(nodes)
        self.n_pages = n_pages
        self.pagers: Dict[str, SharedPager] = {}
        self._by_id: Dict[int, NectarNode] = {node.node_id: node for node in nodes}
        for node in nodes:
            self.pagers[node.name] = SharedPager(self, node)
        # Seed directory entries at each page's home (zero-filled pages).
        for page in range(n_pages):
            home = self.home_of(page)
            self.pagers[home.name].directory[page] = _Directory(bytes(PAGE_BYTES))

    def _check_page(self, page: int) -> None:
        if not 0 <= page < self.n_pages:
            raise NectarError(f"page {page} outside space of {self.n_pages}")

    def home_of(self, page: int) -> NectarNode:
        """The node holding a page's directory entry."""
        self._check_page(page)
        return self.nodes[page % len(self.nodes)]

    def node_by_id(self, node_id: int) -> NectarNode:
        """Look a participating node up by node id."""
        if node_id not in self._by_id:
            raise NectarError(f"unknown node id {node_id}")
        return self._by_id[node_id]

    def pager(self, node: NectarNode) -> SharedPager:
        """The pager task of one participating node."""
        return self.pagers[node.name]
