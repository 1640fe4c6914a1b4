"""A remote file service over Nectar (paper Sec. 7 future work).

"Our future work will include ... porting important applications such as
NFS and the X Window System to Nectar."  This module is that NFS port in
miniature: an NFS-shaped stateless file service whose *entire* protocol
engine runs on the CAB — requests arrive, are unmarshaled, executed against
the in-memory file store, and answered without host involvement.

The wire format reuses the presentation-layer codec of
:mod:`repro.apps.marshaling` (typed, XDR-style), so this is also the
marshaling offload exercised by a real application.

Operations (all stateless, file handles carry a generation number so stale
handles after removal are detected, as in NFS):

``lookup, create, remove, getattr, read, write, readdir``
"""

from __future__ import annotations

from typing import Dict, Generator, List, Optional, Tuple

from repro.apps.marshaling import marshal, unmarshal
from repro.apps.traffic import rpc_service
from repro.errors import NectarError, ProtocolError
from repro.system import NectarNode

__all__ = ["FileHandle", "RemoteFileClient", "RemoteFileServer"]

NFS_PORT = 0x4E46  # 'NF'

_OP_LOOKUP = 1
_OP_CREATE = 2
_OP_REMOVE = 3
_OP_GETATTR = 4
_OP_READ = 5
_OP_WRITE = 6
_OP_READDIR = 7

OK = 0
ERR_NOENT = 1
ERR_EXIST = 2
ERR_STALE = 3
ERR_BADOP = 4

_ERROR_NAMES = {
    ERR_NOENT: "no such file",
    ERR_EXIST: "file exists",
    ERR_STALE: "stale file handle",
    ERR_BADOP: "bad operation",
}


class FileHandle:
    """An opaque NFS-style handle: file id + generation."""

    __slots__ = ("fileid", "generation")

    def __init__(self, fileid: int, generation: int):
        self.fileid = fileid
        self.generation = generation

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<FileHandle {self.fileid}.{self.generation}>"


class _Inode:
    __slots__ = ("fileid", "generation", "data")

    def __init__(self, fileid: int, generation: int):
        self.fileid = fileid
        self.generation = generation
        self.data = bytearray()


class RemoteFileServer:
    """The CAB-resident file service."""

    def __init__(self, node: NectarNode):
        self.node = node
        self.runtime = node.runtime
        self._by_path: Dict[bytes, _Inode] = {}
        self._by_id: Dict[int, _Inode] = {}
        self._next_fileid = 1
        self._generation = 1
        rpc_service(node, "nfs-server", NFS_PORT, self._handle)
        self.stats = node.runtime.stats

    # -- the service loop ----------------------------------------------------

    def _handle(self, body: bytes, _header) -> bytes:
        try:
            response = self._execute(unmarshal(body))
        except (ProtocolError, IndexError, TypeError):
            self.stats.add("nfs_malformed")
            response = [ERR_BADOP]
        self.stats.add("nfs_requests")
        return marshal(response)

    # -- operations ---------------------------------------------------------------

    def _execute(self, request: list) -> list:
        op = request[0]
        if op == _OP_LOOKUP:
            return self._lookup(request[1])
        if op == _OP_CREATE:
            return self._create(request[1])
        if op == _OP_REMOVE:
            return self._remove(request[1])
        if op == _OP_GETATTR:
            return self._with_handle(request, lambda inode: [OK, len(inode.data)])
        if op == _OP_READ:
            return self._with_handle(
                request,
                lambda inode: [OK, bytes(inode.data[request[3] : request[3] + request[4]])],
            )
        if op == _OP_WRITE:
            return self._with_handle(request, lambda inode: self._write(inode, request))
        if op == _OP_READDIR:
            prefix = request[1]
            names = sorted(
                path for path in self._by_path if path.startswith(prefix)
            )
            return [OK, list(names)]
        return [ERR_BADOP]

    def _lookup(self, path: bytes) -> list:
        inode = self._by_path.get(path)
        if inode is None:
            return [ERR_NOENT]
        return [OK, inode.fileid, inode.generation]

    def _create(self, path: bytes) -> list:
        if path in self._by_path:
            return [ERR_EXIST]
        inode = _Inode(self._next_fileid, self._generation)
        self._next_fileid += 1
        self._by_path[path] = inode
        self._by_id[inode.fileid] = inode
        return [OK, inode.fileid, inode.generation]

    def _remove(self, path: bytes) -> list:
        inode = self._by_path.pop(path, None)
        if inode is None:
            return [ERR_NOENT]
        self._by_id.pop(inode.fileid, None)
        self._generation += 1  # old handles to this id become stale
        return [OK]

    def _with_handle(self, request: list, action) -> list:
        fileid, generation = request[1], request[2]
        inode = self._by_id.get(fileid)
        if inode is None or inode.generation != generation:
            return [ERR_STALE]
        return action(inode)

    @staticmethod
    def _write(inode: _Inode, request: list) -> list:
        offset, data = request[3], request[4]
        if offset > len(inode.data):
            inode.data.extend(b"\x00" * (offset - len(inode.data)))
        inode.data[offset : offset + len(data)] = data
        return [OK, len(data)]


class RemoteFileClient:
    """A CAB-task client of a remote file server."""

    def __init__(self, node: NectarNode, server_node_id: int):
        self.node = node
        self.server_node_id = server_node_id
        self._port = node.rpc.allocate_client_port()

    def _call(self, request: list) -> Generator:
        reply = yield from self.node.rpc.request(
            self._port, self.server_node_id, NFS_PORT, marshal(request)
        )
        response = unmarshal(reply)
        status = response[0]
        if status != OK:
            raise NectarError(
                f"remote fs error: {_ERROR_NAMES.get(status, status)}"
            )
        return response[1:]

    # -- API (thread-context generators) -----------------------------------------

    def lookup(self, path: bytes) -> Generator:
        """Resolve a path to a file handle."""
        fileid, generation = yield from self._call([_OP_LOOKUP, path])
        return FileHandle(fileid, generation)

    def create(self, path: bytes) -> Generator:
        """Create an empty file; returns its handle."""
        fileid, generation = yield from self._call([_OP_CREATE, path])
        return FileHandle(fileid, generation)

    def remove(self, path: bytes) -> Generator:
        """Delete a file (outstanding handles go stale)."""
        yield from self._call([_OP_REMOVE, path])

    def getattr(self, handle: FileHandle) -> Generator:
        """The file's current size in bytes."""
        (size,) = yield from self._call(
            [_OP_GETATTR, handle.fileid, handle.generation]
        )
        return size

    def read(self, handle: FileHandle, offset: int, count: int) -> Generator:
        """Read up to ``count`` bytes at ``offset``."""
        (data,) = yield from self._call(
            [_OP_READ, handle.fileid, handle.generation, offset, count]
        )
        return data

    def write(self, handle: FileHandle, offset: int, data: bytes) -> Generator:
        """Write ``data`` at ``offset`` (sparse gaps zero-fill)."""
        (written,) = yield from self._call(
            [_OP_WRITE, handle.fileid, handle.generation, offset, data]
        )
        return written

    def readdir(self, prefix: bytes = b"") -> Generator:
        """All paths starting with ``prefix``, sorted."""
        (names,) = yield from self._call([_OP_READDIR, prefix])
        return names
