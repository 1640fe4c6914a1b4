"""Distributed locking and commit on the CAB (paper Sec. 5.3, future work).

"Communication is a major bottleneck in the Camelot distributed transaction
system, so experiments are being planned to offload Camelot's distributed
locking and commit protocols to the CAB."

This module implements that experiment's substrate: a distributed lock
manager and a two-phase commit protocol, both running as CAB tasks over the
request-response transport, so a host application initiates a transaction
with a single request and the entire lock/prepare/commit message exchange
happens NIC-to-NIC.

* :class:`LockManager` — one per node; grants read (shared) and write
  (exclusive) locks on named resources, with FIFO queueing.
* :class:`TransactionCoordinator` — runs two-phase commit over a set of
  :class:`Participant` nodes: PREPARE to all, then COMMIT if every vote is
  yes, ABORT otherwise.  Participants hold their updates in a pending area
  and apply them only on COMMIT (atomicity is real and tested).
"""

from __future__ import annotations

import itertools
import struct
from collections import deque
from typing import Deque, Dict, Generator, List, Optional, Sequence, Tuple

from repro.apps.traffic import rpc_service
from repro.errors import NectarError, ProtocolError
from repro.system import NectarNode

__all__ = ["LockManager", "Participant", "TransactionCoordinator"]

LOCK_PORT = 0x6B00
TXN_PORT = 0x6B01

# Lock manager opcodes.
_OP_ACQUIRE_READ = b"LR"
_OP_ACQUIRE_WRITE = b"LW"
_OP_RELEASE = b"LU"

# Two-phase-commit opcodes.
_OP_PREPARE = b"TP"
_OP_COMMIT = b"TC"
_OP_ABORT = b"TA"

_GRANTED = b"granted"
_RELEASED = b"released"
_VOTE_YES = b"yes"
_VOTE_NO = b"no"
_ACK = b"ack"


def _encode(opcode: bytes, txn_id: int, name: bytes, value: bytes = b"") -> bytes:
    return opcode + struct.pack(">IH", txn_id, len(name)) + name + value


def _decode(data: bytes) -> Tuple[bytes, int, bytes, bytes]:
    if len(data) < 8:
        raise ProtocolError("short transaction request")
    opcode = data[:2]
    txn_id, name_len = struct.unpack(">IH", data[2:8])
    name = data[8 : 8 + name_len]
    value = data[8 + name_len :]
    return opcode, txn_id, name, value


class LockManager:
    """A CAB-resident lock service for the resources homed on its node."""

    def __init__(self, node: NectarNode):
        self.node = node
        self.runtime = node.runtime
        #: resource -> (mode, holders) where mode is "read"/"write"/None.
        self._held: Dict[bytes, Tuple[Optional[str], set]] = {}
        #: resource -> queue of (txn_id, mode, wake condition)
        self._waiters: Dict[bytes, Deque] = {}
        rpc_service(node, "lock-manager", LOCK_PORT, self._handle)
        self.stats = node.runtime.stats

    def _handle(self, body: bytes, header) -> Optional[bytes]:
        opcode, txn_id, name, _value = _decode(body)
        if opcode in (_OP_ACQUIRE_READ, _OP_ACQUIRE_WRITE):
            mode = "read" if opcode == _OP_ACQUIRE_READ else "write"
            # Grants may have to wait: run each acquisition in its own
            # thread (which responds) so the server keeps servicing releases.
            self.runtime.fork_system(
                self._grant_then_respond(header, txn_id, name, mode),
                f"lock-grant-{txn_id}",
            )
            return None
        if opcode == _OP_RELEASE:
            self._release(txn_id, name)
            return _RELEASED
        raise ProtocolError(f"bad lock opcode {opcode!r}")

    def _grant_then_respond(self, header, txn_id: int, name: bytes, mode: str) -> Generator:
        yield from self._acquire(txn_id, name, mode)
        yield from self.node.rpc.respond(header, _GRANTED)

    # -- local lock table ---------------------------------------------------------

    def _compatible(self, name: bytes, txn_id: int, mode: str) -> bool:
        current_mode, holders = self._held.get(name, (None, set()))
        if current_mode is None or not holders:
            return True
        if txn_id in holders:
            # Re-entrant; upgrading read->write needs sole ownership.
            return mode == "read" or (current_mode != "read" or holders == {txn_id})
        return mode == "read" and current_mode == "read"

    def _acquire(self, txn_id: int, name: bytes, mode: str) -> Generator:
        ops = self.runtime.ops
        while not self._compatible(name, txn_id, mode) or self._queued_ahead(name, txn_id):
            cond = self.runtime.condition(f"lock-{txn_id}")
            self._waiters.setdefault(name, deque()).append((txn_id, cond))
            mutex = self.runtime.mutex(f"lockm-{txn_id}")
            yield from ops.lock(mutex)
            yield from ops.wait(cond, mutex)
            yield from ops.unlock(mutex)
        current_mode, holders = self._held.get(name, (None, set()))
        holders = set(holders)
        holders.add(txn_id)
        new_mode = "write" if mode == "write" else (current_mode or "read")
        if mode == "write":
            new_mode = "write"
        self._held[name] = (new_mode, holders)
        self.stats.add("locks_granted")

    def _queued_ahead(self, name: bytes, txn_id: int) -> bool:
        queue = self._waiters.get(name)
        return bool(queue) and queue[0][0] != txn_id

    def _release(self, txn_id: int, name: bytes) -> None:
        current_mode, holders = self._held.get(name, (None, set()))
        holders = set(holders)
        holders.discard(txn_id)
        if holders:
            self._held[name] = (current_mode, holders)
        else:
            self._held.pop(name, None)
        self.stats.add("locks_released")
        queue = self._waiters.get(name)
        if queue:
            _txn, cond = queue.popleft()
            self.runtime.ops.signal_nocost(cond)


class Participant:
    """A two-phase-commit participant: a CAB task owning local data."""

    def __init__(self, node: NectarNode):
        self.node = node
        self.runtime = node.runtime
        self.data: Dict[bytes, bytes] = {}
        self._pending: Dict[int, List[Tuple[bytes, bytes]]] = {}
        self.prepared: set = set()
        #: Test hook: vote no for these transaction ids.
        self.refuse: set = set()
        rpc_service(node, "txn-participant", TXN_PORT, self._handle)
        self.stats = node.runtime.stats

    def stage(self, txn_id: int, name: bytes, value: bytes) -> None:
        """Buffer an update for a transaction (applied only on COMMIT)."""
        self._pending.setdefault(txn_id, []).append((name, value))

    def _handle(self, body: bytes, _header) -> bytes:
        opcode, txn_id, name, value = _decode(body)
        if opcode == _OP_PREPARE:
            if name:  # update piggybacked on the prepare
                self.stage(txn_id, name, value)
            if txn_id in self.refuse:
                self.stats.add("txn_votes_no")
                return _VOTE_NO
            self.prepared.add(txn_id)
            self.stats.add("txn_votes_yes")
            return _VOTE_YES
        if opcode == _OP_COMMIT:
            for update_name, update_value in self._pending.pop(txn_id, []):
                self.data[update_name] = update_value
            self.prepared.discard(txn_id)
            self.stats.add("txn_commits")
            return _ACK
        if opcode == _OP_ABORT:
            self._pending.pop(txn_id, None)
            self.prepared.discard(txn_id)
            self.stats.add("txn_aborts")
            return _ACK
        raise ProtocolError(f"bad transaction opcode {opcode!r}")


class TransactionCoordinator:
    """Two-phase commit plus distributed locking, driven from one CAB."""

    _txn_counter = itertools.count(1)

    def __init__(self, node: NectarNode, participants: Sequence[NectarNode]):
        if not participants:
            raise NectarError("a transaction needs at least one participant")
        self.node = node
        self.participants = list(participants)
        self.stats = node.runtime.stats

    def _call(self, target: NectarNode, port: int, payload: bytes) -> Generator:
        client_port = self.node.rpc.allocate_client_port()
        reply = yield from self.node.rpc.request(
            client_port, target.node_id, port, payload
        )
        return reply

    # -- locking -----------------------------------------------------------------

    def acquire_lock(self, home: NectarNode, txn_id: int, name: bytes, mode: str) -> Generator:
        """Acquire a named lock at its home node (blocks until granted)."""
        opcode = _OP_ACQUIRE_WRITE if mode == "write" else _OP_ACQUIRE_READ
        reply = yield from self._call(home, LOCK_PORT, _encode(opcode, txn_id, name))
        if reply != _GRANTED:
            raise ProtocolError(f"lock not granted: {reply!r}")

    def release_lock(self, home: NectarNode, txn_id: int, name: bytes) -> Generator:
        """Release a named lock at its home node."""
        yield from self._call(home, LOCK_PORT, _encode(_OP_RELEASE, txn_id, name))

    # -- two-phase commit ---------------------------------------------------------

    def run_transaction(
        self, updates: Dict[str, Tuple[bytes, bytes]]
    ) -> Generator:
        """Commit ``{participant_name: (key, value)}`` atomically.

        Returns ("committed", txn_id) or ("aborted", txn_id).
        """
        txn_id = next(TransactionCoordinator._txn_counter)
        by_name = {node.name: node for node in self.participants}

        # Phase 1: PREPARE (updates piggybacked).
        votes = []
        for participant_name, (key, value) in updates.items():
            node = by_name[participant_name]
            reply = yield from self._call(
                node, TXN_PORT, _encode(_OP_PREPARE, txn_id, key, value)
            )
            votes.append(reply)
        decision = _OP_COMMIT if all(vote == _VOTE_YES for vote in votes) else _OP_ABORT

        # Phase 2: COMMIT / ABORT to everyone that was prepared.
        for participant_name in updates:
            node = by_name[participant_name]
            yield from self._call(node, TXN_PORT, _encode(decision, txn_id, b""))
        outcome = "committed" if decision == _OP_COMMIT else "aborted"
        self.stats.add(f"txn_{outcome}")
        return outcome, txn_id
