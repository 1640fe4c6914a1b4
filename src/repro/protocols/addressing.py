"""Node addressing: names, datalink node ids, IP addresses, routes.

Every CAB gets a small integer *node id* (used in the datalink header) and
an IPv4 address (used by the TCP/IP suite).  The registry is the glue
between protocol addressing and the HUB source routes.
"""

from __future__ import annotations

import itertools
from typing import Dict, Optional

from repro.errors import AddressError
from repro.hub.network import NectarNetwork

__all__ = ["NodeRegistry", "format_ip", "parse_ip"]


def parse_ip(text: str) -> int:
    """Dotted quad -> 32-bit integer."""
    parts = text.split(".")
    if len(parts) != 4:
        raise AddressError(f"bad IPv4 address {text!r}")
    value = 0
    for part in parts:
        octet = int(part)
        if not 0 <= octet <= 255:
            raise AddressError(f"bad IPv4 octet {part!r} in {text!r}")
        value = (value << 8) | octet
    return value


def format_ip(value: int) -> str:
    """32-bit integer -> dotted quad."""
    return ".".join(str((value >> shift) & 0xFF) for shift in (24, 16, 8, 0))


class NodeRegistry:
    """Name / node-id / IP bookkeeping for every CAB on a network, and the
    network-wide id source for what the nodes' protocols number."""

    def __init__(self, network: NectarNetwork):
        self.network = network
        self._by_name: Dict[str, int] = {}
        self._by_id: Dict[int, str] = {}
        self._ip_by_id: Dict[int, int] = {}
        self._id_by_ip: Dict[int, int] = {}
        self._next_id = 1
        self._next_connection_id = 1
        #: Link-frame sequence numbers (1, 2, ...); a bare counter because
        #: the datalink draws one per frame sent.
        self.frame_seqnos = itertools.count(1)

    def allocate_connection_id(self) -> int:
        """The next TCP connection id on this network (1, 2, ...)."""
        conn_id = self._next_connection_id
        self._next_connection_id += 1
        return conn_id

    def register(self, name: str, ip: Optional[str] = None) -> int:
        """Assign a node id (and IP) to a CAB name.  Returns the node id."""
        if name in self._by_name:
            raise AddressError(f"node {name!r} already registered")
        node_id = self._next_id
        self._next_id += 1
        self._by_name[name] = node_id
        self._by_id[node_id] = name
        # Default: the node id in the low 24 bits of 10.0.0.0/8.
        ip_value = parse_ip(ip) if ip else (10 << 24) | (node_id & 0xFFFFFF)
        if ip_value in self._id_by_ip:
            raise AddressError(f"IP {format_ip(ip_value)} already in use")
        self._ip_by_id[node_id] = ip_value
        self._id_by_ip[ip_value] = node_id
        return node_id

    def node_id(self, name: str) -> int:
        """The node id assigned to a CAB name."""
        if name not in self._by_name:
            raise AddressError(f"unknown node {name!r}")
        return self._by_name[name]

    def name_of(self, node_id: int) -> str:
        """The CAB name behind a node id."""
        if node_id not in self._by_id:
            raise AddressError(f"unknown node id {node_id}")
        return self._by_id[node_id]

    def ip_of(self, node_id: int) -> int:
        """The IPv4 address (as int) of a node id."""
        if node_id not in self._ip_by_id:
            raise AddressError(f"no IP for node id {node_id}")
        return self._ip_by_id[node_id]

    def ip_of_name(self, name: str) -> int:
        """The IPv4 address (as int) of a CAB name."""
        return self.ip_of(self.node_id(name))

    def node_for_ip(self, ip: int) -> int:
        """The node id owning an IPv4 address."""
        if ip not in self._id_by_ip:
            raise AddressError(f"no node with IP {format_ip(ip)}")
        return self._id_by_ip[ip]

    def route_to(self, src_name: str, dst_node_id: int) -> tuple:
        """Source route from a CAB to a node id.

        A group address (see :mod:`repro.hub.groups`) resolves to the
        sender's fan-out tree instead of a flat port list; the fabric
        replicates such frames at the crossbars.
        """
        if self.network.groups.is_group(dst_node_id):
            return self.network.groups.fanout_tree(src_name, dst_node_id)
        return self.network.route_for(src_name, self.name_of(dst_node_id))
