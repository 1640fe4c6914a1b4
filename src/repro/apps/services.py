"""The RMP host-send service under the name ``perf/workloads.py`` imports.

Everything else that lived here is :mod:`repro.apps.traffic`; this alias
goes when the ledger's hand-written stream generators move onto it.
"""

from __future__ import annotations

from repro.apps.traffic import host_send_service
from repro.protocols.nectar.rmp import RMPChannel
from repro.runtime.mailbox import Mailbox
from repro.system import NectarNode

__all__ = ["install_rmp_host_send"]


def install_rmp_host_send(node: NectarNode, channel: RMPChannel) -> Mailbox:
    """A mailbox whose messages a CAB thread sends reliably over ``channel``."""
    return host_send_service(
        node, "rmp-host-send", lambda _head, payload: node.rmp.send(channel, payload)
    )
