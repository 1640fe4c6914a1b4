"""The Nectar-specific transport protocols (paper Sec. 4).

"The Nectar-specific protocols provide datagram, reliable message, and
request-response communication.  The reliable message protocol is a simple
stop-and-wait protocol, and the request-response protocol provides the
transport mechanism for client-server RPC calls."

None of them computes a software checksum — they rely on the CRC implemented
by the CAB hardware, which is why RMP outruns TCP in Figure 7.

Two protocols added on top of the paper's three prove its thesis that the
CAB runtime makes transports cheap to add: NMP (NACK-oriented reliable
multicast over HUB crossbar fan-out) and the CAB-resident collective
engine (a barrier tree run at interrupt time on the NIC).

Each plugs into the CAB one way: it registers a receive cost, a counter
scope and one :class:`PacketKind` per packet kind with the shared
:class:`NectarTransportLayer`, whose receive table does the rest.
"""

from repro.protocols.nectar.transport import NectarTransportLayer, PacketKind
from repro.protocols.nectar.collective import CollectiveEngine, CollectiveGroup
from repro.protocols.nectar.datagram import DatagramProtocol
from repro.protocols.nectar.nmp import NMPProtocol, NMPReceiver, NMPSender
from repro.protocols.nectar.rmp import RMPChannel, RMPProtocol
from repro.protocols.nectar.reqresp import RequestResponseProtocol

__all__ = [
    "CollectiveEngine",
    "CollectiveGroup",
    "DatagramProtocol",
    "NMPProtocol",
    "NMPReceiver",
    "NMPSender",
    "NectarTransportLayer",
    "PacketKind",
    "RMPChannel",
    "RMPProtocol",
    "RequestResponseProtocol",
]
