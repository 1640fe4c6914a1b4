"""Traffic and CAB-resident application extensions.

:mod:`repro.apps.traffic` is the one way a measurement drives a transport:
an endpoint per transport, in CAB-thread or host-process flavour, and the
four loops — ping-pong, echo, stream, drain — that Table 1, Figures 7-8,
the ``observe`` and ``load`` workloads, the chaos campaign and the fleet
mix all run over it, plus the request-response server loop every RPC
service shares.  :mod:`repro.apps.throughput` keeps the three byte-stream
measurements of Figure 8 that go through a socket API instead.
"""

from repro.apps import traffic

__all__ = ["traffic"]
