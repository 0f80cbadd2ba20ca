"""Transport plugins.

LDMS supports multiple interconnect types behind one plugin interface
(paper §IV-B): TCP sockets (``sock``), Infiniband/iWARP RDMA (``rdma``),
and Gemini RDMA (``ugni``).  This package provides:

* ``sock`` — a real TCP implementation usable across processes/hosts.
* ``sim.*`` — simulated transports for the DES: ``simsock``, ``rdma``
  and ``ugni`` profiles differing in latency, per-byte cost, target-CPU
  cost (RDMA reads consume no target CPU — Fig. 2 note {f}), and
  connection capacity (fan-in limits, §IV-A).
"""

from repro.transport.base import (
    Endpoint,
    Listener,
    Transport,
    TransportProfile,
    transport_registry,
    register_transport,
    get_transport_profile,
    PROFILES,
)
from repro.transport.sock import SockTransport
from repro.transport.simfabric import SimFabric, SimTransport

__all__ = [
    "Endpoint",
    "Listener",
    "Transport",
    "TransportProfile",
    "transport_registry",
    "register_transport",
    "get_transport_profile",
    "PROFILES",
    "SockTransport",
    "SimFabric",
    "SimTransport",
]
