"""Network substrate: the 80 Mbit/s token ring and datagram service.

Gamma's processors communicate through an 80 Mbit/s Proteon token ring
with a reliable, sliding-window datagram protocol; messages between two
processes on the same processor are short-circuited by the
communication software (§2.2).  This package models that stack:

* :class:`~repro.network.ring.TokenRing` — the shared medium, a
  capacity-1 resource whose hold time is the packet's wire time.
* :mod:`~repro.network.messages` — data packets (2 KB), control
  messages, and end-of-stream markers.
* :class:`~repro.network.ports.PortRegistry` — (node, port) addressed
  mailboxes.
* :class:`~repro.network.service.NetworkService` — the send path that
  charges protocol CPU on the sender, wire time on the ring (skipped
  for same-node "short-circuit" deliveries, which still pay a reduced
  CPU cost on both ends — §4.1 of the paper leans on exactly this),
  and delivers into the destination mailbox.  Data packets take the
  same charges through :meth:`Router.flush_ready
  <repro.engine.operators.routing.Router.flush_ready>`.
* :mod:`~repro.network.topology` — scale-out interconnects behind the
  same transport contract: a switched fabric with per-link contention
  and a hypercube with dimension-order routing, selected per machine
  (or via ``REPRO_TOPOLOGY``).
"""

from repro.network.messages import (
    ControlMessage,
    DataPacket,
    EndOfStream,
    Message,
)
from repro.network.ports import Address, PortRegistry
from repro.network.ring import TokenRing
from repro.network.service import NetworkService, NetworkStats
from repro.network.topology import (
    TOPOLOGIES,
    Hypercube,
    SwitchedFabric,
    build_interconnect,
    resolve_topology_name,
)

__all__ = [
    "Address",
    "ControlMessage",
    "DataPacket",
    "EndOfStream",
    "Hypercube",
    "Message",
    "NetworkService",
    "NetworkStats",
    "PortRegistry",
    "SwitchedFabric",
    "TOPOLOGIES",
    "TokenRing",
    "build_interconnect",
    "resolve_topology_name",
]
