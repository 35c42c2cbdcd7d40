"""The shared token ring.

One 80 Mbit/s medium connects every processor (§2.1).  The ring is a
capacity-1 :class:`~repro.sim.resources.Resource`: a sender holds it
for the packet's wire time, so concurrent senders queue — the
bandwidth contention that makes "partitioning both relations
concurrently" unattractive in §3.1 is modelled for real.

Short-circuited (same node) deliveries never touch the ring; see
:class:`~repro.network.service.NetworkService`.
"""

from __future__ import annotations

import typing

from repro.costs import CostModel
from repro.sim import Resource, Simulator


class TokenRing:
    """The shared interconnect medium."""

    #: Registry name in :data:`repro.network.topology.TOPOLOGIES`.
    kind = "token-ring"

    def __init__(self, sim: Simulator, costs: CostModel) -> None:
        self.sim = sim
        self.costs = costs
        self.medium = Resource(sim, capacity=1, name="token-ring")
        self.packets_carried = 0
        self.bytes_carried = 0

    def transmit(self, payload_bytes: int,
                 src_node: "int | None" = None,
                 dst_node: "int | None" = None) -> typing.Iterable:
        """Hold the ring for one packet's transmission time.

        Returns the medium's hold iterable directly (``yield from`` it);
        traffic is counted at issue time.  The endpoints are accepted
        for interface parity with the routed topologies and ignored:
        one shared medium carries every packet.
        """
        if payload_bytes <= 0:
            raise ValueError(
                f"packet payload must be positive: {payload_bytes}")
        if payload_bytes > self.costs.packet_size:
            raise ValueError(
                f"payload of {payload_bytes} bytes exceeds the "
                f"{self.costs.packet_size}-byte ring packet; fragment "
                "the message first")
        self.packets_carried += 1
        self.bytes_carried += payload_bytes
        return self.medium.use(self.costs.packet_wire_time(payload_bytes))

    def utilisation(self) -> float:
        """Fraction of elapsed time the ring has been busy."""
        return self.medium.utilisation()

    def expected_busy_time(self) -> float:
        """Busy time implied by the byte counter: every transmit holds
        the medium for exactly ``payload / bandwidth`` seconds, so the
        carried bytes pin the busy integral (conformance check)."""
        return self.bytes_carried / self.costs.ring_bandwidth

    def ledger(self) -> list[dict]:
        """The shared medium's single conservation entry
        (``REPRO_VERIFY`` network-conservation check)."""
        return [{"name": self.medium.name,
                 "busy_time": self.medium.busy_time,
                 "expected_busy_time": self.expected_busy_time(),
                 "bytes_carried": self.bytes_carried,
                 "packets_carried": self.packets_carried}]

    def media(self) -> list[Resource]:
        """Every modelled medium (resource-sanity sweep)."""
        return [self.medium]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<TokenRing packets={self.packets_carried} "
                f"bytes={self.bytes_carried}>")
