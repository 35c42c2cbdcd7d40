"""Pluggable interconnect topologies behind one transport interface.

The paper's machine is wired by a single shared token ring
(:class:`~repro.network.ring.TokenRing`); the scale-out experiments
(ROADMAP item 1) need interconnects whose aggregate bandwidth *grows*
with the node count.  Every topology exposes the same contract, which
is all the send path relies on:

``transmit(payload_bytes, src_node=None, dst_node=None)``
    A generator/iterable to ``yield from`` inside the sender's
    process; it occupies the modelled media for the packet's journey.
    The ring ignores the endpoints (one shared medium); routed
    topologies require them.

``ledger()``
    One conservation entry per medium — ``busy_time`` versus the
    ``expected_busy_time`` implied by that medium's byte/packet
    counters — consumed by the ``REPRO_VERIFY`` conformance monitor's
    network-conservation check.

``media()``
    Every underlying :class:`~repro.sim.resources.Resource`, for the
    monitor's resource-sanity sweep.

Two scale-out topologies are modelled:

* :class:`SwitchedFabric` — every node gets a dedicated full-duplex
  link to one non-blocking switch: a capacity-1 *uplink* (node ->
  switch) and *downlink* (switch -> node), each running at
  ``ring_bandwidth``.  A packet holds its source's uplink for the wire
  time, then the destination's downlink for the switch's egress port
  cost (``CostModel.switch_port_cost``, store-and-forward) plus the
  wire time.  Distinct (src, dst) pairs ride disjoint links, so
  aggregate bandwidth scales with N while a fan-in to one destination
  still queues on that destination's downlink — the incast contention
  a real switch exhibits.
* :class:`Hypercube` — nodes sit on a ``2^dim`` boolean cube
  (``dim = ceil(log2(N))``) with one full-duplex link per edge, each
  at ``ring_bandwidth``.  Packets follow dimension-order routing
  (correct lowest differing address bit first), holding each hop's
  link for ``CostModel.hop_latency`` plus the wire time, so a
  transfer costs at most ``dim`` hops.  Clusters that are not a power
  of two are padded to the enclosing cube; intermediate vertices with
  no processor attached act as pure switching elements.

:func:`build_interconnect` is the registry-backed factory
:class:`~repro.engine.machine.GammaMachine` uses; the selection
defaults to the ``REPRO_TOPOLOGY`` environment variable (and to the
paper-faithful ``token-ring`` when unset).
"""

from __future__ import annotations

import os
import typing

from repro.costs import CostModel
from repro.network.ring import TokenRing
from repro.sim import Resource, Simulator


class _Link:
    """One modelled medium: a capacity-1 resource plus its traffic
    counters and the fixed per-packet cost charged on top of wire
    time (switch port or hop forwarding latency)."""

    __slots__ = ("resource", "fixed_cost", "packets", "bytes")

    def __init__(self, resource: Resource, fixed_cost: float) -> None:
        self.resource = resource
        self.fixed_cost = fixed_cost
        self.packets = 0
        self.bytes = 0

    def expected_busy_time(self, bandwidth: float) -> float:
        return self.bytes / bandwidth + self.packets * self.fixed_cost

    def ledger_entry(self, bandwidth: float) -> dict:
        return {"name": self.resource.name,
                "busy_time": self.resource.busy_time,
                "expected_busy_time": self.expected_busy_time(bandwidth),
                "bytes_carried": self.bytes,
                "packets_carried": self.packets}


class Interconnect:
    """Shared behaviour of the routed (non-ring) topologies."""

    #: Registry name; subclasses override.
    kind = "interconnect"

    def __init__(self, sim: Simulator, costs: CostModel,
                 num_nodes: int) -> None:
        if num_nodes < 1:
            raise ValueError(f"need at least one node, got {num_nodes}")
        self.sim = sim
        self.costs = costs
        self.num_nodes = num_nodes
        self.packets_carried = 0
        self.bytes_carried = 0

    # -- transport contract ----------------------------------------------

    def transmit(self, payload_bytes: int, src_node: int | None = None,
                 dst_node: int | None = None) -> typing.Iterable:
        raise NotImplementedError

    def _validate(self, payload_bytes: int, src_node: int | None,
                  dst_node: int | None) -> None:
        if payload_bytes <= 0:
            raise ValueError(
                f"packet payload must be positive: {payload_bytes}")
        if payload_bytes > self.costs.packet_size:
            raise ValueError(
                f"payload of {payload_bytes} bytes exceeds the "
                f"{self.costs.packet_size}-byte packet; fragment the "
                "message first")
        if src_node is None or dst_node is None:
            raise ValueError(
                f"the {self.kind} topology routes per endpoint; "
                "transmit() needs src_node and dst_node")
        if not (0 <= src_node < self.num_nodes
                and 0 <= dst_node < self.num_nodes):
            raise ValueError(
                f"endpoints ({src_node}, {dst_node}) outside the "
                f"{self.num_nodes}-node cluster")
        if src_node == dst_node:
            raise ValueError(
                f"same-node traffic (node {src_node}) short-circuits in "
                "NetworkService and never reaches the interconnect")

    # -- conformance ------------------------------------------------------

    def _links(self) -> typing.Sequence[_Link]:
        raise NotImplementedError

    def ledger(self) -> list[dict]:
        """Per-medium conservation entries (``REPRO_VERIFY``)."""
        bandwidth = self.costs.ring_bandwidth
        return [link.ledger_entry(bandwidth) for link in self._links()]

    def media(self) -> list[Resource]:
        """Every modelled medium (resource-sanity sweep)."""
        return [link.resource for link in self._links()]

    def utilisation(self) -> float:
        """Mean busy fraction across the media that saw traffic."""
        used = [link.resource.utilisation() for link in self._links()
                if link.packets]
        return sum(used) / len(used) if used else 0.0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<{type(self).__name__} nodes={self.num_nodes} "
                f"packets={self.packets_carried} "
                f"bytes={self.bytes_carried}>")


class SwitchedFabric(Interconnect):
    """A non-blocking switch with one full-duplex link per node."""

    kind = "fabric"

    def __init__(self, sim: Simulator, costs: CostModel,
                 num_nodes: int) -> None:
        super().__init__(sim, costs, num_nodes)
        port = costs.switch_port_cost
        self.uplinks = [
            _Link(Resource(sim, capacity=1, name=f"fabric-up{i}"), 0.0)
            for i in range(num_nodes)]
        self.downlinks = [
            _Link(Resource(sim, capacity=1, name=f"fabric-down{i}"), port)
            for i in range(num_nodes)]

    def transmit(self, payload_bytes: int, src_node: int | None = None,
                 dst_node: int | None = None) -> typing.Generator:
        """Hold the source uplink, then the destination downlink."""
        self._validate(payload_bytes, src_node, dst_node)
        self.packets_carried += 1
        self.bytes_carried += payload_bytes
        wire = self.costs.packet_wire_time(payload_bytes)
        up = self.uplinks[src_node]
        up.packets += 1
        up.bytes += payload_bytes
        yield from up.resource.use(wire)
        down = self.downlinks[dst_node]
        down.packets += 1
        down.bytes += payload_bytes
        yield from down.resource.use(down.fixed_cost + wire)

    def _links(self) -> typing.Sequence[_Link]:
        return self.uplinks + self.downlinks


class Hypercube(Interconnect):
    """A boolean ``2^dim`` cube with dimension-order routing."""

    kind = "hypercube"

    def __init__(self, sim: Simulator, costs: CostModel,
                 num_nodes: int) -> None:
        super().__init__(sim, costs, num_nodes)
        #: Cube dimension: the smallest cube that fits the cluster
        #: (a 1-node cluster still gets a 1-dimensional cube so the
        #: object is well-formed, though all its traffic
        #: short-circuits before reaching us).
        self.dim = max(1, (num_nodes - 1).bit_length())
        #: Edge (lo, hi) -> link, created on first use: a cube has
        #: ``dim * 2^(dim-1)`` edges, most of which a given workload
        #: never crosses.
        self._edges: dict[tuple[int, int], _Link] = {}

    def route(self, src_node: int, dst_node: int
              ) -> list[tuple[int, int]]:
        """The dimension-order hop sequence from src to dst.

        Corrects the lowest differing address bit first; every hop
        crosses one cube edge, so ``len(route(s, d)) ==
        popcount(s ^ d) <= dim``.  On padded (non-power-of-two)
        clusters intermediate vertices may carry no processor — they
        forward as switching elements.
        """
        hops: list[tuple[int, int]] = []
        current = src_node
        differs = current ^ dst_node
        bit = 1
        while differs:
            if differs & 1:
                nxt = current ^ bit
                hops.append((current, nxt))
                current = nxt
            differs >>= 1
            bit <<= 1
        return hops

    def _edge(self, a: int, b: int) -> _Link:
        key = (a, b) if a < b else (b, a)
        link = self._edges.get(key)
        if link is None:
            link = _Link(
                Resource(self.sim, capacity=1,
                         name=f"hypercube-{key[0]}-{key[1]}"),
                self.costs.hop_latency)
            self._edges[key] = link
        return link

    def transmit(self, payload_bytes: int, src_node: int | None = None,
                 dst_node: int | None = None) -> typing.Generator:
        """Hold each hop's link in routing order (store-and-forward)."""
        self._validate(payload_bytes, src_node, dst_node)
        self.packets_carried += 1
        self.bytes_carried += payload_bytes
        wire = self.costs.packet_wire_time(payload_bytes)
        hold = self.costs.hop_latency + wire
        for hop_src, hop_dst in self.route(src_node, dst_node):
            link = self._edge(hop_src, hop_dst)
            link.packets += 1
            link.bytes += payload_bytes
            yield from link.resource.use(hold)

    def _links(self) -> typing.Sequence[_Link]:
        return [self._edges[key] for key in sorted(self._edges)]


#: Registered interconnect topologies.  ``token-ring`` is the paper's
#: shared medium and the default everywhere; golden bit-parity tests
#: pin its figure outputs byte-for-byte.
TOPOLOGIES: dict[str, typing.Callable] = {
    "token-ring": lambda sim, costs, num_nodes: TokenRing(sim, costs),
    "fabric": SwitchedFabric,
    "hypercube": Hypercube,
}


def build_interconnect(kind: str, sim: Simulator, costs: CostModel,
                       num_nodes: int):
    """Instantiate the registered topology called ``kind``."""
    try:
        factory = TOPOLOGIES[kind]
    except KeyError:
        known = ", ".join(sorted(TOPOLOGIES))
        raise ValueError(
            f"unknown interconnect topology {kind!r}; registered "
            f"topologies: {known}") from None
    return factory(sim, costs, num_nodes)


def topology_from_environment() -> str:
    """The topology selected by ``REPRO_TOPOLOGY`` (validated)."""
    kind = os.environ.get("REPRO_TOPOLOGY", "token-ring")
    if kind not in TOPOLOGIES:
        known = ", ".join(sorted(TOPOLOGIES))
        raise ValueError(
            f"REPRO_TOPOLOGY={kind!r} is not a registered topology; "
            f"choose one of: {known}")
    return kind


def resolve_topology_name(kind: str | None) -> str:
    """Resolve a designator to a registry name (for cache keys)."""
    if kind is None:
        return topology_from_environment()
    if kind not in TOPOLOGIES:
        known = ", ".join(sorted(TOPOLOGIES))
        raise ValueError(
            f"unknown interconnect topology {kind!r}; registered "
            f"topologies: {known}")
    return kind
