"""The datagram send/receive path.

``NetworkService.send`` is a generator executed *inside the sending
operator's process*: the sender's CPU is charged the protocol cost,
the ring is held for the wire time (unless the destination is the same
node — the short-circuit path, which skips the ring but still pays a
reduced CPU cost on both ends, per §2.2/§4.1), and the message is
deposited in the destination mailbox.  The receiving operator charges
its own protocol cost via ``receive_charge`` when it dequeues the
message.  ``send`` carries control traffic; data packets take the same
charges through ``Router.flush_ready``, their one send path.

The service keeps global traffic counters; per-phase deltas are
snapshotted by the join drivers for the statistics the paper reports
(short-circuited fractions, local-write percentages of Table 2).
"""

from __future__ import annotations

import dataclasses
import typing

from repro.costs import CostModel
from repro.network.messages import (
    ControlMessage,
    DataPacket,
    EndOfStream,
    Message,
)
from repro.network.ports import PortRegistry
from repro.network.ring import TokenRing
from repro.sim import Resource, Simulator


@dataclasses.dataclass
class NetworkStats:
    """Cumulative traffic counters."""

    data_packets: int = 0
    data_packets_shortcircuited: int = 0
    data_tuples: int = 0
    data_tuples_shortcircuited: int = 0
    data_bytes: int = 0
    control_messages: int = 0
    control_messages_shortcircuited: int = 0
    #: The end-of-stream markers among ``control_messages`` (stream
    #: termination traffic: flat fan-out or combining tree).
    eos_messages: int = 0

    def snapshot(self) -> "NetworkStats":
        return dataclasses.replace(self)

    def delta(self, earlier: "NetworkStats") -> "NetworkStats":
        """Counters accumulated since ``earlier``."""
        return NetworkStats(
            data_packets=self.data_packets - earlier.data_packets,
            data_packets_shortcircuited=(
                self.data_packets_shortcircuited
                - earlier.data_packets_shortcircuited),
            data_tuples=self.data_tuples - earlier.data_tuples,
            data_tuples_shortcircuited=(
                self.data_tuples_shortcircuited
                - earlier.data_tuples_shortcircuited),
            data_bytes=self.data_bytes - earlier.data_bytes,
            control_messages=self.control_messages - earlier.control_messages,
            control_messages_shortcircuited=(
                self.control_messages_shortcircuited
                - earlier.control_messages_shortcircuited),
            eos_messages=self.eos_messages - earlier.eos_messages,
        )

    @property
    def shortcircuit_fraction(self) -> float:
        """Fraction of data tuples that never touched the ring."""
        if self.data_tuples == 0:
            return 0.0
        return self.data_tuples_shortcircuited / self.data_tuples


class NetworkService:
    """Send path + addressing for one machine."""

    def __init__(self, sim: Simulator, costs: CostModel,
                 ring: TokenRing, registry: PortRegistry) -> None:
        # ``ring`` is any interconnect honouring the transport contract
        # of :mod:`repro.network.topology` (the attribute keeps its
        # historical name); the routed topologies consume the
        # (src, dst) endpoints every transmit passes along.
        self.sim = sim
        self.costs = costs
        self.ring = ring
        self.registry = registry
        self.stats = NetworkStats()
        self._cpus: list[Resource] = []

    def attach_cpus(self, cpus: typing.Sequence[Resource]) -> None:
        """Wire in the per-node CPU resources (called by the machine)."""
        self._cpus = list(cpus)

    def _cpu(self, node_id: int) -> Resource:
        try:
            return self._cpus[node_id]
        except IndexError:
            raise ValueError(
                f"unknown node id {node_id}; machine has "
                f"{len(self._cpus)} nodes") from None

    # -- sending ----------------------------------------------------------

    def send(self, src_node: int, dst_node: int, port: str,
             message: Message) -> typing.Generator:
        """Deliver control traffic from ``src_node`` to ``(dst_node,
        port)``.

        Generator: run it with ``yield from`` inside the sender's
        process.  Charges the sender's CPU and (for remote traffic)
        the ring; delivery into the mailbox is instantaneous after the
        wire time, the receiver pays its own cost on dequeue.  Data
        packets have one send path, :meth:`Router.flush_ready
        <repro.engine.operators.routing.Router.flush_ready>`, and are
        refused here.
        """
        mtype = type(message)
        if mtype is DataPacket:
            raise TypeError(
                "data packets are sent by Router.flush_ready, not "
                "NetworkService.send")
        local = src_node == dst_node
        self.stats.control_messages += 1
        if local:
            self.stats.control_messages_shortcircuited += 1
        if mtype is EndOfStream:
            self.stats.eos_messages += 1
        payload = getattr(message, "payload_bytes", 64)
        send_cost = (self.costs.packet_shortcircuit if local
                     else self.costs.packet_protocol_send)
        if mtype is ControlMessage:
            send_cost += self.costs.control_message
        yield from self._cpu(src_node).use(send_cost)
        if not local:
            yield from self.ring.transmit(
                min(payload, self.costs.packet_size),
                src_node, dst_node)
        self.registry.mailbox(dst_node, port).put(message)

    def receive_charge(self, dst_node: int, message: Message
                       ) -> typing.Iterable:
        """Charge the receiver's protocol CPU for one dequeued message.

        Returns the CPU hold iterable directly (``yield from`` it)."""
        src = getattr(message, "src_node", dst_node)
        local = src == dst_node
        cost = (self.costs.packet_shortcircuit if local
                else self.costs.packet_protocol_receive)
        return self._cpu(dst_node).use(cost)

    # -- pure-cost control transfers -----------------------------------------

    def transfer_cost(self, src_node: int, dst_node: int,
                      payload_bytes: int) -> typing.Generator:
        """Charge the full transport cost of a control payload without
        delivering a message object.

        The simulation's orchestration code passes control *state*
        (split tables, bit filters, cutoff maps) between operators as
        Python objects; what must be simulated is the transport:
        protocol CPU on both ends, control-message handling on the
        sender, and ring time for remote transfers.  Payloads larger
        than one ring packet are fragmented — e.g. a partitioning
        split table once memory is scarce enough, the source of the
        "extra rise" in Figures 5/6 and the Table 4 anomaly at seven
        buckets.
        """
        costs = self.costs
        packet_size = costs.packet_size
        packets = max(1, -(-payload_bytes // packet_size))
        local = src_node == dst_node
        # Per-fragment charges are loop-invariant; hoist the cost-model
        # and CPU-resource lookups out of the fragment loop.
        if local:
            send_cost = costs.packet_shortcircuit + costs.control_message
            receive_cost = costs.packet_shortcircuit
        else:
            send_cost = costs.packet_protocol_send + costs.control_message
            receive_cost = costs.packet_protocol_receive
        src_use = self._cpu(src_node).use
        dst_use = self._cpu(dst_node).use
        stats = self.stats
        ring_transmit = self.ring.transmit
        remaining = payload_bytes
        for _fragment in range(packets):
            stats.control_messages += 1
            if local:
                stats.control_messages_shortcircuited += 1
            yield from src_use(send_cost)
            if not local:
                yield from ring_transmit(
                    max(1, min(remaining, packet_size)),
                    src_node, dst_node)
            yield from dst_use(receive_cost)
            remaining -= packet_size
