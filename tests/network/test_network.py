"""Tests for packets, ports, the ring, and the send path."""

import pytest

from repro.costs import CostModel
from repro.engine.machine import GammaMachine
from repro.engine.operators.routing import Router
from repro.network.messages import (
    ControlMessage,
    DataPacket,
    EndOfStream,
)
from repro.network.ports import PortRegistry
from repro.network.ring import TokenRing
from repro.sim import Simulator

COSTS = CostModel()


class TestMessages:
    def test_packet_len(self):
        packet = DataPacket(src_node=0, rows=((1,), (2,)),
                            payload_bytes=416, hashes=(11, 22))
        assert len(packet) == 2

    def test_rows_hashes_must_align(self):
        with pytest.raises(ValueError, match="mismatch"):
            DataPacket(src_node=0, rows=((1,),), payload_bytes=208,
                       hashes=(1, 2))

    def test_empty_packet_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            DataPacket(src_node=0, rows=(), payload_bytes=0,
                       hashes=())

    def test_eos_carries_source(self):
        assert EndOfStream(src_node=3).src_node == 3


class TestPortRegistry:
    def test_mailbox_created_on_demand(self):
        registry = PortRegistry(Simulator())
        box = registry.mailbox(1, "join.build")
        assert registry.mailbox(1, "join.build") is box
        assert registry.mailbox(2, "join.build") is not box
        assert len(registry) == 2

    def test_undelivered_detection(self):
        registry = PortRegistry(Simulator())
        registry.mailbox(0, "p").put("orphan")
        assert registry.undelivered_messages() == {(0, "p"): 1}


class TestTokenRing:
    def test_wire_time(self):
        sim = Simulator()
        ring = TokenRing(sim, COSTS)

        def body():
            yield from ring.transmit(2048)

        sim.process(body())
        sim.run()
        assert sim.now == pytest.approx(2048 / 10e6)
        assert ring.packets_carried == 1
        assert ring.bytes_carried == 2048

    def test_shared_medium_serialises(self):
        sim = Simulator()
        ring = TokenRing(sim, COSTS)

        def sender():
            for _ in range(10):
                yield from ring.transmit(2048)

        sim.process(sender())
        sim.process(sender())
        sim.run()
        assert sim.now == pytest.approx(20 * 2048 / 10e6)

    def test_oversized_packet_rejected(self):
        sim = Simulator()
        ring = TokenRing(sim, COSTS)

        def body():
            with pytest.raises(ValueError, match="exceeds"):
                yield from ring.transmit(4096)
            yield sim.timeout(0)

        sim.process(body())
        sim.run()


class TestSendPath:
    """Data packets take one send path, ``Router.flush_ready``; the
    network service's ``send`` carries control traffic only."""

    @staticmethod
    def send_packet(machine, src, dst):
        """Send one one-tuple data packet from ``src`` to ``dst``."""
        router = Router(machine, machine.nodes[src], [machine.nodes[dst]],
                        "p", 208)
        router.extend_ready([((dst, None), [(1,)], 0, 1, 1, [99])])
        yield from router.flush_ready()

    def test_remote_send_delivers(self):
        machine = GammaMachine.local(2)
        received = []

        def sender():
            yield from self.send_packet(machine, 0, 1)

        def receiver():
            message = yield machine.registry.mailbox(1, "p").get()
            yield from machine.network.receive_charge(1, message)
            received.append(message)

        machine.sim.process(receiver())
        machine.sim.process(sender())
        machine.sim.run()
        assert len(received) == 1
        stats = machine.network.stats
        assert stats.data_packets == 1
        assert stats.data_packets_shortcircuited == 0
        assert machine.ring.packets_carried == 1

    def test_local_send_skips_ring(self):
        machine = GammaMachine.local(2)

        def sender():
            yield from self.send_packet(machine, 0, 0)
            message = yield machine.registry.mailbox(0, "p").get()
            yield from machine.network.receive_charge(0, message)

        machine.sim.process(sender())
        machine.sim.run()
        assert machine.ring.packets_carried == 0
        assert machine.network.stats.data_packets_shortcircuited == 1
        # Short-circuit cost is paid on both ends but is cheaper
        # than the full protocol stack (§4.1).
        assert machine.sim.now == pytest.approx(
            2 * COSTS.packet_shortcircuit)
        assert machine.sim.now < (COSTS.packet_protocol_send
                                  + COSTS.packet_protocol_receive)

    def test_shortcircuit_fraction(self):
        machine = GammaMachine.local(2)

        def sender():
            yield from self.send_packet(machine, 0, 0)
            yield from self.send_packet(machine, 0, 1)

        machine.sim.process(sender())
        machine.sim.run()
        assert machine.network.stats.shortcircuit_fraction == 0.5
        # Drain for cleanliness.
        machine.registry.mailbox(0, "p")._items.clear()
        machine.registry.mailbox(1, "p")._items.clear()

    def test_control_message_extra_cost(self):
        machine = GammaMachine.local(2)

        def sender():
            yield from machine.network.send(
                0, 1, "c", ControlMessage(kind="x", src_node=0))

        machine.sim.process(sender())
        machine.sim.run()
        assert machine.sim.now >= COSTS.control_message
        machine.registry.mailbox(1, "c")._items.clear()

    def test_stats_delta(self):
        machine = GammaMachine.local(2)

        def sender():
            yield from self.send_packet(machine, 0, 1)

        machine.sim.process(sender())
        machine.sim.run()
        before = machine.network.stats.snapshot()

        def sender2():
            yield from self.send_packet(machine, 1, 0)

        machine.sim.process(sender2())
        machine.sim.run()
        delta = machine.network.stats.delta(before)
        assert delta.data_packets == 1
        assert delta.data_tuples == 1
        machine.registry.mailbox(1, "p")._items.clear()
        machine.registry.mailbox(0, "p")._items.clear()

    def test_send_refuses_data_packets(self):
        machine = GammaMachine.local(2)
        packet = DataPacket(src_node=0, rows=((1,),), payload_bytes=208,
                            hashes=(99,))
        with pytest.raises(TypeError, match="flush_ready"):
            next(machine.network.send(0, 1, "p", packet))


class TestTransferCost:
    def test_single_packet(self):
        machine = GammaMachine.local(2)

        def body():
            yield from machine.network.transfer_cost(0, 1, 100)

        machine.sim.process(body())
        machine.sim.run()
        assert machine.network.stats.control_messages == 1
        assert machine.ring.packets_carried == 1

    def test_fragmentation_over_packet_size(self):
        """A 5 KB payload needs three 2 KB ring packets — the §4.1
        split-table fragmentation effect."""
        machine = GammaMachine.local(2)

        def body():
            yield from machine.network.transfer_cost(0, 1, 5000)

        machine.sim.process(body())
        machine.sim.run()
        assert machine.network.stats.control_messages == 3
        assert machine.ring.packets_carried == 3

    def test_local_transfer_skips_ring(self):
        machine = GammaMachine.local(2)

        def body():
            yield from machine.network.transfer_cost(1, 1, 5000)

        machine.sim.process(body())
        machine.sim.run()
        assert machine.ring.packets_carried == 0
        assert machine.network.stats.control_messages_shortcircuited == 3
