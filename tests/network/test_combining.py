"""The combining-tree end-of-stream protocol (DESIGN.md §14).

Three layers: the tree arithmetic of :mod:`repro.network.combining`
(hypothesis), the protocol as :class:`Router` runs it on a real machine
with producers that finish far apart, and what a consumer does with an
end-of-stream count that does not add up.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.costs import CostModel, get_profile
from repro.engine.machine import GammaMachine
from repro.engine.operators import Router, tempfile_writer
from repro.network.combining import CombiningTree, engages
from repro.network.messages import (
    DataPacket,
    EndOfStream,
    StreamTerminationError,
)
from repro.sim import ProcessCrash
from repro.storage.files import PagedFile

shapes = st.tuples(st.integers(1, 300), st.integers(1, 300),
                   st.integers(2, 16))


class TestTreeShape:
    @given(shapes)
    def test_every_consumer_has_exactly_one_owner(self, shape):
        tree = CombiningTree(*shape)
        owners = [index for rank in range(tree.n_producers)
                  for index in tree.owned(rank)]
        assert sorted(owners) == list(range(tree.n_consumers))

    @given(shapes)
    def test_parents_and_children_agree(self, shape):
        tree = CombiningTree(*shape)
        assert tree.parent(0) is None
        seen = []
        for rank in range(tree.n_producers):
            children = tree.children(rank)
            assert len(children) <= tree.arity
            for child in children:
                assert tree.parent(child) == rank
            seen.extend(children)
        # Every non-root producer is the child of exactly one parent.
        assert sorted(seen) == list(range(1, tree.n_producers))

    @given(shapes)
    def test_depth_is_logarithmic(self, shape):
        tree = CombiningTree(*shape)
        # ceil(log_k P) in integers: the least b with k**b >= P.
        bound = 0
        while tree.arity ** bound < tree.n_producers:
            bound += 1
        assert tree.height <= bound
        assert tree.height == max(tree.depth(rank)
                                  for rank in range(tree.n_producers))

    @given(shapes)
    def test_message_count(self, shape):
        tree = CombiningTree(*shape)
        edges = sum(len(tree.children(rank))
                    for rank in range(tree.n_producers))
        out = sum(len(tree.owned(rank))
                  for rank in range(tree.n_producers))
        assert tree.messages == 2 * edges + out \
            == 2 * (tree.n_producers - 1) + tree.n_consumers

    def test_rejects_degenerate_shapes(self):
        for shape in ((0, 4, 2), (4, 0, 2), (4, 4, 1)):
            with pytest.raises(ValueError, match="degenerate"):
                CombiningTree(*shape)

    def test_engages_only_past_the_arity(self):
        assert not engages(0, 1000)       # flat profile
        assert not engages(8, 8)
        assert engages(8, 9)


class TestProfiles:
    def test_gamma_keeps_the_flat_rule(self):
        assert get_profile("gamma-1989").eos_tree_arity == 0

    def test_modern_combines(self):
        assert get_profile("modern-2018").eos_tree_arity >= 8

    def test_arity_of_one_is_rejected(self):
        with pytest.raises(ValueError, match="eos_tree_arity"):
            CostModel(eos_tree_arity=1)
        with pytest.raises(ValueError, match="eos_tree_arity"):
            CostModel(eos_tree_arity=-2)


def _run_stream(n_producers, n_consumers, arity, topology="fabric",
                stagger=0.001):
    """P routers on the disk nodes feed C consumers on the diskless
    nodes; producer ``i`` starts ``i * stagger`` late and sends one
    tuple to every consumer.  Returns (machine, finished): per
    consumer, when it terminated and the tuples it had dequeued by
    then."""
    costs = dataclasses.replace(get_profile("modern-2018"),
                                eos_tree_arity=arity)
    machine = GammaMachine.remote(n_producers, n_consumers, costs=costs,
                                  topology=topology)
    consumers = machine.diskless_nodes
    routers = [Router(machine, node, consumers, "s", 208)
               for node in machine.disk_nodes]
    finished: dict[int, tuple[float, int]] = {}

    def producer(rank, router):
        yield machine.sim.timeout(rank * stagger)
        for consumer in consumers:
            router.give(consumer.node_id, (rank,), rank)
        yield from router.close()

    def consumer(node):
        mailbox = machine.registry.mailbox(node.node_id, "s")
        remaining, tuples = n_producers, 0
        while remaining:
            message = yield mailbox.get()
            yield from machine.network.receive_charge(node.node_id,
                                                      message)
            if type(message) is EndOfStream:
                remaining -= message.closes
                assert remaining >= 0
            else:
                assert type(message) is DataPacket
                tuples += len(message.rows)
        finished[node.node_id] = (machine.sim.now, tuples)

    for node in consumers:
        machine.sim.process(consumer(node))
    for rank, router in enumerate(routers):
        machine.sim.process(producer(rank, router))
    machine.run_to_completion()   # raises on undelivered messages
    return machine, finished


class TestProtocol:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 24), st.integers(1, 24), st.integers(2, 6),
           st.sampled_from(["token-ring", "fabric", "hypercube"]))
    def test_no_consumer_ends_before_the_last_producer(
            self, n_producers, n_consumers, arity, topology):
        machine, finished = _run_stream(
            n_producers, n_consumers, arity, topology)
        assert len(finished) == n_consumers
        # A consumer counts tuples only until it terminates, and
        # run_to_completion rejects anything left in a mailbox: having
        # every producer's tuple means no early finisher ended it.
        last_start = (n_producers - 1) * 0.001
        for ended, tuples in finished.values():
            assert tuples == n_producers
            assert ended > last_start
        stats = machine.network.stats
        if engages(arity, n_consumers):
            tree = CombiningTree(n_producers, n_consumers, arity)
            assert stats.eos_messages == tree.messages
        else:
            assert stats.eos_messages == n_producers * n_consumers
        assert stats.control_messages == stats.eos_messages

    def test_message_count_drops_from_quadratic_to_linear(self):
        tree, _ = _run_stream(64, 64, 8, stagger=0.0)
        assert tree.network.stats.eos_messages == 2 * 63 + 64
        # Same stream, same hardware, arity too wide to engage.
        flat, _ = _run_stream(64, 64, 64, stagger=0.0)
        assert flat.network.stats.eos_messages == 64 * 64
        assert tree.sim.now < flat.sim.now

    def test_late_router_cannot_join_a_closing_tree(self):
        costs = get_profile("modern-2018")
        machine = GammaMachine.local(12, costs=costs)
        first = Router(machine, machine.disk_nodes[0],
                       machine.disk_nodes, "p", 208)
        machine.sim.process(first.close())
        machine.sim.run()
        with pytest.raises(StreamTerminationError,
                           match="already began") as raised:
            Router(machine, machine.disk_nodes[1], machine.disk_nodes,
                   "p", 208)
        assert raised.value.port == "p"
        assert raised.value.node == 1

    def test_peers_must_share_their_consumers(self):
        machine = GammaMachine.local(12, costs="modern-2018")
        Router(machine, machine.disk_nodes[0], machine.disk_nodes,
               "p", 208)
        with pytest.raises(StreamTerminationError, match="differ"):
            Router(machine, machine.disk_nodes[1],
                   machine.disk_nodes[:10], "p", 208)


class TestConsumerCounting:
    def _writer(self, machine, n_producers):
        node = machine.disk_nodes[0]
        file = PagedFile("f", 208, 8192)
        return node, tempfile_writer(
            machine, node, "w", n_producers,
            select_file=lambda bucket: file, close_files=[file])

    def test_combined_marker_closes_every_stream(self):
        machine = GammaMachine.local(2)
        node, writer = self._writer(machine, 5)
        done = machine.sim.process(writer)
        machine.registry.mailbox(node.node_id, "w").put(
            EndOfStream(src_node=1, closes=5))
        machine.run_to_completion()
        assert done.triggered

    def test_overshoot_is_a_structured_error(self):
        machine = GammaMachine.local(2)
        node, writer = self._writer(machine, 3)
        machine.sim.process(writer)
        box = machine.registry.mailbox(node.node_id, "w")
        box.put(EndOfStream(src_node=1, closes=2))
        box.put(EndOfStream(src_node=1, closes=2))
        with pytest.raises(ProcessCrash) as raised:
            machine.sim.run()
        error = raised.value.cause
        assert isinstance(error, StreamTerminationError)
        assert (error.port, error.node, error.producer) == ("w", 0, 1)
        assert error.deltas == {"closes": 2, "open_before": 1}
        assert "port 'w'" in str(error)

    def test_duplicate_flat_marker_overshoots_too(self):
        # n_producers flat markers end the loop; one more from a
        # confused producer is left in the mailbox and caught by the
        # undelivered-message check instead of being absorbed.
        machine = GammaMachine.local(2)
        node, writer = self._writer(machine, 1)
        machine.sim.process(writer)
        box = machine.registry.mailbox(node.node_id, "w")
        box.put(EndOfStream(src_node=1))
        box.put(EndOfStream(src_node=1))
        with pytest.raises(RuntimeError, match="undelivered"):
            machine.run_to_completion()
