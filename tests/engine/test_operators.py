"""Tests for Router, scan_pages, and tempfile_writer."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.machine import GammaMachine
from repro.engine.operators import (
    Router,
    WriterStats,
    chain_file_pages,
    fragment_pages,
    scan_pages,
    tempfile_writer,
)
from repro.network.messages import DataPacket, EndOfStream
from repro.storage.files import PagedFile


def drain_all(machine, node_id, port):
    """Collect every message currently in a mailbox."""
    box = machine.registry.mailbox(node_id, port)
    messages = []
    while box.pending_items:
        messages.append(box._items.popleft())
    return messages


class TestRouter:
    def test_packets_fill_to_capacity(self):
        machine = GammaMachine.local(2)
        src = machine.disk_nodes[0]
        router = Router(machine, src, machine.disk_nodes, "p", 208)
        assert router.capacity == 9

        def body():
            for i in range(20):
                router.give(1, (i,), i)
            yield from router.flush_ready()

        machine.sim.process(body())
        machine.sim.run()
        packets = drain_all(machine, 1, "p")
        assert [len(p) for p in packets] == [9, 9]
        assert router.tuples_routed == 20

    def test_close_flushes_partials_and_sends_eos(self):
        machine = GammaMachine.local(2)
        src = machine.disk_nodes[0]
        router = Router(machine, src, machine.disk_nodes, "p", 208)

        def body():
            router.give(1, ("x",), 0)
            yield from router.close()

        machine.sim.process(body())
        machine.sim.run()
        to_node1 = drain_all(machine, 1, "p")
        assert isinstance(to_node1[0], DataPacket)
        assert isinstance(to_node1[1], EndOfStream)
        # Consumer 0 got no data but still an EOS.
        to_node0 = drain_all(machine, 0, "p")
        assert [type(m) for m in to_node0] == [EndOfStream]

    def test_per_bucket_packets(self):
        machine = GammaMachine.local(2)
        router = Router(machine, machine.disk_nodes[0],
                        machine.disk_nodes, "p", 208)

        def body():
            router.give(1, ("a",), 0, bucket=0)
            router.give(1, ("b",), 0, bucket=1)
            yield from router.close()

        machine.sim.process(body())
        machine.sim.run()
        packets = [m for m in drain_all(machine, 1, "p")
                   if isinstance(m, DataPacket)]
        assert sorted(p.bucket for p in packets) == [0, 1]

    def test_round_robin_rotation(self):
        machine = GammaMachine.local(3)
        router = Router(machine, machine.disk_nodes[0],
                        machine.disk_nodes, "p", 208)

        def body():
            for i in range(6):
                router.give_round_robin((i,))
            yield from router.close()

        machine.sim.process(body())
        machine.sim.run()
        for node in range(3):
            packets = [m for m in drain_all(machine, node, "p")
                       if isinstance(m, DataPacket)]
            assert sum(len(p) for p in packets) == 2

    @given(n_consumers=st.integers(1, 9), capacity=st.integers(1, 12),
           batches=st.lists(st.integers(0, 40), min_size=1, max_size=5),
           drain=st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_round_robin_batch_matches_row_at_a_time(
            self, n_consumers, capacity, batches, drain):
        """Consecutive batches — each starting on the partial buffers
        and rotation point the last one left — reproduce the row-at-a-
        time router's state exactly."""
        machine = GammaMachine.local(n_consumers)
        src = machine.disk_nodes[0]
        tuple_bytes = machine.costs.packet_size // capacity
        single, batched = [
            Router(machine, src, machine.disk_nodes, port, tuple_bytes)
            for port in ("single", "batched")]
        assert single.capacity == capacity
        first = 0
        for size in batches:
            rows = [(first + i,) for i in range(size)]
            first += size
            for row in rows:
                single.give_round_robin(row)
            batched.give_round_robin_batch(rows)
            assert batched._ready == single._ready
            assert batched._buffers0 == single._buffers0
            assert batched._rr_next == single._rr_next
            assert batched.tuples_routed == single.tuples_routed
            if drain:
                single._ready.clear()
                batched._ready.clear()

    def test_round_robin_batch_after_close_rejected(self):
        machine = GammaMachine.local(2)
        router = Router(machine, machine.disk_nodes[0],
                        machine.disk_nodes, "p", 208)
        router.closed = True
        with pytest.raises(RuntimeError, match="closed"):
            router.give_round_robin_batch([("x",)])

    def test_give_after_close_rejected(self):
        machine = GammaMachine.local(2)
        router = Router(machine, machine.disk_nodes[0],
                        machine.disk_nodes, "p", 208)

        def body():
            yield from router.close()
            with pytest.raises(RuntimeError, match="closed"):
                router.give(0, ("x",), 0)
            with pytest.raises(RuntimeError, match="double close"):
                yield from router.close()

        machine.sim.process(body())
        machine.sim.run()
        drain_all(machine, 0, "p")
        drain_all(machine, 1, "p")

    def test_needs_consumers(self):
        machine = GammaMachine.local(2)
        with pytest.raises(ValueError):
            Router(machine, machine.disk_nodes[0], [], "p", 208)


class TestScanPages:
    def test_scan_routes_and_charges(self):
        machine = GammaMachine.local(2)
        node = machine.disk_nodes[0]
        router = Router(machine, node, machine.disk_nodes, "p", 208)
        rows = [(i,) for i in range(100)]

        def route(row):
            router.give(1, row, row[0])
            return 0.001

        machine.sim.process(scan_pages(
            machine, node, fragment_pages(rows, 39), [router], route))
        machine.sim.run()
        packets = [m for m in drain_all(machine, 1, "p")
                   if isinstance(m, DataPacket)]
        assert sum(len(p) for p in packets) == 100
        assert node.disk.pages_read == 3  # ceil(100/39)
        assert machine.sim.now > 0.1  # 100 x 1ms route charge

    def test_predicate_filters_at_scan(self):
        machine = GammaMachine.local(2)
        node = machine.disk_nodes[0]
        router = Router(machine, node, machine.disk_nodes, "p", 208)
        rows = [(i,) for i in range(50)]

        def route(row):
            router.give(1, row, row[0])
            return 0.0

        machine.sim.process(scan_pages(
            machine, node, fragment_pages(rows, 39), [router], route,
            predicate=lambda row: row[0] % 2 == 0))
        machine.sim.run()
        packets = [m for m in drain_all(machine, 1, "p")
                   if isinstance(m, DataPacket)]
        assert sum(len(p) for p in packets) == 25
        drain_all(machine, 0, "p")

    def test_memory_source_skips_disk(self):
        machine = GammaMachine.local(2)
        node = machine.disk_nodes[0]
        router = Router(machine, node, machine.disk_nodes, "p", 208)

        def route(row):
            return 0.0

        machine.sim.process(scan_pages(
            machine, node, fragment_pages([(1,)], 39), [router],
            route, read_from_disk=False))
        machine.sim.run()
        assert node.disk.pages_read == 0
        drain_all(machine, 0, "p")
        drain_all(machine, 1, "p")

    def test_chain_file_pages(self):
        f1 = PagedFile("a", 4096, 8192)
        f1.extend([(1,), (2,), (3,)])
        f2 = PagedFile("b", 4096, 8192)
        f2.extend([(4,)])
        pages = list(chain_file_pages([f1, f2]))
        assert [len(p) for p in pages] == [2, 1, 1]


class TestTempfileWriter:
    def run_writer(self, machine, rows_by_bucket, stats=None,
                   collect=None):
        node = machine.disk_nodes[0]
        src = machine.disk_nodes[1]
        files = {bucket: PagedFile(f"b{bucket}", 208, 8192)
                 for bucket in rows_by_bucket}
        router = Router(machine, src, [node], "w", 208)

        def producer():
            for bucket, rows in rows_by_bucket.items():
                for row in rows:
                    router.give(node.node_id, row, 0, bucket=bucket)
            yield from router.close()

        writer = tempfile_writer(
            machine, node, "w", 1,
            select_file=lambda bucket: files[bucket],
            stats=stats, collect=collect,
            close_files=list(files.values()))
        machine.sim.process(writer)
        machine.sim.process(producer())
        machine.sim.run()
        return files, node

    def test_rows_land_in_bucket_files(self):
        machine = GammaMachine.local(2)
        files, _node = self.run_writer(machine, {
            0: [(i,) for i in range(5)],
            1: [(i,) for i in range(100, 103)]})
        assert files[0].num_tuples == 5
        assert files[1].num_tuples == 3
        assert files[0].closed and files[1].closed

    def test_page_writes_charged(self):
        machine = GammaMachine.local(2)
        files, node = self.run_writer(machine, {
            0: [(i,) for i in range(80)]})  # 39/page -> 3 pages
        assert node.disk.pages_written == files[0].num_pages == 3

    def test_local_write_stats(self):
        machine = GammaMachine.local(2)
        stats = WriterStats()
        # Producer is node 1, writer node 0 -> nothing local.
        self.run_writer(machine, {0: [(1,), (2,)]}, stats=stats)
        assert stats.tuples_received == 2
        assert stats.tuples_local == 0
        assert stats.local_fraction == 0.0

    def test_collect_gathers_rows(self):
        machine = GammaMachine.local(2)
        collected = []
        self.run_writer(machine, {0: [(7,), (8,)]}, collect=collected)
        assert collected == [(7,), (8,)]

    def test_writer_stats_merge(self):
        a = WriterStats(tuples_received=10, tuples_local=4,
                        pages_written=2)
        b = WriterStats(tuples_received=5, tuples_local=5,
                        pages_written=1)
        a.merge(b)
        assert a.tuples_received == 15
        assert a.tuples_local == 9
        assert a.local_fraction == pytest.approx(0.6)

    def test_needs_producers(self):
        machine = GammaMachine.local(2)
        with pytest.raises(ValueError):
            next(iter(tempfile_writer(
                machine, machine.disk_nodes[0], "w", 0,
                select_file=lambda b: None)))
