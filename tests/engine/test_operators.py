"""Tests for Router, scan_pages, and tempfile_writer."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog.pages import ColumnPage
from repro.engine.machine import GammaMachine
from repro.engine.operators import (
    Router,
    WriterStats,
    chain_file_pages,
    fragment_pages,
    scan_pages,
    tempfile_writer,
)
from repro.engine.operators.scan import CountRoute
from repro.network.messages import DataPacket, EndOfStream
from repro.storage.files import PagedFile


def drain_all(machine, node_id, port):
    """Collect every message currently in a mailbox."""
    box = machine.registry.mailbox(node_id, port)
    messages = []
    while box.pending_items:
        messages.append(box._items.popleft())
    return messages


class RowAtATime:
    """The round-robin oracle: rows given one at a time through
    ``Router.give``, row ``t`` to consumer ``t mod C`` — the rotation
    :meth:`Router.give_round_robin_batch` deals by count."""

    def __init__(self, router):
        self.router = router
        self.given = 0

    def give(self, row):
        consumers = self.router.consumers
        self.router.give(consumers[self.given % len(consumers)].node_id,
                         row, 0)
        self.given += 1


def ready_rows(router) -> list:
    """A router's ready packets as ``(key, rows, n)``."""
    return [(key, list(page[lo:hi]), n)
            for key, page, lo, hi, n, _hashes in router._ready]


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
                router.give_round_robin_batch([(i,)])
            yield from router.close()

        machine.sim.process(body())
        machine.sim.run()
        for node in range(3):
            packets = [m for m in drain_all(machine, node, "p")
                       if isinstance(m, DataPacket)]
            assert sum(len(p) for p in packets) == 2

    @given(n_consumers=st.integers(1, 9), capacity=st.integers(1, 20),
           batches=st.lists(st.tuples(st.sampled_from([0, 1, 2, 7, 40]),
                                      st.booleans()),
                            min_size=1, max_size=6),
           drain=st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_round_robin_batch_matches_row_at_a_time(
            self, n_consumers, capacity, batches, drain):
        """Consecutive batches — pages and tuple lists, of no, one or
        many rows — dealt by count reproduce the row-at-a-time
        rotation: the same ready packets after every batch, and the
        same partial packets sent at close."""
        machine = GammaMachine.local(n_consumers)
        src = machine.disk_nodes[0]
        tuple_bytes = machine.costs.packet_size // capacity
        single, batched = [
            Router(machine, src, machine.disk_nodes, port, tuple_bytes)
            for port in ("single", "batched")]
        assert single.capacity == capacity
        oracle = RowAtATime(single)
        first = 0
        for size, as_page in batches:
            rows = [(first + i, 2 * (first + i), "") for i in range(size)]
            first += size
            for row in rows:
                oracle.give(row)
            batched.give_round_robin_batch(
                ColumnPage.from_rows(rows, width=3) if as_page else rows)
            assert ready_rows(batched) == ready_rows(single)
            assert batched.tuples_routed == single.tuples_routed
            if drain:
                single._ready.clear()
                batched._ready.clear()

        def body():
            yield from single.close()
            yield from batched.close()

        machine.sim.process(body())
        machine.sim.run()
        for node in range(n_consumers):
            sent = {port: [list(message.rows)
                           for message in drain_all(machine, node, port)
                           if isinstance(message, DataPacket)]
                    for port in ("single", "batched")}
            assert sent["batched"] == sent["single"]

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

    @given(lengths=st.lists(st.integers(0, 30), max_size=4),
           per_page=st.integers(1, 8))
    @settings(max_examples=50, deadline=None)
    def test_page_scan_sizes_are_the_page_lengths(self, lengths,
                                                  per_page):
        files = []
        for i, n in enumerate(lengths):
            file = PagedFile(f"f{i}", 8192 // per_page, 8192)
            file.extend([(j,) for j in range(n)])
            files.append(file)
        scan = chain_file_pages(files)
        assert list(scan.sizes()) == [len(page) for page in scan]
        rows = [(j,) for j in range(sum(lengths))]
        scan = fragment_pages(rows, per_page)
        assert list(scan.sizes()) == [len(page) for page in scan]

    def test_count_route_gets_row_counts(self):
        """A ``CountRoute`` is handed each page's row count; the scan
        still reads and charges page by page."""
        machine = GammaMachine.local(2)
        node = machine.disk_nodes[0]
        router = Router(machine, node, machine.disk_nodes, "p", 208)
        counts = []

        def route_rows(n):
            counts.append(n)
            return 0.001 * n

        machine.sim.process(scan_pages(
            machine, node, fragment_pages([(i,) for i in range(100)], 39),
            [router], route_page=CountRoute(route_rows)))
        machine.sim.run()
        assert counts == [39, 39, 22]
        assert node.disk.pages_read == 3
        assert machine.sim.now > 0.1
        drain_all(machine, 0, "p")
        drain_all(machine, 1, "p")


class TestTempfileWriter:
    def run_writer(self, machine, rows_by_bucket, stats=None):
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
            stats=stats,
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
