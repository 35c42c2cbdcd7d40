"""Tests for the join hash table and its overflow mechanism."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import hashing
from repro.core.hash_table import (
    CLEAR_FRACTION,
    JoinHashTable,
    JoinOverflowError,
)


def insert_value(table, value, payload=None):
    h = hashing.hash_int(value)
    row = (value, payload)
    if table.admits(h):
        if table.is_full:
            evicted, _scanned = table.make_room()
        else:
            evicted = []
        if table.admits(h):
            table.insert(row, h)
            return "stored", evicted
        return "overflow", evicted + [(row, h)]
    return "overflow", [(row, h)]


class TestBasicOperation:
    def test_insert_and_probe(self):
        table = JoinHashTable(10)
        h = hashing.hash_int(5)
        table.insert((5, "r"), h)
        matches, chain = table.probe(h, 5, 0)
        assert matches == [(5, "r")]
        assert chain == 1

    def test_probe_miss(self):
        table = JoinHashTable(10)
        matches, chain = table.probe(hashing.hash_int(99), 99, 0)
        assert matches == []
        assert chain == 0

    def test_duplicates_chain(self):
        table = JoinHashTable(10)
        h = hashing.hash_int(7)
        for i in range(4):
            table.insert((7, i), h)
        matches, chain = table.probe(h, 7, 0)
        assert len(matches) == 4
        assert chain == 4
        assert table.max_chain == 4

    def test_hash_collision_filtered_by_key(self):
        """Two different key values could share a hash code; probe
        compares the actual join values."""
        table = JoinHashTable(10)
        table.insert((111, "a"), 12345)
        table.insert((222, "b"), 12345)  # forced collision
        matches, chain = table.probe(12345, 111, 0)
        assert matches == [(111, "a")]
        assert chain == 2

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            JoinHashTable(0)

    def test_full_insert_guarded(self):
        table = JoinHashTable(1)
        table.insert((1,), hashing.hash_int(1))
        with pytest.raises(RuntimeError, match="full"):
            table.insert((2,), hashing.hash_int(2))


class TestOverflowMechanism:
    def test_make_room_frees_at_least_ten_percent(self):
        table = JoinHashTable(100)
        for v in range(100):
            table.insert((v,), hashing.hash_int(v))
        evicted, scanned = table.make_room()
        assert len(evicted) >= CLEAR_FRACTION * 100
        assert scanned == 100
        assert table.count == 100 - len(evicted)
        assert table.overflowed

    def test_cutoff_excludes_evicted_range(self):
        table = JoinHashTable(50)
        values = list(range(50))
        for v in values:
            table.insert((v,), hashing.hash_int(v))
        evicted, _ = table.make_room()
        for (_row, h) in evicted:
            assert h >= table.cutoff
            assert not table.admits(h)
        for _row, h in table.resident_rows():
            assert h < table.cutoff
            assert table.admits(h)

    def test_cutoff_monotonically_decreases(self):
        table = JoinHashTable(40)
        cutoffs = []
        value = 0
        for _ in range(4):
            while not table.is_full:
                insert_value(table, value)
                value += 1
            table.make_room()
            cutoffs.append(table.cutoff)
        assert cutoffs == sorted(cutoffs, reverse=True)
        assert len(set(cutoffs)) == len(cutoffs)

    def test_repeated_invocations_divert_more_arrivals(self):
        """§4.1: each application of the heuristic increases the
        fraction of incoming tuples sent straight to overflow."""
        table = JoinHashTable(100)
        value = 0
        overflowed_first = 0
        overflowed_second = 0
        # Fill, clear once, then insert 200 more and count diversions.
        while not table.is_full:
            insert_value(table, value)
            value += 1
        table.make_room()
        first_cutoff = table.cutoff
        for _ in range(200):
            state, _ = insert_value(table, value)
            value += 1
            if state == "overflow":
                overflowed_first += 1
        while not table.is_full:
            insert_value(table, value)
            value += 1
        table.make_room()
        assert table.cutoff < first_cutoff
        for _ in range(200):
            state, _ = insert_value(table, value)
            value += 1
            if state == "overflow":
                overflowed_second += 1
        assert overflowed_second > overflowed_first

    def test_single_hot_bin_evicts_everything(self):
        """Every resident tuple in one low histogram bin: clearing
        must take the whole bin — the table empties and all future
        arrivals divert to the overflow file (the true pathology is
        then caught by the recursion depth limit)."""
        table = JoinHashTable(10)
        # Hash code 0 is in bin 0.
        for i in range(10):
            table.insert((i,), 0)
        evicted, scanned = table.make_room()
        assert len(evicted) == 10
        assert table.count == 0
        assert not table.admits(0)

    def test_overflow_error_type_exists(self):
        assert issubclass(JoinOverflowError, RuntimeError)

    def test_statistics(self):
        table = JoinHashTable(30)
        for v in range(30):
            table.insert((v,), hashing.hash_int(v))
        table.make_room()
        assert table.overflow_events == 1
        assert table.tuples_evicted >= 3
        assert table.tuples_scanned_during_eviction == 30
        assert table.total_inserted == 30


class TestSymmetryInvariant:
    @given(values=st.lists(st.integers(0, 500), min_size=1,
                           max_size=400),
           capacity=st.integers(min_value=4, max_value=60))
    @settings(max_examples=80, deadline=None)
    def test_resident_iff_below_cutoff(self, values, capacity):
        """THE overflow invariant: after any insert/clear history,
        residency is exactly 'hash below cutoff', so matching R and S
        tuples always land on the same side.  No tuple is lost."""
        table = JoinHashTable(capacity)
        overflow: list = []
        for value in values:
            state, evicted = insert_value(table, value)
            overflow.extend(evicted)
        resident = list(table.resident_rows())
        assert len(resident) + len(overflow) == len(values)
        if table.cutoff is not None:
            for _row, h in resident:
                assert h < table.cutoff
            for _row, h in overflow:
                assert h >= table.cutoff
        else:
            assert overflow == []
        # Probing follows the same rule: a value's matches are fully
        # resident or fully overflowed.
        for value in set(values):
            h = hashing.hash_int(value)
            matches, _ = table.probe(h, value, 0)
            expected_resident = [(r, hh) for (r, hh) in resident
                                 if r[0] == value]
            assert len(matches) == len(expected_resident)


class TestProbeArenaThreshold:
    """Undersized probe pages drop the arena to scalar chains once —
    same charges and emits either way (the PR-8 small-packet
    regression guard)."""

    COSTS = (11.5e-6, 23.0e-6, 2.5e-6, 17.0e-6)

    def _arena_table(self, build_keys):
        from repro.catalog.pages import ColumnPage
        table = JoinHashTable(max(1, len(build_keys)))
        rows = [(k, f"inner{i}") for i, k in enumerate(build_keys)]
        table.insert_page(ColumnPage.from_rows(rows),
                          [hashing.hash_value(k) for k in build_keys])
        return table

    def _probe(self, table, probe_keys):
        out: list = []
        cpu = table.probe_page(
            [(k, f"outer{i}") for i, k in enumerate(probe_keys)],
            [hashing.hash_value(k) for k in probe_keys], 0, 0,
            *self.COSTS, out.append)
        return cpu, out

    def test_small_page_materializes(self):
        from repro.core import hash_table as ht
        table = self._arena_table(list(range(40)))
        assert table._arena is not None
        cpu, out = self._probe(table,
                               [3] * (ht.PROBE_ARENA_MIN_ROWS - 1))
        assert table._arena is None  # dropped to scalar chains
        assert len(out) == ht.PROBE_ARENA_MIN_ROWS - 1

    def test_large_page_keeps_arena(self):
        from repro.core import hash_table as ht
        table = self._arena_table(list(range(40)))
        cpu, out = self._probe(table,
                               [3] * ht.PROBE_ARENA_MIN_ROWS)
        assert table._arena is not None  # arena probe path
        assert len(out) == ht.PROBE_ARENA_MIN_ROWS

    @given(build_keys=st.lists(st.integers(0, 30), min_size=1,
                               max_size=50),
           probe_keys=st.lists(st.integers(0, 30), min_size=1,
                               max_size=20))
    @settings(max_examples=60, deadline=None)
    def test_both_paths_bit_identical(self, build_keys, probe_keys):
        small = self._arena_table(build_keys)
        large = self._arena_table(build_keys)
        assert len(probe_keys) < 32
        cpu_scalar, out_scalar = self._probe(small, probe_keys)
        # Force the arena path for the same page by probing through
        # _probe_batch_arena directly.
        rows = [(k, f"outer{i}") for i, k in enumerate(probe_keys)]
        hashes = [hashing.hash_value(k) for k in probe_keys]
        cpu_arena, out_arena = large._probe_batch_arena(
            rows, hashes, 0, 0, *self.COSTS)
        assert out_arena == out_scalar
        assert repr(cpu_arena) == repr(cpu_scalar)


class TestArenaProbeColumnPackets:
    """Full-size columnar packets probed against the arena — duplicate
    keys and hash collisions (hash = key mod 5) in the build — charge
    the same CPU float and emit the same rows, in the same order, as
    the scalar-chain probe of the same table."""

    COSTS = TestProbeArenaThreshold.COSTS

    @staticmethod
    def _tables(build_keys, split):
        from repro.catalog.pages import ColumnPage
        rows = [(k, 100 + i) for i, k in enumerate(build_keys)]
        hashes = [k % 5 for k in build_keys]
        arena = JoinHashTable(len(rows))
        for lo, hi in ((0, split), (split, len(rows))):
            if lo < hi:
                arena.insert_page(ColumnPage.from_rows(rows[lo:hi]),
                                  hashes[lo:hi])
        chains = JoinHashTable(len(rows))
        chains.insert_page(rows, hashes)
        assert arena._arena is not None and chains._arena is None
        return arena, chains

    @given(build_keys=st.lists(st.integers(0, 12), min_size=1,
                               max_size=40),
           data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_matches_scalar_chain_probe(self, build_keys, data):
        from repro.catalog.pages import ColumnPage
        from repro.core.hash_table import PROBE_ARENA_MIN_ROWS
        # A duplicate key and a colliding key guarantee a chain >= 2.
        build_keys = build_keys + [build_keys[0], build_keys[0] + 5]
        split = data.draw(st.integers(0, len(build_keys)))
        arena, chains = self._tables(build_keys, split)
        assert arena.max_chain >= 2
        for packet in range(2):  # the second probe reuses the gather
            probe_keys = data.draw(st.lists(
                st.integers(0, 15), min_size=PROBE_ARENA_MIN_ROWS,
                max_size=70))
            rows = [(packet * 100 + i, k) for i, k in enumerate(probe_keys)]
            hashes = [k % 5 for k in probe_keys]
            out_arena: list = []
            out_chains: list = []
            cpu_arena = arena.probe_page(
                ColumnPage.from_rows(rows), hashes, 1, 0, *self.COSTS,
                out_arena.append)
            cpu_chains = chains.probe_page(
                rows, hashes, 1, 0, *self.COSTS, out_chains.append)
            assert arena._arena is not None
            assert arena.arena_probe_pages == packet + 1
            assert chains.arena_probe_pages == 0
            assert repr(cpu_arena) == repr(cpu_chains)
            assert out_arena == out_chains
            assert len(out_arena) == sum(build_keys.count(k)
                                         for k in probe_keys)

    def test_only_matched_rows_are_built(self, monkeypatch):
        """Only matched rows are gathered — the arena's and the
        packet's — into one joined page: no row of either is ever
        built as a tuple."""
        from repro.catalog.pages import ColumnPage
        from repro.core.hash_table import PROBE_ARENA_MIN_ROWS
        arena, _chains = self._tables([3, 8, 3], 1)
        keys = [13] * PROBE_ARENA_MIN_ROWS
        keys[5] = keys[20] = 3
        hashes = [k % 5 for k in keys]
        page = ColumnPage.from_rows([(i, k) for i, k in enumerate(keys)])
        arena.probe_batch(page, hashes, 1, 0, *self.COSTS)  # warm gather
        stacked: list = []
        hstack = ColumnPage.hstack

        def counting_hstack(left, right, left_at=None, right_at=None):
            stacked.append((list(left_at), list(right_at)))
            return hstack(left, right, left_at, right_at)

        def built(self, *args):
            raise AssertionError("row tuple built")

        with monkeypatch.context() as patch:
            patch.setattr(ColumnPage, "hstack",
                          staticmethod(counting_hstack))
            patch.setattr(ColumnPage, "__iter__", built)
            patch.setattr(ColumnPage, "__getitem__", built)
            _cpu, out = arena.probe_batch(page, hashes, 1, 0, *self.COSTS)
        # One hash (3 and 8 collide): insertion order (3, 100), (8, 101),
        # (3, 102).
        assert stacked == [([0, 2, 0, 2], [5, 5, 20, 20])]
        assert isinstance(out, ColumnPage)
        assert list(out) == [(3, 100, 5, 3), (3, 102, 5, 3),
                             (3, 100, 20, 3), (3, 102, 20, 3)]


class TestProbePageColumnarPacket:
    """On the scalar-chain path a columnar packet is probed by its key
    column and only rows that match are materialized — same CPU float,
    same emits as the tuple-list packet it stands for."""

    COSTS = TestProbeArenaThreshold.COSTS

    @staticmethod
    def _chained_table(build_keys):
        # Hash = key mod 5: distinct keys share chains, so chain walks
        # meet non-matching links as well as duplicate-key runs.
        table = JoinHashTable(max(1, len(build_keys)))
        table.insert_page([(k, f"inner{i}") for i, k in enumerate(build_keys)],
                          [k % 5 for k in build_keys])
        assert table._arena is None
        return table

    def _probe_both(self, table, probe_keys):
        from repro.catalog.pages import ColumnPage
        rows = [(i, k) for i, k in enumerate(probe_keys)]
        hashes = [k % 5 for k in probe_keys]
        out_rows: list = []
        out_page: list = []
        cpu_rows = table.probe_page(rows, hashes, 1, 0, *self.COSTS,
                                    out_rows.append)
        cpu_page = table.probe_page(ColumnPage.from_rows(rows), hashes,
                                    1, 0, *self.COSTS, out_page.append)
        assert repr(cpu_page) == repr(cpu_rows)
        assert out_page == out_rows
        return cpu_rows, out_rows

    @given(build_keys=st.lists(st.integers(0, 12), max_size=40),
           probe_keys=st.lists(st.integers(0, 15), min_size=1,
                               max_size=48))
    @settings(max_examples=150, deadline=None)
    def test_bit_equal_to_tuple_list_packet(self, build_keys, probe_keys):
        table = self._chained_table(build_keys)
        _cpu, out = self._probe_both(table, probe_keys)
        assert len(out) == sum(build_keys.count(k) for k in probe_keys)

    @pytest.mark.parametrize("size", [1, 9, 31, 32, 40])
    def test_multi_match_rows_at_every_packet_size(self, size):
        table = self._chained_table([3, 8, 3, 13, 3])
        _cpu, out = self._probe_both(table, [3] * size)
        assert out == [(3, inner, i, 3) for i in range(size)
                       for inner in ("inner0", "inner2", "inner4")]

    def test_no_match_packet_materializes_no_row(self, monkeypatch):
        from repro.catalog.pages import ColumnPage
        table = self._chained_table([3, 8, 3])
        page = ColumnPage.from_rows([(i, 13) for i in range(9)])
        for method in ("__iter__", "__getitem__"):
            def touched(self, *args, _method=method):
                raise AssertionError(f"row access through {_method}")
            monkeypatch.setattr(ColumnPage, method, touched)
        out: list = []
        receive, probe, link, _move = self.COSTS
        cpu = table.probe_page(page, [13 % 5] * 9, 1, 0, *self.COSTS,
                               out.append)
        expected = 0.0
        for _ in range(9):
            expected += receive
            expected += probe + 2 * link
        assert out == []
        assert repr(cpu) == repr(expected)

    def test_matching_rows_materialize_once_each(self, monkeypatch):
        from repro.catalog.pages import ColumnPage
        table = self._chained_table([3, 8, 3])
        page = ColumnPage.from_rows(
            [(i, key) for i, key in enumerate([13, 3, 13, 8, 13])])
        fetched: list = []
        row_at = ColumnPage.__getitem__

        def counting(self, item):
            fetched.append(item)
            return row_at(self, item)

        def iterated(self):
            raise AssertionError("whole-packet materialization")

        monkeypatch.setattr(ColumnPage, "__getitem__", counting)
        monkeypatch.setattr(ColumnPage, "__iter__", iterated)
        out: list = []
        table.probe_page(page, [k % 5 for k in (13, 3, 13, 8, 13)], 1, 0,
                         *self.COSTS, out.append)
        assert fetched == [1, 3]
        assert out == [(3, "inner0", 1, 3), (3, "inner2", 1, 3),
                       (8, "inner1", 3, 8)]
