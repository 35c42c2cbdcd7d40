"""Property tests: the vectorized data plane ≡ the scalar path.

Every kernel in :mod:`repro.core.kernels` claims *bit-identical*
equivalence with a scalar loop somewhere in the reproduction — hash
codes, packet streams, filter bits and counters, hash-table state and
probe CPU floats.  These tests check each claim element-for-element on
randomized inputs, including the regimes the batch paths must refuse
(string keys, pages straddling the overflow cutoff machinery).
"""

from __future__ import annotations

import types
import typing

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import hashing
from repro.core import kernels
from repro.core.bit_filter import BitFilter, FilterBank
from repro.catalog.pages import ColumnPage
from repro.core.hash_table import JoinHashTable
from repro.engine.operators.routing import Router
from repro.network.messages import DataPacket

keys_strategy = st.lists(
    st.integers(min_value=-(2**40), max_value=2**40),
    min_size=0, max_size=200)


# ---------------------------------------------------------------------------
# hash_keys
# ---------------------------------------------------------------------------

@given(keys=st.lists(st.integers(min_value=-(2**40), max_value=2**40),
                     min_size=1, max_size=200),
       level=st.integers(0, 4),
       family=st.sampled_from(["avalanche", "legacy"]))
@settings(max_examples=100, deadline=None)
def test_hash_keys_matches_scalar_family(keys, level, family):
    arr = kernels.hash_keys(keys, level, family)
    assert arr is not None
    scalar = hashing.HASH_FAMILIES[family]
    assert arr.tolist() == [scalar(k, level) for k in keys]


@given(keys=st.lists(st.one_of(st.integers(-(2**31), 2**31 - 1),
                               st.integers(2**31 - 3, 2**31 - 1),
                               st.integers(-(2**31), -(2**31) + 2)),
                     min_size=1, max_size=100),
       level=st.integers(0, 4),
       family=st.sampled_from(["avalanche", "legacy"]))
@settings(max_examples=100, deadline=None)
def test_hash_keys_is_width_blind(keys, level, family):
    """An int32 column (a narrow page's key column) hashes as its
    int64 widening and as the scalar hasher do."""
    narrow = kernels.hash_keys(np.array(keys, dtype=np.int32), level,
                               family)
    wide = kernels.hash_keys(np.array(keys, dtype=np.int64), level, family)
    scalar = hashing.HASH_FAMILIES[family]
    assert narrow.dtype == wide.dtype == np.uint64
    assert narrow.tolist() == wide.tolist() == [scalar(k, level)
                                                for k in keys]


def test_hash_keys_rejects_unvectorizable_columns():
    assert kernels.hash_keys(["a", "b"], 0) is None
    assert kernels.hash_keys([1, "b"], 0) is None
    assert kernels.hash_keys([1.5, 2.5], 0) is None
    assert kernels.hash_keys([True, False], 0) is None
    assert kernels.hash_keys([2**80], 0) is None
    assert kernels.hash_keys([1, 2], 0, "unknown-family") is None


def test_hash_keys_negative_level():
    with pytest.raises(ValueError):
        kernels.hash_keys([1], -1)


# ---------------------------------------------------------------------------
# Bit filters
# ---------------------------------------------------------------------------

@given(building=st.lists(st.integers(0, hashing.HASH_MODULUS - 1),
                         max_size=150),
       probing=st.lists(st.integers(0, hashing.HASH_MODULUS - 1),
                        max_size=150),
       bits=st.integers(min_value=1, max_value=2048))
@settings(max_examples=100, deadline=None)
def test_filter_batch_matches_scalar(building, probing, bits):
    scalar = BitFilter(bits)
    for code in building:
        scalar.set(code)
    scalar_hits = [scalar.test(code) for code in probing]

    batch = BitFilter(bits)
    batch.set_batch(np.asarray(building, dtype=np.uint64))
    hits = batch.test_batch(np.asarray(probing, dtype=np.uint64))

    assert batch._bits == scalar._bits
    assert hits.tolist() == scalar_hits
    assert (batch.sets, batch.tests, batch.passed) == (
        scalar.sets, scalar.tests, scalar.passed)


def test_filter_batch_interleaved_set_invalidates_view():
    filt = BitFilter(64)
    filt.set_batch(np.asarray([hashing.hash_int(1)], dtype=np.uint64))
    before = filt.test_batch(
        np.asarray([hashing.hash_int(2)], dtype=np.uint64))
    filt.set(hashing.hash_int(2))  # must drop the cached unpacked view
    after = filt.test_batch(
        np.asarray([hashing.hash_int(2)], dtype=np.uint64))
    assert not before[0] and after[0]


@given(values=st.lists(st.tuples(st.integers(0, 3),
                                 st.integers(0, hashing.HASH_MODULUS - 1)),
                       max_size=200))
@settings(max_examples=50, deadline=None)
def test_bank_test_many_matches_scalar(values):
    build = [(site, code) for site, code in values if code % 3 == 0]
    scalar_bank = FilterBank(4, 128)
    batch_bank = FilterBank(4, 128)
    for site, code in build:
        scalar_bank.set(site, code)
        batch_bank.set(site, code)
    scalar_hits = [scalar_bank.test(site, code) for site, code in values]
    sites = np.asarray([site for site, _ in values], dtype=np.int64)
    codes = np.asarray([code for _, code in values], dtype=np.uint64)
    hits = batch_bank.test_many(sites, codes)
    assert list(hits) == scalar_hits
    for scalar_f, batch_f in zip(scalar_bank.filters, batch_bank.filters):
        assert (batch_f.tests, batch_f.passed) == (
            scalar_f.tests, scalar_f.passed)


# ---------------------------------------------------------------------------
# RoutePlan vs the scalar give-at-a-time router
# ---------------------------------------------------------------------------

def make_router(capacity: int) -> Router:
    # Only the buffering half of the router runs in these tests; the
    # hoisted send-path constants just need to resolve.
    costs = types.SimpleNamespace(
        tuples_per_packet=lambda tuple_bytes: capacity,
        packet_shortcircuit=0.0, packet_protocol_send=0.0,
        packet_size=8192, packet_wire_time=lambda b: 0.0,
        eos_tree_arity=0)
    machine = types.SimpleNamespace(
        costs=costs,
        network=types.SimpleNamespace(
            stats=types.SimpleNamespace(),
            _cpu=lambda node_id: types.SimpleNamespace(use=None),
            ring=types.SimpleNamespace(
                transmit=None,
                medium=types.SimpleNamespace(use=None))),
        registry=types.SimpleNamespace(mailbox=None),
        monitor=None)
    node = types.SimpleNamespace(node_id=0, name="n0")
    return Router(machine, node, [node], "test-port", 8)


def drain(router: Router) -> list:
    out = list(router._ready)
    router._ready.clear()
    return out


def leftover_state(router: Router) -> dict:
    """Partial buffers by ``(dst, bucket)``, a stashed run read back as
    the ``(rows, hashes)`` lists the scalar fill would hold (hash
    codes compared by value: a plan's are uint64 arrays)."""
    state = {(dst, None): buffer
             for dst, buffer in router._buffers0.items()}
    state.update(router._buffers)
    return {key: (buffer if len(buffer) == 2
                  else (list(buffer[0][buffer[1]:buffer[2]]),
                        hashing.code_list(buffer[3])))
            for key, buffer in state.items()}


def materialized(entry: tuple) -> tuple:
    """A ready entry as the packet ``flush_ready`` builds from it, read
    back: ``(key, rows, hashes, n)``, hash codes by value."""
    (dst, bucket), page, lo, hi, n, hashes = entry
    packet = DataPacket.make(0, page, lo, hi, n, hashes, 8 * n, bucket)
    assert len(packet) == n == hi - lo == len(hashes)
    return (dst, bucket), list(packet.rows), hashing.code_list(hashes), n


@given(keys=keys_strategy, capacity=st.integers(1, 7),
       n_groups=st.integers(1, 5), page_size=st.integers(1, 17),
       bucketed=st.booleans(), columnar=st.booleans())
@settings(max_examples=150, deadline=None)
def test_route_plan_matches_scalar_packet_stream(
        keys, capacity, n_groups, page_size, bucketed, columnar):
    """The precomputed packet schedule reproduces the scalar router's
    per-page ready sequence and leftover buffers exactly.  From a
    columnar source every packet is a run of its destination
    segment's gathered page; materialized, each equals the rows of the
    whole stable grouping at the packet's absolute position and the
    scalar ``give`` stream's packet — dst, bucket, rows, hashes, count
    and order."""
    rows = [(k, i) for i, k in enumerate(keys)]
    hashes = [hashing.hash_value(k) for k in keys]
    dst_of_group = [10 + 3 * g for g in range(n_groups)]
    bucket_of_group = (
        [g % 2 for g in range(n_groups)] if bucketed else None)

    scalar = make_router(capacity)
    vector = make_router(capacity)
    arr = np.asarray(hashes, dtype=np.uint64)
    groups = arr % np.uint64(n_groups)
    source = ColumnPage.from_rows(rows, width=2) if columnar else rows
    plan = kernels.RoutePlan(vector, source, arr, groups, None,
                             dst_of_group, bucket_of_group)
    # The stable destination grouping of the source, gathered whole;
    # group g's segment starts after every row of a lower group.
    gathered = (source.take(np.argsort(groups, kind="stable"))
                if columnar else None)
    seg_start = np.cumsum(np.bincount(groups.astype(np.int64),
                                      minlength=n_groups)).tolist()
    seg_start = [0] + seg_start[:-1]
    seg_page: dict = {}

    pages = [rows[i:i + page_size]
             for i in range(0, len(rows), page_size)] or [[]]
    pos = 0
    for page in pages:
        for row in page:
            h = hashes[pos]
            g = h % n_groups
            scalar.give(dst_of_group[g], row, h,
                        None if bucket_of_group is None
                        else bucket_of_group[g])
            pos += 1
        plan.advance(len(page))
        released = drain(vector)
        expected = drain(scalar)
        if columnar:
            for ((dst, _bucket), page_of, lo, hi, _n,
                 _hashes) in released:
                assert isinstance(page_of, ColumnPage)
                g = (dst - 10) // 3
                # One page per segment, holding that segment only.
                assert seg_page.setdefault(g, page_of) is page_of
                assert len(page_of) == int((groups == g).sum())
                start = seg_start[g] + lo
                assert page_of.cut(lo, hi) == gathered.cut(
                    start, start + hi - lo)
        else:
            assert ([entry[:5] for entry in released]
                    == [entry[:5] for entry in expected])
        assert ([materialized(entry) for entry in released]
                == [materialized(entry) for entry in expected])

    assert leftover_state(vector) == leftover_state(scalar)
    assert vector.tuples_routed == scalar.tuples_routed == len(rows)
    assert len({id(page_of) for page_of in seg_page.values()}) == len(
        seg_page)


def test_stash_partial_merges_with_scalar_leftover():
    """If a scalar producer left a partial buffer on a shared router,
    stashing merges element-wise with the same capacity rollover."""
    router = make_router(capacity=3)
    router.give(5, ("a",), 1)
    router.give(5, ("b",), 2)
    router.stash_partial(5, None, [("c",), ("d",)], [3, 4])
    ready = drain(router)
    assert ready == [((5, None), [("a",), ("b",), ("c",)], 0, 3, 3,
                      [1, 2, 3])]
    assert leftover_state(router) == {(5, None): ([("d",)], [4])}


def test_stash_partial_merges_a_run_with_scalar_leftover():
    """A stashed columnar tail is a run of its page until a scalar
    leftover forces the row-wise merge."""
    page = ColumnPage.from_rows([(10,), (11,), (12,), (13,)])
    alone = make_router(capacity=3)
    alone.stash_partial(5, 1, page, [2, 3], 1, 3)
    assert alone._buffers == {(5, 1): (page, 1, 3, [2, 3])}
    shared = make_router(capacity=3)
    shared.give(5, (9,), 1, bucket=1)
    shared.stash_partial(5, 1, page, [2, 3, 4], 1, 4)
    assert drain(shared) == [((5, 1), [(9,), (11,), (12,)], 0, 3, 3,
                              [1, 2, 3])]
    assert leftover_state(shared) == {(5, 1): ([(13,)], [4])}


# ---------------------------------------------------------------------------
# Hash-table page kernels
# ---------------------------------------------------------------------------

def scalar_build_protocol(table: JoinHashTable, rows, hashes) -> list:
    """The documented scalar build protocol; returns overflow rows."""
    overflow = []
    for row, h in zip(rows, hashes):
        if table.admits(h):
            if table.is_full:
                evicted, _ = table.make_room()
                overflow.extend(evicted)
            if table.admits(h):
                table.insert(row, h)
            else:
                overflow.append((row, h))
        else:
            overflow.append((row, h))
    return overflow


def table_state(table: JoinHashTable) -> tuple:
    return (table._slots, table.count, table.cutoff, table._histogram,
            table.max_chain, table.total_inserted)


@given(keys=st.lists(st.integers(0, 500), min_size=1, max_size=120),
       capacity=st.integers(4, 40), page_size=st.integers(1, 16))
@settings(max_examples=100, deadline=None)
def test_insert_page_matches_scalar_protocol(keys, capacity, page_size):
    """Pages go through ``insert_page`` exactly when the batch
    precondition holds (no cutoff, page fits); all other pages —
    including ones straddling capacity or arriving after the overflow
    cutoff fired — fall back to the scalar protocol.  End state must be
    identical to running the scalar protocol throughout."""
    rows = [(k, i) for i, k in enumerate(keys)]
    hashes = [hashing.hash_value(k) for k in keys]
    pure = JoinHashTable(capacity)
    mixed = JoinHashTable(capacity)
    pure_overflow = scalar_build_protocol(pure, rows, hashes)

    mixed_overflow: list = []
    used_batch = used_scalar = False
    for i in range(0, len(rows), page_size):
        page_rows = rows[i:i + page_size]
        page_hashes = hashes[i:i + page_size]
        if (mixed.cutoff is None
                and mixed.count + len(page_rows) <= mixed.capacity):
            mixed.insert_page(page_rows, page_hashes)
            used_batch = True
        else:
            mixed_overflow.extend(scalar_build_protocol(
                mixed, page_rows, page_hashes))
            used_scalar = True

    assert table_state(mixed) == table_state(pure)
    assert mixed_overflow == pure_overflow
    if len(keys) <= capacity:
        assert used_batch and not used_scalar
    if len(keys) > capacity + page_size:
        assert used_scalar  # straddling pages must not take the batch path


@given(build_keys=st.lists(st.integers(0, 50), min_size=0, max_size=60),
       probe_keys=st.lists(st.integers(0, 50), min_size=0, max_size=60))
@settings(max_examples=100, deadline=None)
def test_probe_page_matches_scalar_probe(build_keys, probe_keys):
    """CPU float and emitted result rows are bit-identical to the
    scalar probe consumer's accumulation."""
    table = JoinHashTable(max(1, len(build_keys)))
    for i, k in enumerate(build_keys):
        table.insert((k, f"inner{i}"), hashing.hash_value(k))
    probe_rows = [(k, f"outer{i}") for i, k in enumerate(probe_keys)]
    probe_hashes = [hashing.hash_value(k) for k in probe_keys]
    tuple_receive, tuple_probe = 11.5e-6, 23.0e-6
    tuple_chain_link, result_move = 2.5e-6, 17.0e-6

    scalar_cpu = 0.0
    scalar_out: list = []
    for row, h in zip(probe_rows, probe_hashes):
        scalar_cpu += tuple_receive
        matches, chain = table.probe(h, row[0], 0)
        scalar_cpu += tuple_probe + max(0, chain - 1) * tuple_chain_link
        for match in matches:
            scalar_cpu += result_move
            scalar_out.append(match + row)

    batch_out: list = []
    batch_cpu = table.probe_page(
        probe_rows, probe_hashes, 0, 0, tuple_receive, tuple_probe,
        tuple_chain_link, result_move, batch_out.append)

    assert batch_out == scalar_out
    assert repr(batch_cpu) == repr(scalar_cpu)  # bit-identical float


@given(build_keys=st.lists(st.integers(0, 20), min_size=1, max_size=50),
       probe_keys=st.lists(st.integers(0, 20), min_size=1, max_size=80),
       data=st.data())
@settings(max_examples=100, deadline=None)
def test_runs_build_and_probe_as_cut_pages(build_keys, probe_keys, data):
    """Runs ``(page, lo, hi)`` inserted into and probed against a table
    give the state, CPU float and result rows of the same runs cut into
    pages — on the arena and on the scalar chains, since probe runs
    shorter than ``PROBE_ARENA_MIN_ROWS`` drop the table to chains."""
    build = ColumnPage.from_rows(
        [(k, 100 + i) for i, k in enumerate(build_keys)])
    build_hashes = [k % 7 for k in build_keys]
    probe = ColumnPage.from_rows(
        [(i, k) for i, k in enumerate(probe_keys)])
    probe_hashes = [k % 7 for k in probe_keys]

    def spans(n):
        cuts = data.draw(st.lists(st.integers(0, n), max_size=6))
        bounds = sorted({0, n, *cuts})
        return list(zip(bounds, bounds[1:]))

    by_run = JoinHashTable(len(build_keys))
    by_cut = JoinHashTable(len(build_keys))
    for lo, hi in spans(len(build_keys)):
        by_run.insert_page(build, build_hashes[lo:hi], lo, hi)
        by_cut.insert_page(build.cut(lo, hi), build_hashes[lo:hi])
    costs = (11.5e-6, 23.0e-6, 2.5e-6, 17.0e-6)
    for lo, hi in spans(len(probe_keys)):
        assert (by_run.probe_batch(probe, probe_hashes[lo:hi], 1, 0,
                                   *costs, lo)
                == by_cut.probe_batch(probe.cut(lo, hi),
                                      probe_hashes[lo:hi], 1, 0, *costs))
    assert table_state(by_run) == table_state(by_cut)


# ---------------------------------------------------------------------------
# CostStream / column memo
# ---------------------------------------------------------------------------

@given(rvals=st.lists(st.floats(0, 1e-3, allow_nan=False), max_size=60),
       page_size=st.integers(1, 7))
@settings(max_examples=50, deadline=None)
def test_cost_stream_replays_scalar_additions(rvals, page_size):
    tuple_scan = 7.3e-6
    stream = kernels.CostStream(tuple_scan, list(rvals))
    batch_pages = [stream.take(min(page_size, len(rvals) - i))
                   for i in range(0, len(rvals), page_size)]
    scalar_pages = []
    for i in range(0, len(rvals), page_size):
        cpu = 0.0
        for r in rvals[i:i + page_size]:
            cpu += tuple_scan
            cpu += r
        scalar_pages.append(cpu)
    assert [repr(c) for c in batch_pages] == [repr(c) for c in scalar_pages]


def test_resolve_column_memoizes_per_relation():
    machine = types.SimpleNamespace(key_hash_memo=hashing.KeyHashMemo())
    rows = [(7,), (11,), (13,)]
    first = kernels.resolve_column(machine, rows, None, 0, 0, "avalanche")
    assert first is not None
    assert machine.key_hash_memo.misses == 1
    second = kernels.resolve_column(machine, rows, None, 0, 0, "avalanche")
    assert second is not None and second.arr is first.arr
    assert machine.key_hash_memo.hits == 1
    # Stored (persisted) hashes count as hits, never recomputed.
    stored_rows = [(7,), (11,)]
    stored = [hashing.hash_value(7), hashing.hash_value(11)]
    col = kernels.resolve_column(machine, stored_rows, stored, 0, 0,
                                 "avalanche")
    assert col is not None and col.arr.tolist() == stored
    assert machine.key_hash_memo.hits == 2
    assert machine.key_hash_memo.misses == 1
    # Unvectorizable columns fall back (None), not crash.
    assert kernels.resolve_column(machine, [("a",)], None, 0, 0,
                                  "avalanche") is None
