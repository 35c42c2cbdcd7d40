"""Vectorized page-batch data-plane kernels.

The simulator's response times are sums of per-tuple cost constants
accumulated in a fixed order; *how* those sums are computed is
invisible to the simulation as long as every float addition happens in
the same order on the same operands.  This module exploits that: every
scan source in the reproduction (relation fragments, bucket files,
overflow partitions) is fully materialized before its phase starts, so
the entire column of join-key hashes, split-table groups and filter
verdicts can be computed once with numpy, the router's packet stream
precomputed as a :class:`RoutePlan`, and each page's CPU charge
produced either from a
:func:`~repro.engine.operators.scan.constant_page_cost` prefix table
(row-independent cost) or a :class:`CostStream` replay (row-dependent
cost).  The result is bit-identical to the per-row scalar routes the
joins keep as their fallback (property- and golden-tested).

Parity argument, in brief:

* hashes — ``(v * mult) & 0xFFFFFFFF`` computed in uint64 wraps modulo
  2**64, which is congruent modulo 2**32 to Python's
  arbitrary-precision result for any 64-bit key, so the hash codes are
  bit-identical;
* packet stream — a scalar ``give`` appends at most one full packet,
  at the row that filled it, so replaying precomputed packets ordered
  by their completing row index reproduces the exact per-page ready
  sequence; partial buffers are stashed for ``Router.close()``, which
  sorts leftovers deterministically regardless of insertion order;
* CPU — each row's charge is one of a few constants chosen by the same
  branch structure as the scalar loop; replaying ``cpu += tuple_scan;
  cpu += r_i`` per row (or a prefix table when ``r`` is
  row-independent) performs the same float additions in the same
  order on the same operands.

The input selects the fallback: sources that cannot be vectorized
(string or mixed-type keys, selection predicates, forming-filter
ablations) take the scalar route, counted in :class:`DataPlaneCounters`.
"""

from __future__ import annotations

import typing

import numpy as np

from repro import hashing
from repro.catalog.pages import ColumnPage
from repro.core import backend
from repro.engine.operators.scan import constant_page_cost

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.bit_filter import BitFilter, FilterBank
    from repro.costs import CostModel
    from repro.engine.machine import GammaMachine
    from repro.engine.operators.routing import Router

Row = typing.Tuple
RoutePageFn = typing.Callable[[typing.Sequence[Row]], float]
#: numpy arrays are opaque to the type checker (no bundled stubs).
Array = typing.Any


class DataPlaneCounters:
    """Observability counters for the vectorized data plane.

    Purely diagnostic — never read by simulation logic, surfaced by
    ``--profile`` experiment reports.
    """

    __slots__ = ("pages_batched", "rows_batched", "pages_scalar",
                 "packets_batched", "packets_scalar",
                 "probe_arena_packets")

    def __init__(self) -> None:
        #: Scan pages routed through a RoutePlan.
        self.pages_batched = 0
        self.rows_batched = 0
        #: Scan pages whose input sent them down the scalar route.
        self.pages_scalar = 0
        #: Consumer packets handled by the page-granular build/probe.
        self.packets_batched = 0
        #: Consumer packets that dropped to the scalar protocol (the
        #: overflow cutoff machinery fired, or would fire, mid-page).
        self.packets_scalar = 0
        #: Probe packets answered from a hash table's columnar arena
        #: (packets of at least ``PROBE_ARENA_MIN_ROWS`` rows).
        self.probe_arena_packets = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "dp_pages_batched": self.pages_batched,
            "dp_rows_batched": self.rows_batched,
            "dp_pages_scalar": self.pages_scalar,
            "dp_packets_batched": self.packets_batched,
            "dp_packets_scalar": self.packets_scalar,
            "dp_probe_arena_packets": self.probe_arena_packets,
        }


# --------------------------------------------------------------------------
# Hash kernels
# --------------------------------------------------------------------------

def hash_keys(keys: typing.Sequence[typing.Any], level: int,
              family: str = "avalanche") -> Array | None:
    """Hash a whole key column; ``None`` when not vectorizable.

    Bit-identical to ``[HASH_FAMILIES[family](k, level) for k in
    keys]`` for any integer column whose values fit in 64 bits: uint64
    arithmetic wraps modulo 2**64, which is congruent modulo 2**32 to
    Python's arbitrary-precision result (negative keys wrap to the
    same residue).  String, mixed-type, boolean, out-of-range and
    non-integer columns return None — callers fall back to the scalar
    hasher.
    """
    if level < 0:
        raise ValueError(f"hash level must be >= 0, got {level}")
    try:
        raw = np.asarray(keys)
    except (TypeError, ValueError):  # pragma: no cover - exotic rows
        return None
    if raw.dtype.kind not in "iu" or raw.dtype.itemsize > 8:
        return None
    v = np.ascontiguousarray(raw, dtype=np.uint64)
    if family == "avalanche":
        return backend.hash_avalanche(v, hashing.level_multiplier(level))
    if family == "legacy":
        # (v * stretch * scale + level*977) & MASK — the two integer
        # multiplications fold into one uint64 multiplier exactly.
        mult = (2 * level + 1) * ((hashing.HASH_MODULUS // 100_000) | 1)
        return backend.hash_legacy(v, mult, level * 977)
    return None


def filter_indices(hash_codes: Array, num_bits: int) -> Array:
    """Filter bit indices for a batch of hash codes (remix % bits)."""
    return backend.filter_slots(
        np.ascontiguousarray(hash_codes, dtype=np.uint64), num_bits)


def marks_word(hash_codes: typing.Sequence[int], num_bits: int) -> int:
    """The int bitset word with every batch hash's filter bit set."""
    slots = backend.filter_slots(
        np.ascontiguousarray(hash_codes, dtype=np.uint64), num_bits)
    return int.from_bytes(backend.marks_word_bytes(slots, num_bits),
                          "little")


def unpack_word(bits: int, num_bits: int) -> Array:
    """Bool-array view of an int bitset word (index-for-index)."""
    return backend.unpack_bits(bits.to_bytes((num_bits + 7) // 8,
                                             "little"), num_bits)


def bank_test_many(filters: "typing.Sequence[BitFilter]", sites: Array,
                   hash_codes: Array) -> Array:
    """Batch :meth:`FilterBank.test` verdicts, in input order.

    Per-site subsets preserve order, so each filter's counters advance
    by exactly the totals the scalar calls would produce.
    """
    out = np.empty(len(hash_codes), dtype=bool)
    for site, filt in enumerate(filters):
        mask = sites == site
        if mask.any():
            out[mask] = filt.test_batch(hash_codes[mask])
    return out


# --------------------------------------------------------------------------
# Memoized column resolution
# --------------------------------------------------------------------------

class Column(typing.NamedTuple):
    """A fully materialized scan column: rows plus join-key hashes."""

    rows: typing.Sequence[Row]
    #: uint64 ndarray of the rows' join-key hash codes.
    arr: Array


def resolve_column(machine: "GammaMachine",
                   rows: typing.Sequence[Row] | None,
                   stored: typing.Sequence[int] | None,
                   key_index: int, level: int, family: str
                   ) -> Column | None:
    """The memoized hash column for one scan source.

    ``stored`` short-circuits hashing with hash codes persisted
    alongside a :class:`~repro.storage.files.PagedFile` (the
    bucket-forming → bucket-joining reuse); otherwise the machine-wide
    :class:`~repro.hashing.KeyHashMemo` is consulted before computing.
    Returns None for columns the kernels cannot hash — callers fall
    back to the scalar route.
    """
    if rows is None:
        return None
    if not rows:
        return Column(rows, np.empty(0, dtype=np.uint64))
    memo = machine.key_hash_memo
    if isinstance(rows, ColumnPage):
        # Columnar sources carry their own hash-column cache, keyed by
        # value (key_index, level, family) — it travels with the page
        # through routing and temp files, replacing the machine-wide
        # id()-keyed memo lookups for this source.
        arr = rows.cached_hashes(key_index, level, family)
        if arr is not None:
            memo.hits += 1
            return Column(rows, arr)
        if stored is not None:
            arr = np.asarray(stored, dtype=np.uint64)
            rows.store_hashes(key_index, level, family, arr)
            memo.hits += 1
            return Column(rows, arr)
        key_column = rows.column_array(key_index)
        arr = (hash_keys(key_column, level, family)
               if key_column is not None else None)
        if arr is None:
            return None
        rows.store_hashes(key_index, level, family, arr)
        memo.misses += 1
        return Column(rows, arr)
    arr = memo.lookup(rows, key_index, level, family)
    if arr is not None:
        return Column(rows, arr)
    if stored is not None:
        arr = np.asarray(stored, dtype=np.uint64)
        memo.store(rows, key_index, level, family, arr, computed=False)
        return Column(rows, arr)
    arr = hash_keys([row[key_index] for row in rows], level, family)
    if arr is None:
        return None
    memo.store(rows, key_index, level, family, arr)
    return Column(rows, arr)


# --------------------------------------------------------------------------
# The packet schedule
# --------------------------------------------------------------------------

class RoutePlan:
    """A precomputed packet schedule for one (scan, router) pair.

    Built from the full column before the scan starts: rows are grouped
    by destination with a stable argsort, each group's row-index list is
    cut into capacity-sized packets, and every packet is tagged with the
    scan position of the row that completes it.  :meth:`advance` then
    replays the scalar router's behaviour exactly — a scalar ``give``
    fills at most one packet, at the row that filled it, so releasing
    packets in completing-row order reproduces the scalar per-page ready
    sequence — and stashes the per-group tails for ``Router.close()``,
    which sorts leftovers deterministically regardless of insertion
    order.

    The schedule is laid out in numpy: packet bounds, completing rows
    and their order come from the gathered row index, and the packet
    hashes from one gather of the column's hash array, so no per-row
    Python object is built beyond the payload hash ints.
    """

    __slots__ = ("router", "total_rows", "subset_rows", "_done_at",
                 "_events", "_leftovers", "_next", "_pos", "_finalized")

    def __init__(self, router: "Router", rows: typing.Sequence[Row],
                 hash_arr: Array, groups: Array,
                 row_index: Array | None,
                 dst_of_group: typing.Sequence[int],
                 bucket_of_group: typing.Sequence[int] | None) -> None:
        self.router = router
        self.total_rows = len(rows)
        self._pos = 0
        self._next = 0
        self._finalized = False
        capacity = router.capacity
        #: Scan position of each packet's completing row, ascending.
        done_at: list[int] = []
        events: list[tuple[int, int | None, typing.Sequence[Row],
                           list[int]]] = []
        leftovers: list[tuple[int, int | None,
                              typing.Sequence[Row], list[int]]] = []
        n = int(len(groups))
        self.subset_rows = n
        if n:
            order, seg_starts, seg_ends, seg_groups = backend.split_groups(
                np.ascontiguousarray(groups, dtype=np.int64),
                len(dst_of_group))
            src = order if row_index is None else row_index[order]
            sorted_hashes = hash_arr[src].tolist()
            sorted_rows: typing.Sequence[Row]
            if isinstance(rows, ColumnPage):
                # Columnar source: one C-level gather of the whole
                # subset, then zero-copy page-slice packets — no row
                # tuple is ever materialized on the routing path.
                sorted_rows = rows.take(src)
                cut = sorted_rows.cut
            else:
                sorted_rows = [rows[i] for i in src.tolist()]
                cut = None
            groups_of_seg = seg_groups.tolist()
            seg_dst = [dst_of_group[g] for g in groups_of_seg]
            seg_bucket = [None if bucket_of_group is None
                          else bucket_of_group[g] for g in groups_of_seg]
            # Full packets, segment by segment, then ordered by the
            # scan position of their last row (distinct: every row is
            # in one packet at most).
            n_full = (seg_ends - seg_starts) // capacity
            seg_of = np.repeat(np.arange(len(n_full)), n_full)
            first = np.cumsum(n_full) - n_full
            lo = seg_starts[seg_of] + capacity * (
                np.arange(len(seg_of)) - first[seg_of])
            completes = src[lo + (capacity - 1)]
            by_completion = np.argsort(completes)
            done_at = completes[by_completion].tolist()
            for lo_i, seg in zip(lo[by_completion].tolist(),
                                 seg_of[by_completion].tolist()):
                hi = lo_i + capacity
                events.append((
                    seg_dst[seg], seg_bucket[seg],
                    cut(lo_i, hi) if cut else sorted_rows[lo_i:hi],
                    sorted_hashes[lo_i:hi]))
            # What is left of each group is its tail.
            tails = (seg_ends - (seg_ends - seg_starts) % capacity).tolist()
            for seg, (tail, b) in enumerate(zip(tails, seg_ends.tolist())):
                if tail < b:
                    leftovers.append((
                        seg_dst[seg], seg_bucket[seg],
                        cut(tail, b) if cut else sorted_rows[tail:b],
                        sorted_hashes[tail:b]))
        self._done_at = done_at
        self._events = events
        self._leftovers = leftovers

    def advance(self, page_rows: int) -> None:
        """Account for one scanned page; release completed packets."""
        pos = self._pos + page_rows
        self._pos = pos
        done_at = self._done_at
        i = self._next
        while i < len(done_at) and done_at[i] < pos:
            self.router.push_ready(*self._events[i])
            i += 1
        self._next = i
        if pos >= self.total_rows and not self._finalized:
            self._finalized = True
            router = self.router
            for dst, bucket, rows, hashes in self._leftovers:
                router.stash_partial(dst, bucket, rows, hashes)
            router.tuples_routed += self.subset_rows


class CostStream:
    """Replays the scalar per-row cost accumulation page by page.

    ``take(n)`` performs ``cpu += tuple_scan; cpu += r_i`` for the next
    ``n`` rows — the exact float additions the scalar branchy route
    loop performs — from a precomputed per-row cost list.
    """

    __slots__ = ("_tuple_scan", "_rvals", "_pos")

    def __init__(self, tuple_scan: float, rvals: list[float]) -> None:
        self._tuple_scan = tuple_scan
        self._rvals = rvals
        self._pos = 0

    def take(self, n: int) -> float:
        tuple_scan = self._tuple_scan
        pos = self._pos
        cpu = 0.0
        for r in self._rvals[pos:pos + n]:
            cpu += tuple_scan
            cpu += r
        self._pos = pos + n
        return cpu


# --------------------------------------------------------------------------
# Route factories (one per scalar route-builder shape)
# --------------------------------------------------------------------------

def counting_scalar(route_page: RoutePageFn,
                    counters: DataPlaneCounters) -> RoutePageFn:
    """Count pages that fell back to the scalar route (predicates,
    non-integer keys, forming filters)."""

    def counted(page: typing.Sequence[Row]) -> float:
        counters.pages_scalar += 1
        return route_page(page)

    return counted


def vector_simple_route(counters: DataPlaneCounters, column: Column,
                        router: "Router",
                        dst_of_group: typing.Sequence[int],
                        bucket_of_group: typing.Sequence[int] | None,
                        n_groups: int, tuple_scan: float,
                        r_const: float) -> RoutePageFn:
    """Constant-cost single-router route: build side, Grace forming,
    sort-merge partitioning."""
    groups = column.arr % np.uint64(n_groups)
    plan = RoutePlan(router, column.rows, column.arr, groups, None,
                     dst_of_group, bucket_of_group)
    cpu_for = constant_page_cost(tuple_scan, r_const)

    def route_page(page: typing.Sequence[Row]) -> float:
        n = len(page)
        counters.pages_batched += 1
        counters.rows_batched += n
        plan.advance(n)
        return cpu_for(n)

    return route_page


def vector_probe_route(counters: DataPlaneCounters, column: Column,
                       probe_router: "Router",
                       spool_router: "Router | None",
                       site_ids: typing.Sequence[int],
                       host_ids: typing.Sequence[int] | None,
                       n_entries: int,
                       cutoffs: typing.Sequence[int | None],
                       bank: "FilterBank | None", costs: "CostModel",
                       bump_spooled: typing.Callable[[int], None] | None
                       ) -> RoutePageFn:
    """Outer-relation route: filter test, cutoff check, transmit.

    Also serves the sort-merge S partition (all cutoffs None, no spool
    router).  Filter verdicts and cutoff comparisons are precomputed
    over the whole column — legal because the bank bits and cutoffs are
    final before the probe/partition phase starts (the scalar builder
    snapshots ``cutoffs()`` at the same moment).
    """
    arr = column.arr
    n = len(arr)
    sites = (arr % np.uint64(n_entries)).astype(np.int64)
    tuple_scan = costs.tuple_scan
    tuple_hash = costs.tuple_hash
    tuple_move = costs.tuple_move
    passed = bank.test_many(sites, arr) if bank is not None else None
    if any(c is not None for c in cutoffs):
        bounds = np.asarray(
            [hashing.HASH_MODULUS if c is None else c for c in cutoffs],
            dtype=np.int64)
        above = arr.astype(np.int64) >= bounds[sites]
    else:
        above = None

    if above is None:
        spool_mask = None
        probe_mask = passed  # None means "every row probes"
    elif passed is None:
        spool_mask = above
        probe_mask = ~above
    else:
        spool_mask = passed & above
        probe_mask = passed & ~above

    plans: list[RoutePlan] = []
    if probe_mask is None:
        plans.append(RoutePlan(probe_router, column.rows, column.arr,
                               sites, None, site_ids, None))
    else:
        idx = np.flatnonzero(probe_mask)
        plans.append(RoutePlan(probe_router, column.rows, column.arr,
                               sites[idx], idx, site_ids, None))
    if spool_mask is not None:
        idx = np.flatnonzero(spool_mask)
        n_spooled = int(len(idx))
        if n_spooled:
            assert spool_router is not None and host_ids is not None
            plans.append(RoutePlan(spool_router, column.rows,
                                   column.arr, sites[idx], idx,
                                   host_ids,
                                   list(range(len(host_ids)))))
            if bump_spooled is not None:
                bump_spooled(n_spooled)

    if passed is None:
        cpu_for = constant_page_cost(tuple_scan, tuple_hash + tuple_move)

        def route_page(page: typing.Sequence[Row]) -> float:
            n_page = len(page)
            counters.pages_batched += 1
            counters.rows_batched += n_page
            for plan in plans:
                plan.advance(n_page)
            return cpu_for(n_page)

        return route_page

    r_elim = tuple_hash + costs.filter_test
    r_pass = r_elim + tuple_move
    stream = CostStream(tuple_scan,
                        np.where(passed, r_pass, r_elim).tolist())

    def route_page(page: typing.Sequence[Row]) -> float:
        n_page = len(page)
        counters.pages_batched += 1
        counters.rows_batched += n_page
        for plan in plans:
            plan.advance(n_page)
        return stream.take(n_page)

    return route_page


def vector_hybrid_inner_route(counters: DataPlaneCounters,
                              column: Column, build_router: "Router",
                              temp_router: "Router | None",
                              entry_dst: typing.Sequence[int],
                              entry_buckets: typing.Sequence[int],
                              tuple_scan: float, r_const: float
                              ) -> RoutePageFn:
    """Hybrid's combined partition/build route (no forming filter)."""
    n_entries = len(entry_dst)
    entry_idx = (column.arr % np.uint64(n_entries)).astype(np.int64)
    bucket_arr = np.asarray(entry_buckets, dtype=np.int64)
    b0 = bucket_arr[entry_idx] == 0
    bidx = np.flatnonzero(b0)
    plans = [RoutePlan(build_router, column.rows, column.arr,
                       entry_idx[bidx], bidx, entry_dst, None)]
    tidx = np.flatnonzero(~b0)
    if len(tidx):
        assert temp_router is not None
        plans.append(RoutePlan(temp_router, column.rows, column.arr,
                               entry_idx[tidx], tidx, entry_dst,
                               entry_buckets))
    cpu_for = constant_page_cost(tuple_scan, r_const)

    def route_page(page: typing.Sequence[Row]) -> float:
        n = len(page)
        counters.pages_batched += 1
        counters.rows_batched += n
        for plan in plans:
            plan.advance(n)
        return cpu_for(n)

    return route_page


def vector_hybrid_outer_route(counters: DataPlaneCounters,
                              column: Column, probe_router: "Router",
                              spool_router: "Router",
                              temp_router: "Router | None",
                              entry_dst: typing.Sequence[int],
                              entry_buckets: typing.Sequence[int],
                              host_ids: typing.Sequence[int],
                              cutoffs: typing.Sequence[int | None],
                              bank: "FilterBank | None",
                              costs: "CostModel",
                              bump_spooled: typing.Callable[[int], None]
                              ) -> RoutePageFn:
    """Hybrid's combined partition/probe route (no forming filter).

    Bucket-0 rows follow the probe/spool logic of
    :func:`vector_probe_route` (their split-table index *is* the join
    site — the joining entries are the table's first J slots); other
    rows stream to the temp writers.
    """
    n_entries = len(entry_dst)
    arr = column.arr
    n = len(arr)
    entry_idx = (arr % np.uint64(n_entries)).astype(np.int64)
    bucket_arr = np.asarray(entry_buckets, dtype=np.int64)
    b0 = bucket_arr[entry_idx] == 0
    tuple_scan = costs.tuple_scan
    tuple_hash = costs.tuple_hash
    tuple_move = costs.tuple_move
    if bank is not None:
        passed_b0 = np.zeros(n, dtype=bool)
        bidx_all = np.flatnonzero(b0)
        if len(bidx_all):
            passed_b0[bidx_all] = bank.test_many(entry_idx[bidx_all],
                                                 arr[bidx_all])
    else:
        passed_b0 = b0
    if any(c is not None for c in cutoffs):
        bounds = np.asarray(
            [hashing.HASH_MODULUS if c is None else c for c in cutoffs],
            dtype=np.int64)
        # Clamp non-bucket-0 rows to site 0; they are masked out below.
        site_or_zero = np.where(b0, entry_idx, 0)
        above = arr.astype(np.int64) >= bounds[site_or_zero]
        spool_mask = passed_b0 & above
        probe_mask = passed_b0 & ~above
    else:
        spool_mask = None
        probe_mask = passed_b0

    plans: list[RoutePlan] = []
    pidx = np.flatnonzero(probe_mask)
    plans.append(RoutePlan(probe_router, column.rows, column.arr,
                           entry_idx[pidx], pidx, entry_dst, None))
    if spool_mask is not None:
        sidx = np.flatnonzero(spool_mask)
        n_spooled = int(len(sidx))
        if n_spooled:
            plans.append(RoutePlan(spool_router, column.rows,
                                   column.arr, entry_idx[sidx], sidx,
                                   host_ids,
                                   list(range(len(host_ids)))))
            bump_spooled(n_spooled)
    tidx = np.flatnonzero(~b0)
    if len(tidx):
        assert temp_router is not None
        plans.append(RoutePlan(temp_router, column.rows, column.arr,
                               entry_idx[tidx], tidx, entry_dst,
                               entry_buckets))

    if bank is None:
        cpu_for = constant_page_cost(tuple_scan, tuple_hash + tuple_move)

        def route_page(page: typing.Sequence[Row]) -> float:
            n_page = len(page)
            counters.pages_batched += 1
            counters.rows_batched += n_page
            for plan in plans:
                plan.advance(n_page)
            return cpu_for(n_page)

        return route_page

    r_temp = tuple_hash + tuple_move
    r_elim = tuple_hash + costs.filter_test
    r_pass = r_elim + tuple_move
    stream = CostStream(
        tuple_scan,
        np.where(b0, np.where(passed_b0, r_pass, r_elim),
                 r_temp).tolist())

    def route_page(page: typing.Sequence[Row]) -> float:
        n_page = len(page)
        counters.pages_batched += 1
        counters.rows_batched += n_page
        for plan in plans:
            plan.advance(n_page)
        return stream.take(n_page)

    return route_page


# --------------------------------------------------------------------------
# Consumer-side helpers
# --------------------------------------------------------------------------

def writer_filter_hook(bit_filter: "BitFilter", tuple_store: float,
                       filter_set: float
                       ) -> typing.Callable[[typing.Sequence[Row],
                                             typing.Sequence[int]], float]:
    """The sort-merge writer's filter-building hook, one packet at a
    time: bits set as a batch (OR commutes), CPU charged as the
    per-tuple sequence ``n * tuple_store`` then n additions of
    ``filter_set``, replayed once per distinct packet size and
    memoized."""
    memo: dict[int, float] = {}

    def batch_hook(rows: typing.Sequence[Row],
                   hashes: typing.Sequence[int]) -> float:
        n = len(rows)
        cpu = memo.get(n)
        if cpu is None:
            total = n * tuple_store
            for _ in range(n):
                total += filter_set
            memo[n] = cpu = total
        bit_filter.set_batch(hashes)
        return cpu

    return batch_hook
