"""The in-memory join hash table with Gamma's overflow mechanism.

§3.2 and §4.1 of the paper describe the machinery precisely:

* tuples are inserted into a hash table keyed by the hash of the join
  attribute; duplicate attribute values form chains (§4.4 measured
  average chains of 3.3 tuples, maximum 16, under the normal skew);
* a histogram over hash values is maintained as tuples arrive;
* when the table's capacity is exceeded, a cutoff hash value is chosen
  from the histogram such that evicting every resident tuple above it
  frees (at least) 10 % of the memory, the qualifying tuples are
  scanned out and written to the overflow file, and *subsequent*
  arrivals above the cutoff bypass the table entirely;
* the heuristic may fire repeatedly, each time lowering the cutoff —
  and each application increases the fraction of incoming tuples that
  is diverted straight to the overflow file.

:class:`JoinHashTable` implements exactly that.  The owning build
operator drives the protocol::

    if table.admits(h):
        if table.is_full:
            evicted, scanned = table.make_room()
            ... route evicted tuples to the overflow file ...
        if table.admits(h):          # cutoff may now exclude h
            table.insert(row, h)
        else:
            ... route row to the overflow file ...
    else:
        ... route row to the overflow file ...

Matching R and S tuples hash identically, so "resident iff hash below
cutoff" holds symmetrically on both sides — no result is ever lost
(property-tested in ``tests/core/test_hash_table.py``).
"""

from __future__ import annotations

import math
import typing

import numpy as np

from repro.catalog.pages import ColumnPage, take_rows
from repro.core import backend
from repro.hashing import HASH_MODULUS

Row = typing.Tuple

#: Resolution of the hash-value histogram the clearing heuristic
#: consults.  128 bins over the 32-bit hash space.
HISTOGRAM_BINS = 128

#: Fraction of table capacity each clearing pass tries to free (§4.1:
#: "We currently try to clear 10% of the hash table memory space").
CLEAR_FRACTION = 0.10


#: Probe pages below this row count drop the table to scalar chains.
#: The arena's sorted-range probe amortizes its gather over the rows of
#: each incoming page; tiny network packets (the paper's 2 KB packets
#: carry 9 tuples) never recoup it, so the first undersized probe page
#: materializes the chains once and every later probe walks them
#: scalar — bit-identical either way.
PROBE_ARENA_MIN_ROWS = 32


class JoinOverflowError(RuntimeError):
    """The overflow mechanism cannot make progress.

    Raised when recursion hits the configured depth limit — in
    practice only when one join value's duplicates alone exceed all
    join memory, the pathological case the paper's conclusion warns
    about (use sort-merge when the inner relation is highly skewed and
    memory is limited).
    """


class JoinHashTable:
    """One join site's in-memory hash table."""

    def __init__(self, capacity_tuples: int) -> None:
        if capacity_tuples < 1:
            raise ValueError(
                f"hash table needs capacity >= 1 tuple, got "
                f"{capacity_tuples}; give the join more memory")
        self.capacity = capacity_tuples
        self._slots: dict[int, list[Row]] = {}
        self.count = 0
        #: Hash codes >= cutoff overflow; None means no overflow yet.
        self.cutoff: int | None = None
        self._histogram = [0] * HISTOGRAM_BINS
        # Columnar arena: while every insert arrives as a ColumnPage
        # run (the page data plane), the runs are accumulated as
        # (page, lo, hi, hashes) — no per-tuple chains — and probing
        # runs against a lazily built sorted index.  The first scalar
        # operation (insert / make_room / probe / resident_rows)
        # materializes the arena into classic chains; ``None`` means
        # the table is in scalar-chain mode.
        self._arena: list[tuple[ColumnPage, int, int, list[int]]] | None = []
        self._arena_index: dict[int, tuple[int, int]] | None = None
        self._arena_order: typing.Any = None
        self._arena_max_chain = 0
        self._arena_rows: list | None = None
        self._arena_keys: list | None = None
        self._arena_key_index: int | None = None
        # Statistics.
        self.overflow_events = 0
        self.tuples_evicted = 0
        self.tuples_scanned_during_eviction = 0
        #: Probe pages answered from the arena's sorted index.
        self.arena_probe_pages = 0
        self._max_chain = 0
        self.total_inserted = 0

    # -- admission / insertion ---------------------------------------------

    def admits(self, hash_code: int) -> bool:
        """May a tuple with this hash code live in the table?"""
        return self.cutoff is None or hash_code < self.cutoff

    @property
    def is_full(self) -> bool:
        return self.count >= self.capacity

    @property
    def max_chain(self) -> int:
        """Longest duplicate chain seen so far (§4.4 reports 16 max)."""
        if self._arena:
            self._arena_groups()
            if self._arena_max_chain > self._max_chain:
                return self._arena_max_chain
        return self._max_chain

    @max_chain.setter
    def max_chain(self, value: int) -> None:
        self._max_chain = value

    def insert(self, row: Row, hash_code: int) -> None:
        """Insert a tuple (caller must have checked :meth:`admits` and
        made room)."""
        if self._arena is not None:
            self._materialize()
        if not self.admits(hash_code):
            raise RuntimeError(
                f"insert above cutoff: hash {hash_code} >= {self.cutoff}")
        if self.is_full:
            raise RuntimeError(
                "insert into a full table; call make_room() first")
        chain = self._slots.get(hash_code)
        if chain is None:
            self._slots[hash_code] = [row]
            chain_length = 1
        else:
            chain.append(row)
            chain_length = len(chain)
        self.count += 1
        self.total_inserted += 1
        if chain_length > self.max_chain:
            self.max_chain = chain_length
        self._histogram[self._bin(hash_code)] += 1

    def insert_page(self, rows: typing.Sequence[Row],
                    hashes: typing.Sequence[int], lo: int = 0,
                    hi: int | None = None) -> None:
        """Insert a whole page at once — or, with ``hi`` given, the run
        ``rows[lo:hi]`` of it (``hashes`` aligned with the run).

        Caller guarantees ``cutoff is None`` and ``count + len(hashes)
        <= capacity`` — exactly the regime where the scalar protocol
        never calls ``admits``/``make_room`` between inserts, so this is
        the plain insert loop with the per-row bookkeeping hoisted.

        A :class:`~repro.catalog.pages.ColumnPage` run arriving while
        the table is still in arena mode is retained as a run of its
        page: only the histogram and counters are updated, and no row
        tuple is ever materialized unless probing later finds a match.
        """
        n = len(hashes)
        arena = self._arena
        if arena is not None:
            if isinstance(rows, ColumnPage):
                arena.append((
                    rows, lo, lo + n,
                    hashes if isinstance(hashes, list) else list(hashes)))
                self._arena_index = None
                self._arena_keys = None
                self._arena_rows = None
                histogram = self._histogram
                for hash_code in hashes:
                    histogram[hash_code * HISTOGRAM_BINS // HASH_MODULUS] += 1
                self.count += n
                self.total_inserted += n
                return
            self._materialize()
        if hi is not None and (lo or hi != len(rows)):
            rows = rows[lo:hi]
        slots = self._slots
        histogram = self._histogram
        max_chain = self.max_chain
        for row, hash_code in zip(rows, hashes):
            chain = slots.get(hash_code)
            if chain is None:
                slots[hash_code] = [row]
                chain_length = 1
            else:
                chain.append(row)
                chain_length = len(chain)
            if chain_length > max_chain:
                max_chain = chain_length
            histogram[hash_code * HISTOGRAM_BINS // HASH_MODULUS] += 1
        self.max_chain = max_chain
        self.count += n
        self.total_inserted += n

    # -- columnar arena ------------------------------------------------------

    def _materialize(self) -> None:
        """Fold the arena into scalar chains (insertion order kept).

        Counters and the histogram were settled when each batch was
        admitted, so only the chains and ``max_chain`` remain.  Called
        at most once, on the first scalar operation — the build
        protocol only goes scalar once a batch stops fitting, and the
        scalar path never hands control back to the arena.
        """
        parts, self._arena = self._arena, None
        self._arena_index = None
        self._arena_order = None
        self._arena_keys = None
        self._arena_rows = None
        if not parts:
            return
        slots = self._slots
        max_chain = self._max_chain
        for page, lo, hi, page_hashes in parts:
            for row, hash_code in zip(page.cut(lo, hi), page_hashes):
                chain = slots.get(hash_code)
                if chain is None:
                    slots[hash_code] = [row]
                    chain_length = 1
                else:
                    chain.append(row)
                    chain_length = len(chain)
                if chain_length > max_chain:
                    max_chain = chain_length
        self._max_chain = max_chain

    def _arena_groups(self) -> dict[int, tuple[int, int]]:
        """Hash -> (start, end) ranges into the stable-sorted arena.

        ``backend.arena_ranges`` uses a stable sort (numpy stable
        argsort, or its compiled mirror), keeping equal hashes in
        insertion order, so each range enumerates exactly the tuples a
        scalar chain would hold, in the same order.
        """
        index = self._arena_index
        if index is None:
            parts = self._arena
            assert parts is not None
            all_hashes: list[int] = []
            for _page, _lo, _hi, page_hashes in parts:
                all_hashes.extend(page_hashes)
            arr = np.asarray(all_hashes, dtype=np.int64)
            order, starts, ends, keys, max_chain = \
                backend.arena_ranges(arr)
            self._arena_max_chain = max_chain
            index = dict(zip(keys.tolist(),
                             zip(starts.tolist(), ends.tolist())))
            self._arena_index = index
            self._arena_order = order
        return index

    def _arena_probe_data(self, inner_key: int) -> tuple[list, list]:
        """The arena gathered into hash order: its join-key values and
        its row tuples, both as plain Python lists.  Built once per
        (arena, key) — bulk iteration over the gathered page is an
        order of magnitude cheaper per row than per-match indexing,
        and in a join most resident rows are matched anyway."""
        if self._arena_keys is None or self._arena_key_index != inner_key:
            parts = self._arena
            assert parts is not None and parts
            whole = ColumnPage.concat([page.cut(lo, hi)
                                       for page, lo, hi, _ in parts])
            ordered = whole.take(self._arena_order)
            self._arena_rows = list(ordered)
            self._arena_keys = ordered.column_values(inner_key)
            self._arena_key_index = inner_key
        assert self._arena_rows is not None
        return self._arena_keys, self._arena_rows

    # -- overflow ------------------------------------------------------------

    @staticmethod
    def _bin(hash_code: int) -> int:
        return hash_code * HISTOGRAM_BINS // HASH_MODULUS

    @staticmethod
    def _bin_floor(bin_index: int) -> int:
        return bin_index * HASH_MODULUS // HISTOGRAM_BINS

    def make_room(self) -> tuple[list[tuple[Row, int]], int]:
        """Apply the 10 %-clearing heuristic.

        Chooses a new (lower) cutoff from the histogram, evicts every
        resident tuple at or above it, and returns ``(evicted,
        scanned)`` where ``evicted`` is a list of (row, hash) pairs
        destined for the overflow file and ``scanned`` is the number
        of resident tuples examined (CPU accounting for "the overhead
        required to repeatedly search the hash table", §4.1).
        """
        if self._arena is not None:
            self._materialize()
        target = max(1, math.ceil(self.capacity * CLEAR_FRACTION))
        top_bin = (HISTOGRAM_BINS if self.cutoff is None
                   else self._bin(self.cutoff - 1) + 1)
        freed = 0
        bin_index = top_bin
        while bin_index > 0 and freed < target:
            bin_index -= 1
            freed += self._histogram[bin_index]
        if freed == 0:
            raise JoinOverflowError(
                "overflow clearing freed no memory: every resident tuple "
                "shares the lowest histogram bin (pathological duplicate "
                "skew; the paper's remedy is a non-hash algorithm)")
        new_cutoff = self._bin_floor(bin_index)
        scanned = self.count
        evicted: list[tuple[Row, int]] = []
        for hash_code in sorted(self._slots):
            if hash_code >= new_cutoff:
                for row in self._slots[hash_code]:
                    evicted.append((row, hash_code))
                del self._slots[hash_code]
        self.count -= len(evicted)
        for index in range(bin_index, top_bin):
            self._histogram[index] = 0
        self.cutoff = new_cutoff
        self.overflow_events += 1
        self.tuples_evicted += len(evicted)
        self.tuples_scanned_during_eviction += scanned
        return evicted, scanned

    @property
    def overflowed(self) -> bool:
        return self.cutoff is not None

    # -- probing ------------------------------------------------------------

    def probe(self, hash_code: int, key_value: typing.Any,
              key_index: int) -> tuple[list[Row], int]:
        """Probe with an outer tuple's hash and join value.

        Returns ``(matches, chain_length)``; the chain length feeds the
        per-link probe CPU cost.
        """
        if self._arena is not None:
            self._materialize()
        chain = self._slots.get(hash_code)
        if chain is None:
            return [], 0
        matches = [row for row in chain if row[key_index] == key_value]
        return matches, len(chain)

    def probe_page(self, rows: typing.Sequence[Row],
                   hashes: typing.Sequence[int], outer_key: int,
                   inner_key: int, tuple_receive: float,
                   tuple_probe: float, tuple_chain_link: float,
                   result_move: float,
                   emit: typing.Callable[[Row], None]) -> float:
        """:meth:`probe_batch` with each result row handed to ``emit``
        in order; returns the accumulated CPU time."""
        cpu, results = self.probe_batch(
            rows, hashes, outer_key, inner_key, tuple_receive,
            tuple_probe, tuple_chain_link, result_move)
        for row in results:
            emit(row)
        return cpu

    def probe_batch(self, rows: typing.Sequence[Row],
                    hashes: typing.Sequence[int], outer_key: int,
                    inner_key: int, tuple_receive: float,
                    tuple_probe: float, tuple_chain_link: float,
                    result_move: float, lo: int = 0
                    ) -> tuple[float, list[Row]]:
        """Probe a whole page — or the run of ``len(hashes)`` rows of it
        starting at row ``lo``: ``(cpu, results)``.

        Bit-equal to the scalar probe consumer: per row the charges are
        ``cpu += tuple_receive; cpu += tuple_probe [+ (chain-1) *
        tuple_chain_link]; cpu += result_move`` per match, in the same
        order and operand grouping, and ``results`` holds the joined
        rows (inner + outer) in the order the scalar consumer emits
        them: per outer row, matches in insertion order.

        While the table is in arena mode the probe runs against the
        sorted-range index instead of chains (same charges, same
        results).  Probe pages under :data:`PROBE_ARENA_MIN_ROWS` rows
        instead drop the table to scalar chains once and for all — the
        gather the arena probe amortizes per page never pays for itself
        on tiny packets.
        """
        hi = lo + len(hashes)
        if self._arena is not None:
            if hi - lo >= PROBE_ARENA_MIN_ROWS:
                return self._probe_batch_arena(
                    rows, hashes, outer_key, inner_key, tuple_receive,
                    tuple_probe, tuple_chain_link, result_move, lo)
            self._materialize()
        slots = self._slots
        # A columnar run is read by one slice of its page's key column;
        # a row tuple is materialized only for a row that matches
        # (packets here are small and matches few, so one row at a time
        # beats materializing the whole packet at the first match).
        out_values = (rows.column_values(outer_key, lo, hi)
                      if isinstance(rows, ColumnPage) else None)
        results: list[Row] = []
        cpu = 0.0
        for i, hash_code in enumerate(hashes):
            cpu += tuple_receive
            chain = slots.get(hash_code)
            if chain is None:
                cpu += tuple_probe
                continue
            chain_length = len(chain)
            if chain_length == 1:
                cpu += tuple_probe
            else:
                cpu += tuple_probe + (chain_length - 1) * tuple_chain_link
            row = None
            value = (out_values[i] if out_values is not None
                     else rows[lo + i][outer_key])
            for match in chain:
                if match[inner_key] == value:
                    cpu += result_move
                    if row is None:
                        row = rows[lo + i]
                    results.append(match + row)
        return cpu, results

    def _probe_batch_arena(self, rows: typing.Sequence[Row],
                           hashes: typing.Sequence[int], outer_key: int,
                           inner_key: int, tuple_receive: float,
                           tuple_probe: float, tuple_chain_link: float,
                           result_move: float, lo: int = 0
                           ) -> tuple[float, list[Row]]:
        """Arena-mode :meth:`probe_batch`: bit-equal charges, the same
        results.  The row loop only records (outer, arena) match
        positions; the matched outer rows are gathered in one call
        afterwards, so an outer row that matches nothing is never
        built."""
        self.arena_probe_pages += 1
        index = self._arena_groups()
        keys: list | None = None
        inner_rows: list | None = None
        out_values = (rows.column_values(outer_key, lo, lo + len(hashes))
                      if isinstance(rows, ColumnPage) else None)
        outer_at: list[int] = []
        inner_at: list[int] = []
        cpu = 0.0
        for i, hash_code in enumerate(hashes):
            cpu += tuple_receive
            group = index.get(hash_code)
            if group is None:
                cpu += tuple_probe
                continue
            start, end = group
            chain_length = end - start
            if chain_length == 1:
                cpu += tuple_probe
            else:
                cpu += tuple_probe + (chain_length - 1) * tuple_chain_link
            if keys is None:
                keys, inner_rows = self._arena_probe_data(inner_key)
            value = (out_values[i] if out_values is not None
                     else rows[lo + i][outer_key])
            for j in range(start, end):
                if keys[j] == value:
                    cpu += result_move
                    outer_at.append(i)
                    inner_at.append(j)
        if not outer_at:
            return cpu, []
        if lo:
            outer_at = [lo + i for i in outer_at]
        assert inner_rows is not None
        return cpu, [inner_rows[j] + row for j, row in
                     zip(inner_at, take_rows(rows, outer_at))]

    def resident_rows(self) -> typing.Iterator[tuple[Row, int]]:
        """All (row, hash) pairs currently resident (diagnostics)."""
        if self._arena is not None:
            self._materialize()
        for hash_code, chain in self._slots.items():
            for row in chain:
                yield row, hash_code

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<JoinHashTable {self.count}/{self.capacity} "
                f"cutoff={self.cutoff} overflows={self.overflow_events}>")
