"""Paged temporary / heap files.

A :class:`PagedFile` holds real tuples and accounts for its disk
footprint in pages of the cost model's page size.  Writers append
tuples one at a time; the file tracks how many *whole pages* have been
filled so the owning operator can charge a disk write exactly when a
page boundary is crossed (and one final partial page at close).

The file is a logical container — the timed disk operations are issued
by the operator that owns it, against the :class:`~repro.storage.disk
.Disk` of the node the file lives on.  Keeping data and timing separate
lets unit tests exercise file arithmetic without a simulator.
"""

from __future__ import annotations

import math
import typing

import numpy as np

from repro.catalog.pages import ColumnPage
from repro.hashing import code_array

Row = typing.Tuple
#: numpy arrays are opaque to the type checker (no bundled stubs).
Array = typing.Any


#: Tuple rows a columnar file gathers before it columnarizes them into
#: one page: join output the scalar probe builds row by row arrives a
#: few rows per packet, and one conversion per chunk is what keeps the
#: conversion off the per-packet path.
ROW_CHUNK = 512


class PagedFile:
    """An append-only tuple file with page accounting.

    Storage is dual-mode: while every batch arriving is a run of a
    :class:`~repro.catalog.pages.ColumnPage` (the page data plane),
    the file keeps the runs as ``[page, lo, hi]`` parts — a run that
    continues the previous part's run of the same page extends it.
    :attr:`rows` concatenates them once and keeps the concatenation as
    the file's one part, so a file never pins its source pages and its
    concatenation at once; the page it returns is stable across reads
    and its hash-column cache persists across phases.  The
    first scalar ``append`` or tuple-list ``extend`` converts the file
    to the classic tuple-list storage (batches always precede scalar
    traffic on the paths that mix them, so conversion happens at most
    once) — unless the file is ``columnar`` (a join's result file):
    then tuple rows are gathered and columnarized :data:`ROW_CHUNK` at
    a time, and the rest on the next read, so it only ever holds
    pages.  Page accounting is count-based and identical in every
    mode.

    Parameters
    ----------
    name:
        Diagnostic label ("R'3", "bucket2.frag5", ...).
    tuple_bytes:
        Declared width of the stored tuples.
    page_size:
        Disk page size in bytes (8 KB in all the paper's experiments).
    hash_tag:
        ``(level, family)`` of the join-key hash codes to keep beside
        the rows, or None to keep none.
    columnar:
        Store tuple-list arrivals as column pages too.
    like:
        With ``columnar``: an (empty) page whose layout every tuple row
        arriving is known to have, so each chunk converts unchecked
        (:meth:`~repro.catalog.pages.ColumnPage.rows_like`).
    """

    def __init__(self, name: str, tuple_bytes: int, page_size: int,
                 hash_tag: typing.Optional[typing.Tuple[int, str]] = None,
                 columnar: bool = False,
                 like: typing.Optional[ColumnPage] = None) -> None:
        if tuple_bytes <= 0:
            raise ValueError(f"tuple_bytes must be positive: {tuple_bytes}")
        if page_size <= 0:
            raise ValueError(f"page_size must be positive: {page_size}")
        self.name = name
        self.tuple_bytes = tuple_bytes
        self.page_size = page_size
        self.tuples_per_page = max(1, page_size // tuple_bytes)
        #: Tuple-list storage (None while in columnar mode).
        self._rows_list: typing.Optional[list[Row]] = (
            None if columnar else [])
        #: Columnar runs ``[page, lo, hi]`` (None while in tuple-list
        #: mode).
        self._parts: typing.Optional[list[list]] = [] if columnar else None
        #: A columnar file's tuple rows not yet columnarized (None for
        #: any other file).
        self._pending: typing.Optional[list[Row]] = (
            [] if columnar else None)
        self._like = like
        self._count = 0
        self._pages_flushed = 0
        self.closed = False
        # Optional sidecar of join-key hash codes, tagged with the
        # (hash level, hash family) they were computed under.  Bucket
        # files written during Grace/Hybrid bucket forming carry their
        # level-0 hashes so bucket joining never rehashes the column.
        # Kept as the arriving uint64 arrays (or int lists), joined on
        # the first read.
        self.hash_tag = hash_tag
        self._hash_parts: typing.Optional[list] = (
            [] if hash_tag is not None else None)

    @property
    def rows(self) -> typing.Sequence[Row]:
        """The stored tuples: a list, or a columnar page view."""
        if self._rows_list is not None:
            return self._rows_list
        parts = self._parts
        assert parts is not None
        if self._pending:
            self._columnarize()
        if not parts:
            return []
        page, lo, hi = parts[0]
        if len(parts) == 1 and lo == 0 and hi == len(page):
            return page
        # The concatenation replaces the runs: the file then holds its
        # rows once, and the next read returns this same page.
        concat = ColumnPage.concat_runs(parts)
        self._parts = [[concat, 0, len(concat)]]
        return concat

    def runs(self) -> typing.Optional[list[ColumnPage]]:
        """The columnar rows as zero-copy cuts of their pages, in file
        order (what :attr:`rows` concatenates), or None for tuple-list
        storage."""
        if self._parts is None:
            return None
        if self._pending:
            self._columnarize()
        return [page.cut(lo, hi) for page, lo, hi in self._parts]

    @property
    def hashes(self) -> typing.Optional[Array]:
        """The hash sidecar as one uint64 array, or None."""
        parts = self._hash_parts
        if parts is None:
            return None
        if len(parts) != 1 or not isinstance(parts[0], np.ndarray):
            parts[:] = [code_array(parts)]
        return parts[0]

    def _to_list_mode(self) -> None:
        """Materialize columnar runs into tuple-list storage."""
        merged: list[Row] = []
        for page, lo, hi in self._parts or ():
            merged.extend(page.cut(lo, hi))
        self._rows_list = merged
        self._parts = None

    def _columnarize(self) -> None:
        """Append a columnar file's pending tuple rows as one page."""
        assert self._parts is not None and self._pending is not None
        like = self._like
        page = (like.rows_like(self._pending) if like is not None
                else ColumnPage.from_rows(self._pending))
        self._parts.append([page, 0, len(page)])
        self._pending = []

    # -- writing ---------------------------------------------------------

    def append(self, row: Row) -> bool:
        """Append one tuple.

        Returns True when the append *completed a page* — the caller
        should charge one sequential page write to the owning disk.
        """
        if self.closed:
            raise RuntimeError(f"append to closed file {self.name!r}")
        pending = self._pending
        if pending is not None:
            pending.append(row)
            if len(pending) >= ROW_CHUNK:
                self._columnarize()
        else:
            if self._rows_list is None:
                self._to_list_mode()
            self._rows_list.append(row)
        self._count += 1
        self._hash_parts = None  # scalar appends carry no hash sidecar
        if self._count % self.tuples_per_page == 0:
            self._pages_flushed += 1
            return True
        return False

    def extend(self, rows: typing.Iterable[Row],
               hashes: typing.Optional[typing.Sequence[int]] = None,
               lo: int = 0, hi: typing.Optional[int] = None) -> int:
        """Append many tuples; returns the number of pages completed.

        With ``hi`` given, only the run ``rows[lo:hi]`` is appended
        (how packets arrive: a run of their route plan's page).
        ``hashes``, when given, is the parallel uint64 array (or int
        list) of join-key hash codes for the appended rows; it is
        retained only when this file was created with a ``hash_tag``.
        Any batch arriving without hashes voids the sidecar
        (all-or-nothing: a partial sidecar could not be reused).
        """
        if self.closed:
            raise RuntimeError(f"append to closed file {self.name!r}")
        before = self._count
        pending = self._pending
        if isinstance(rows, ColumnPage):
            if hi is None:
                lo, hi = 0, len(rows)
            if self._rows_list is not None and not self._rows_list:
                # Empty file receiving columnar traffic: go columnar.
                self._rows_list = None
                self._parts = []
            parts = self._parts
            if parts is not None:
                if pending:
                    self._columnarize()
                last = parts[-1] if parts else None
                if last is not None and last[0] is rows and last[2] == lo:
                    last[2] = hi
                else:
                    parts.append([rows, lo, hi])
            else:
                self._rows_list.extend(rows.cut(lo, hi))
            self._count = before + (hi - lo)
        else:
            if hi is not None and (lo or hi != len(rows)):
                rows = rows[lo:hi]
            if pending is not None:
                held = len(pending)
                pending.extend(rows)
                self._count = before + len(pending) - held
                if len(pending) >= ROW_CHUNK:
                    self._columnarize()
            else:
                if self._rows_list is None:
                    self._to_list_mode()
                mine = self._rows_list
                mine.extend(rows)
                self._count = len(mine)
        hash_parts = self._hash_parts
        if hash_parts is not None:
            if hashes is None:
                self._hash_parts = None
            elif type(hashes) is not list:
                hash_parts.append(hashes)
            elif hash_parts and type(hash_parts[-1]) is list:
                hash_parts[-1].extend(hashes)
            else:
                hash_parts.append(list(hashes))
        per_page = self.tuples_per_page
        completed = self._count // per_page - before // per_page
        self._pages_flushed += completed
        return completed

    def stored_hashes(self, level: int,
                      family: str) -> typing.Optional[Array]:
        """The complete hash sidecar as a uint64 array, iff computed
        under (level, family) and covering every stored row; otherwise
        None."""
        if self.hash_tag != (level, family):
            return None
        hashes = self.hashes
        if hashes is not None and len(hashes) == self._count:
            return hashes
        return None

    def close(self) -> int:
        """Finish writing.

        Returns the number of trailing pages (0 or 1) still unflushed,
        which the caller should charge as a final page write.
        """
        if self.closed:
            raise RuntimeError(f"double close of file {self.name!r}")
        self.closed = True
        remaining = self.num_pages - self._pages_flushed
        self._pages_flushed = self.num_pages
        return remaining

    # -- reading / arithmetic --------------------------------------------

    @property
    def num_tuples(self) -> int:
        return self._count

    @property
    def num_pages(self) -> int:
        return math.ceil(self._count / self.tuples_per_page)

    @property
    def total_bytes(self) -> int:
        return self._count * self.tuple_bytes

    @property
    def is_empty(self) -> bool:
        return not self._count

    def pages(self) -> typing.Iterator[typing.Sequence[Row]]:
        """Iterate page-sized chunks of tuples, in file order."""
        rows = self.rows
        for start in range(0, self._count, self.tuples_per_page):
            yield rows[start:start + self.tuples_per_page]

    def __len__(self) -> int:
        return self._count

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<PagedFile {self.name!r} tuples={self._count} "
                f"pages={self.num_pages}>")
