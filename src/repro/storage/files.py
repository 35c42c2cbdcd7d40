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

from repro.catalog.pages import ColumnPage

Row = typing.Tuple


class PagedFile:
    """An append-only tuple file with page accounting.

    Storage is dual-mode: while every batch arriving is a
    :class:`~repro.catalog.pages.ColumnPage` (the page data plane),
    the file accumulates the page batches as-is and
    :attr:`rows` exposes their cached concatenation — a zero-copy-read
    columnar view whose hash-column cache persists across phases.  The
    first scalar ``append`` or tuple-list ``extend`` converts the file
    to the classic tuple-list storage (batches always precede scalar
    traffic on the paths that mix them, so conversion happens at most
    once).  Page accounting is count-based and identical in both
    modes.

    Parameters
    ----------
    name:
        Diagnostic label ("R'3", "bucket2.frag5", ...).
    tuple_bytes:
        Declared width of the stored tuples.
    page_size:
        Disk page size in bytes (8 KB in all the paper's experiments).
    """

    def __init__(self, name: str, tuple_bytes: int, page_size: int,
                 hash_tag: typing.Optional[typing.Tuple[int, str]] = None,
                 ) -> None:
        if tuple_bytes <= 0:
            raise ValueError(f"tuple_bytes must be positive: {tuple_bytes}")
        if page_size <= 0:
            raise ValueError(f"page_size must be positive: {page_size}")
        self.name = name
        self.tuple_bytes = tuple_bytes
        self.page_size = page_size
        self.tuples_per_page = max(1, page_size // tuple_bytes)
        #: Tuple-list storage (None while in columnar mode).
        self._rows_list: typing.Optional[list[Row]] = []
        #: Columnar batches (None while in tuple-list mode).
        self._parts: typing.Optional[list[ColumnPage]] = None
        #: Cached concatenation of ``_parts`` — rebuilt lazily after a
        #: write so repeated reads see one stable page object (its
        #: hash-column cache is what bucket joining reuses).
        self._concat: typing.Optional[ColumnPage] = None
        self._count = 0
        self._pages_flushed = 0
        self.closed = False
        # Optional sidecar of join-key hash codes, tagged with the
        # (hash level, hash family) they were computed under.  Bucket
        # files written during Grace/Hybrid bucket forming carry their
        # level-0 hashes so bucket joining never rehashes the column.
        self.hash_tag = hash_tag
        self.hashes: typing.Optional[list[int]] = (
            [] if hash_tag is not None else None)

    @property
    def rows(self) -> typing.Sequence[Row]:
        """The stored tuples: a list, or a columnar page view."""
        if self._rows_list is not None:
            return self._rows_list
        concat = self._concat
        if concat is None:
            parts = self._parts
            assert parts is not None
            concat = self._concat = (
                parts[0] if len(parts) == 1 else ColumnPage.concat(parts))
        return concat

    def _to_list_mode(self) -> None:
        """Materialize columnar batches into tuple-list storage."""
        merged: list[Row] = []
        for part in self._parts or ():
            merged.extend(part)
        self._rows_list = merged
        self._parts = None
        self._concat = None

    # -- writing ---------------------------------------------------------

    def append(self, row: Row) -> bool:
        """Append one tuple.

        Returns True when the append *completed a page* — the caller
        should charge one sequential page write to the owning disk.
        """
        if self.closed:
            raise RuntimeError(f"append to closed file {self.name!r}")
        if self._rows_list is None:
            self._to_list_mode()
        self._rows_list.append(row)
        self._count += 1
        self.hashes = None  # scalar appends carry no hash sidecar
        if self._count % self.tuples_per_page == 0:
            self._pages_flushed += 1
            return True
        return False

    def extend(self, rows: typing.Iterable[Row],
               hashes: typing.Optional[typing.Sequence[int]] = None) -> int:
        """Append many tuples; returns the number of pages completed.

        ``hashes``, when given, is the parallel list of join-key hash
        codes for ``rows``; it is retained only when this file was
        created with a ``hash_tag``.  Any batch arriving without hashes
        voids the sidecar (all-or-nothing: a partial sidecar could not
        be reused).
        """
        if self.closed:
            raise RuntimeError(f"append to closed file {self.name!r}")
        before = self._count
        if isinstance(rows, ColumnPage):
            if self._rows_list is not None and not self._rows_list:
                # Empty file receiving columnar traffic: go columnar.
                self._rows_list = None
                self._parts = []
            if self._parts is not None:
                self._parts.append(rows)
                self._concat = None
                self._count = before + len(rows)
            else:
                self._rows_list.extend(rows)
                self._count = before + len(rows)
        else:
            if self._rows_list is None:
                self._to_list_mode()
            mine = self._rows_list
            mine.extend(rows)
            self._count = len(mine)
        if self.hashes is not None:
            if hashes is None:
                self.hashes = None
            else:
                self.hashes.extend(hashes)
        per_page = self.tuples_per_page
        completed = self._count // per_page - before // per_page
        self._pages_flushed += completed
        return completed

    def stored_hashes(self, level: int,
                      family: str) -> typing.Optional[list[int]]:
        """The complete hash sidecar, iff computed under (level, family)
        and covering every stored row; otherwise None."""
        if (self.hash_tag == (level, family)
                and self.hashes is not None
                and len(self.hashes) == self._count):
            return self.hashes
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
