"""Columnar relation pages (the ``REPRO_COLUMNAR`` representation).

A :class:`ColumnPage` stores a batch of tuples column-wise — every
``int64`` attribute as one row of a single ``(k, n)`` numpy matrix, a
constant-value marker for the default non-materialized string
attributes — instead of a list of Python tuples.  The page is a
faithful ``Sequence[Row]``: ``len``, indexing (including negative
indices and slices), and iteration all behave exactly like the
tuple-list it replaces, materializing Python tuples lazily and only
where a consumer actually touches rows.  Scalar values handed out are
always built-in ``int``/``str`` (never numpy scalars), so every
downstream consumer — ``hashing.hash_value``, dict keys, sort
tiebreaks — sees bit-identical values to the tuple-list path.

Slicing returns a zero-copy view (one 2-D numpy slice of the parent's
matrix); :meth:`take` gathers arbitrary row subsets.  Pages also carry
a join-key hash-column cache keyed by ``(key_index, level, family)``
— the columnar replacement for the machine-wide id()-keyed
``hashing.KeyHashMemo``, with the advantage that the cache travels
with the data through routing, spooling, and temp files.

``REPRO_COLUMNAR=0`` restores tuple-list fragments end-to-end; the
generator, loader, and storage layers all consult
:func:`columnar_enabled` through a single code path.
"""

from __future__ import annotations

import itertools
import os
import typing

import numpy as np

Row = typing.Tuple
#: numpy arrays are opaque to the type checker (no bundled stubs).
Array = typing.Any


def columnar_enabled() -> bool:
    """Is the columnar relation representation on?  ``REPRO_COLUMNAR``
    defaults to on; ``=0`` restores tuple-list fragments."""
    return os.environ.get("REPRO_COLUMNAR", "1") != "0"


class ConstColumn:
    """A column whose every value is the same object (the default
    non-materialized ``""`` string attributes).  Length lives on the
    owning page; this is just the repeated value."""

    __slots__ = ("value",)

    def __init__(self, value: typing.Any) -> None:
        self.value = value

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"ConstColumn({self.value!r})"


class _Layout:
    """Which tuple positions of a page are block rows, constants, or
    object columns.  Immutable, and shared by reference between a page
    and every slice or gather of it."""

    __slots__ = ("width", "kinds", "consts", "obj_pos", "tail")

    def __init__(self, kinds: typing.Sequence) -> None:
        #: Per tuple position: ``int`` r — row r of the block;
        #: :class:`ConstColumn` — that constant; None — the next
        #: per-page object column.  Block rows and object columns are
        #: numbered in ascending tuple position.
        self.kinds = tuple(kinds)
        self.width = len(self.kinds)
        self.consts = tuple((j, kind.value)
                            for j, kind in enumerate(self.kinds)
                            if type(kind) is ConstColumn)
        self.obj_pos = tuple(j for j, kind in enumerate(self.kinds)
                             if kind is None)
        #: The constant values closing every row when the layout is
        #: the Wisconsin shape — block rows first, constants after, no
        #: object column — else None.
        first_const = self.width - len(self.consts)
        self.tail = (
            tuple(value for _, value in self.consts)
            if all(type(kind) is int for kind in self.kinds[:first_const])
            else None)

    def matches(self, other: "_Layout") -> bool:
        """Same positions of the same kinds, equal constants?"""
        return other is self or (
            other.width == self.width
            and other.obj_pos == self.obj_pos
            and other.consts == self.consts)


class ColumnPage:
    """A columnar batch of rows with tuple-list ``Sequence`` semantics.

    Columns come in three kinds:

    * ``int64`` — integer attributes; the hot kind.  All of a page's
      integer columns are the rows of one ``(k, n)`` matrix, so each
      stays a contiguous 1-D array while a slice, gather or
      concatenation of the page is a single numpy call.
    * :class:`ConstColumn` — every row holds the same value.
    * ``list`` — arbitrary per-row objects (materialized strings,
      exotic test rows); a compatibility fallback, never produced by
      the Wisconsin generator's default configuration.
    """

    __slots__ = ("_n", "_block", "_layout", "_objs", "_hash_cache")

    def __init__(self, n: int, block: Array, layout: _Layout,
                 objs: tuple = ()) -> None:
        self._n = n
        #: (k, n) int64; row r is the tuple position whose
        #: ``layout.kinds`` entry is r.
        self._block = block
        self._layout = layout
        #: One list per ``layout.obj_pos`` entry.
        self._objs = objs
        #: (key_index, level, family) -> uint64 hash ndarray.
        self._hash_cache: dict = {}

    # -- construction -------------------------------------------------------

    @classmethod
    def from_columns(cls, cols: typing.Sequence, n: int | None = None
                     ) -> "ColumnPage":
        """Build a page from ready-made columns (validated lengths):
        integer ndarrays, :class:`ConstColumn` markers, or lists."""
        cols = [col.tolist() if isinstance(col, np.ndarray)
                and not _fits_block(col) else col for col in cols]
        if n is None:
            n = 0
            for col in cols:
                if not isinstance(col, ConstColumn):
                    n = len(col)
                    break
        for col in cols:
            if not isinstance(col, ConstColumn) and len(col) != n:
                raise ValueError(
                    f"column length {len(col)} != page length {n}")
        ints: list = []
        objs: list = []
        kinds: list = []
        for col in cols:
            if isinstance(col, np.ndarray):
                kinds.append(len(ints))
                ints.append(col)
            elif isinstance(col, ConstColumn):
                kinds.append(col)
            else:
                kinds.append(None)
                objs.append(col if isinstance(col, list) else list(col))
        block = np.empty((len(ints), n), dtype=np.int64)
        for r, col in enumerate(ints):
            block[r] = col
        return cls(n, block, _Layout(kinds), tuple(objs))

    @classmethod
    def from_block(cls, block: Array,
                   tail: typing.Sequence[ConstColumn] = ()
                   ) -> "ColumnPage":
        """Adopt a ready ``(k, n)`` C-contiguous int64 matrix, without
        copying, as tuple positions ``0..k-1``, followed by the
        constant columns ``tail`` (the Wisconsin shape)."""
        if (block.ndim != 2 or block.dtype != np.int64
                or not block.flags.c_contiguous):
            raise ValueError(
                "from_block needs a C-contiguous 2-D int64 array, got "
                f"{block.dtype} with shape {block.shape}")
        return cls(block.shape[1], block,
                   _Layout([*range(block.shape[0]), *tail]))

    @classmethod
    def from_rows(cls, rows: typing.Sequence[Row],
                  width: int | None = None) -> "ColumnPage":
        """Columnarize a tuple list (tests, conversion fallbacks)."""
        rows = rows if isinstance(rows, list) else list(rows)
        if not rows:
            return cls.from_columns([[] for _ in range(width or 0)], n=0)
        return cls.from_columns(
            [_build_column([row[j] for row in rows])
             for j in range(len(rows[0]))], n=len(rows))

    @staticmethod
    def concat(pages: typing.Sequence["ColumnPage"]) -> "ColumnPage":
        """Concatenate pages row-wise (multi-file scan sources)."""
        pages = [p for p in pages if p._n]
        if not pages:
            return ColumnPage.from_columns(())
        if len(pages) == 1:
            return pages[0]
        first = pages[0]
        layout = first._layout
        n = sum([p._n for p in pages])
        if not layout.obj_pos and all(
                [layout.matches(p._layout) for p in pages]):
            return ColumnPage(
                n, np.concatenate([p._block for p in pages], axis=1),
                layout)
        # Layouts differ (constant vs materialized strings, object
        # columns): merge position by position.
        for page in pages:
            if page.width != first.width:
                raise ValueError(
                    f"cannot concatenate a page of width {page.width} "
                    f"to one of width {first.width}")
        cols: list = []
        for j in range(first.width):
            kinds = [p._layout.kinds[j] for p in pages]
            if all(type(kind) is int for kind in kinds):
                cols.append(np.concatenate(
                    [p._block[kind] for p, kind in zip(pages, kinds)]))
            elif (all(type(kind) is ConstColumn for kind in kinds)
                  and all(kind.value == kinds[0].value for kind in kinds)):
                cols.append(kinds[0])
            else:
                merged: list = []
                for page in pages:
                    merged.extend(page.column_values(j))
                cols.append(merged)
        return ColumnPage.from_columns(cols, n=n)

    # -- Sequence protocol ---------------------------------------------------

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, item):
        if isinstance(item, slice):
            start, stop, step = item.indices(self._n)
            if step != 1:
                return self.take(list(range(start, stop, step)))
            return self.cut(start, stop if stop > start else start)
        i = item
        if i < 0:
            i += self._n
        if not 0 <= i < self._n:
            raise IndexError(f"row {item} out of range for {self._n}")
        values = self._block[:, i].tolist()
        layout = self._layout
        if layout.tail is not None:
            return tuple(values) + layout.tail
        objects = iter(self._objs)
        return tuple([
            values[kind] if type(kind) is int
            else (kind.value if kind is not None else next(objects)[i])
            for kind in layout.kinds])

    def __iter__(self) -> typing.Iterator[Row]:
        n = self._n
        layout = self._layout
        if not layout.width:
            return iter([()] * n)
        tail = layout.tail
        if tail is not None:
            return iter([tuple(row) + tail
                         for row in self._block.T.tolist()])
        ints = self._block.tolist()
        objects = iter(self._objs)
        return zip(*[
            ints[kind] if type(kind) is int
            else (itertools.repeat(kind.value, n) if kind is not None
                  else next(objects))
            for kind in layout.kinds])

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<ColumnPage n={self._n} width={self._layout.width}>"

    def __eq__(self, other: object) -> bool:
        """Row-value equality, like the tuple list it replaces.

        Pages are consequently unhashable (as lists are); identity
        caches key them by ``id()``.
        """
        if other is self:
            return True
        if isinstance(other, ColumnPage):
            if other._n != self._n or other.width != self.width:
                return False
            if self._layout.matches(other._layout):
                return (np.array_equal(self._block, other._block)
                        and self._objs == other._objs)
            return list(self) == list(other)
        if isinstance(other, (list, tuple)):
            return len(other) == self._n and list(self) == list(other)
        return NotImplemented

    # -- columnar access -----------------------------------------------------

    @property
    def width(self) -> int:
        return self._layout.width

    def column_array(self, index: int) -> Array | None:
        """The int64 ndarray of column ``index`` (a contiguous view of
        the page's matrix), or None when the column is not an integer
        array (strings, object columns)."""
        kind = self._layout.kinds[index]
        return self._block[kind] if type(kind) is int else None

    def column_values(self, index: int) -> list:
        """Column ``index`` as a list of Python values."""
        layout = self._layout
        kind = layout.kinds[index]
        if type(kind) is int:
            return self._block[kind].tolist()
        if kind is not None:
            return [kind.value] * self._n
        return list(self._objs[layout.obj_pos.index(
            index if index >= 0 else index + layout.width)])

    def cut(self, start: int, stop: int) -> "ColumnPage":
        """``self[start:stop]`` for ``0 <= start <= stop <= len(self)``,
        unchecked: the zero-copy view behind every slice, for callers
        that cut many packets and know their bounds.

        The hottest page operation (per-packet cuts, scan pages), so it
        bypasses ``__init__``; one 2-D slice cuts every integer column.
        """
        page = ColumnPage.__new__(ColumnPage)
        page._n = stop - start
        page._block = self._block[:, start:stop]
        page._layout = self._layout
        objs = self._objs
        page._objs = (tuple([col[start:stop] for col in objs])
                      if objs else objs)
        page._hash_cache = {}
        return page

    def take(self, indices) -> "ColumnPage":
        """Gather a row subset (``indices``: ndarray or int list)."""
        if not isinstance(indices, np.ndarray):
            indices = np.asarray(list(indices), dtype=np.intp)
        objs = self._objs
        if objs:
            idx_list = indices.tolist()
            objs = tuple([[col[i] for i in idx_list] for col in objs])
        return ColumnPage(len(indices), self._block.take(indices, axis=1),
                          self._layout, objs)

    def sort_order(self, key_index: int) -> Array | None:
        """Row order sorting by ``(row[key_index], row)``, or None when
        a column defies vectorized comparison.

        Matches ``sorted(rows, key=lambda r: (r[key_index], r))``
        exactly.  When the key column has no ties the row tiebreak
        never decides, so one stable ``argsort`` of the key is the
        order; otherwise ``np.lexsort`` compares the key column first,
        then the full row left to right.  Constant columns contribute
        equality at their position for every pair, so they are
        skipped; a plain ``list`` column (arbitrary objects) makes the
        order non-vectorizable and returns None.
        """
        primary = self.column_array(key_index)
        if primary is None or self._objs:
            return None
        order = np.argsort(primary, kind="stable")
        ranked = primary[order]
        if not (ranked[1:] == ranked[:-1]).any():
            return order
        # lexsort's last key is the most significant: block rows are in
        # ascending tuple position, so reversed they are the tiebreak.
        return np.lexsort([*self._block[::-1], primary])

    # -- join-key hash-column cache ------------------------------------------

    def cached_hashes(self, key_index: int, level: int, family: str
                      ) -> Array | None:
        """The cached uint64 hash array, or None."""
        return self._hash_cache.get((key_index, level, family))

    def store_hashes(self, key_index: int, level: int, family: str,
                     hash_array: Array) -> None:
        self._hash_cache[(key_index, level, family)] = hash_array


def take_rows(rows: typing.Sequence[Row],
              at: list[int]) -> typing.Sequence[Row]:
    """``[rows[i] for i in at]`` — one gather when ``rows`` is a
    :class:`ColumnPage`, so no unselected row is ever built."""
    if isinstance(rows, ColumnPage):
        return rows.take(at)
    return [rows[i] for i in at]


def _fits_block(col: Array) -> bool:
    """Can this ndarray column live in the int64 block unchanged?"""
    return col.dtype.kind in "iu" and np.can_cast(col.dtype, np.int64)


def _build_column(values: list):
    """Pick the densest faithful representation for one column."""
    if all(type(v) is int or isinstance(v, np.integer) for v in values):
        try:
            return np.array(values, dtype=np.int64)
        except OverflowError:
            return [int(v) for v in values]
    first = values[0]
    if all(v is first or v == first for v in values):
        return ConstColumn(first)
    return values
