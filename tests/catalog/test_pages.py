"""``ColumnPage`` against a plain ``list[tuple]`` oracle.

The page promises to be a drop-in ``Sequence[Row]``; these hypothesis
properties hold every public operation to the tuple list it replaces,
over every column layout the constructors accept: integer columns
only, the Wisconsin shape (integer prefix + constant suffix),
constants between integers, per-row object columns, zero rows and
zero width.  A structural test pins the one-block storage: all integer
columns of a page and of any slice of it are views of one buffer.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog.pages import ColumnPage, ConstColumn

INT64_MIN, INT64_MAX = -2**63, 2**63 - 1

#: Small values (duplicate sort keys, ties broken by later columns)
#: mixed with the extremes of the int64 range.
int_values = st.one_of(
    st.integers(-3, 3), st.integers(INT64_MIN, INT64_MAX))
obj_values = st.text(alphabet="abc", max_size=2)

layouts = st.one_of(
    st.lists(st.just("int"), min_size=1, max_size=5),
    st.builds(lambda k, c: ["int"] * k + ["const"] * c,
              st.integers(1, 5), st.integers(1, 3)),
    st.just(["int", "const", "int", "const", "int"]),
    st.just(["const", "int", "obj", "int"]),
    st.just([]),
    st.lists(st.sampled_from(["int", "const", "obj"]), max_size=6),
)


@st.composite
def pages(draw, layout=None, min_rows=0):
    """A ``(page, oracle rows)`` pair built column by column, so the
    drawn layout is the layout under test."""
    kinds = draw(layouts) if layout is None else layout
    n = draw(st.integers(min_rows, 12))
    cols, values = [], []
    for j, kind in enumerate(kinds):
        if kind == "int":
            column = draw(st.lists(int_values, min_size=n, max_size=n))
            cols.append(np.array(column, dtype=np.int64))
        elif kind == "const":
            column = [f"c{j}"] * n
            cols.append(ConstColumn(f"c{j}"))
        else:
            column = draw(st.lists(obj_values, min_size=n, max_size=n))
            cols.append(list(column))
        values.append(column)
    page = ColumnPage.from_columns(cols, n=n)
    oracle = list(zip(*values)) if kinds else [()] * n
    return page, oracle


def assert_plain_values(rows):
    for row in rows:
        assert type(row) is tuple
        for value in row:
            assert type(value) in (int, str)


def slices(n):
    bound = st.one_of(st.none(), st.integers(-n - 2, n + 2))
    step = st.one_of(st.none(), st.integers(-3, 3).filter(bool))
    return st.builds(slice, bound, bound, step)


class TestSequenceModel:
    @given(pages())
    @settings(max_examples=150, deadline=None)
    def test_len_index_iteration(self, pair):
        page, oracle = pair
        n = len(oracle)
        assert len(page) == n
        assert page.width == (len(oracle[0]) if oracle else page.width)
        assert list(page) == oracle
        assert_plain_values(list(page))
        for i in range(-n - 2, n + 2):
            if -n <= i < n:
                assert page[i] == oracle[i]
                assert_plain_values([page[i]])
            else:
                with pytest.raises(IndexError):
                    page[i]
        for j in range(-page.width, page.width):
            column = page.column_values(j)
            assert column == [row[j] for row in oracle]
            assert all(type(v) in (int, str) for v in column)
            array = page.column_array(j)
            if array is not None:
                assert array.dtype == np.int64
                assert array.tolist() == column

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_slices_and_slices_of_slices(self, data):
        page, oracle = data.draw(pages())
        first = data.draw(slices(len(oracle)))
        cut, expected = page[first], oracle[first]
        assert isinstance(cut, ColumnPage)
        assert cut.width == page.width
        assert len(cut) == len(expected)
        assert list(cut) == expected
        second = data.draw(slices(len(expected)))
        assert list(cut[second]) == expected[second]
        assert_plain_values(list(cut[second]))

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_cut_is_the_unit_step_slice(self, data):
        page, oracle = data.draw(pages())
        start = data.draw(st.integers(0, len(oracle)))
        stop = data.draw(st.integers(start, len(oracle)))
        cut = page.cut(start, stop)
        assert len(cut) == stop - start
        assert cut.width == page.width
        assert list(cut) == oracle[start:stop]
        assert cut == page[start:stop]

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_take(self, data):
        page, oracle = data.draw(pages())
        n = len(oracle)
        indices = (data.draw(st.lists(st.integers(0, n - 1), max_size=15))
                   if n else [])
        expected = [oracle[i] for i in indices]
        for form in (indices, np.array(indices, dtype=np.intp),
                     iter(indices)):
            taken = page.take(form)
            assert len(taken) == len(expected)
            assert taken.width == page.width
            assert list(taken) == expected
        assert list(page.take([])) == []

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_concat_same_layout(self, data):
        page, oracle = data.draw(pages())
        n = len(oracle)
        cuts = sorted(data.draw(st.lists(st.integers(0, n), max_size=4)))
        bounds = [0, *cuts, n]
        parts = [page[a:b] for a, b in zip(bounds, bounds[1:])]
        whole = ColumnPage.concat(parts)
        assert list(whole) == oracle
        assert_plain_values(list(whole))

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_concat_mixed_layouts(self, data):
        width = data.draw(st.integers(1, 5))
        kinds = st.lists(st.sampled_from(["int", "const", "obj"]),
                         min_size=width, max_size=width)
        pairs = [data.draw(pages(layout=data.draw(kinds), min_rows=1))
                 for _ in range(data.draw(st.integers(2, 3)))]
        whole = ColumnPage.concat([page for page, _ in pairs])
        expected = [row for _, oracle in pairs for row in oracle]
        assert list(whole) == expected
        assert whole == expected
        assert_plain_values(list(whole))

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_sort_order(self, data):
        kinds = data.draw(layouts.filter(bool))
        page, oracle = data.draw(pages(layout=kinds))
        key = data.draw(st.integers(0, len(kinds) - 1))
        order = page.sort_order(key)
        # Only a non-integer key or an object column may decline.
        assert (order is None) == (kinds[key] != "int" or "obj" in kinds)
        if order is not None:
            expected = sorted(oracle, key=lambda row: (row[key], row))
            assert [oracle[i] for i in order.tolist()] == expected
            assert list(page.take(order)) == expected

    @given(st.data(), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_sort_order_distinct_and_tied_keys(self, data, tied):
        """A tie-free key column sorts by one argsort, never reaching
        ``np.lexsort``; a key with ties takes the lexsort.  Both orders
        are the tuple list's ``(key, row)`` sort."""
        from unittest import mock
        width = data.draw(st.integers(1, 4))
        key = data.draw(st.integers(0, width - 1))
        n = data.draw(st.integers(2, 20))
        columns = [data.draw(st.lists(st.integers(-3, 3), min_size=n,
                                      max_size=n))
                   for _ in range(width)]
        keys = data.draw(st.lists(int_values, min_size=n, max_size=n,
                                  unique=True))
        if tied:
            i, j = data.draw(st.lists(st.integers(0, n - 1), min_size=2,
                                      max_size=2, unique=True))
            keys[j] = keys[i]
        columns[key] = keys
        page = ColumnPage.from_columns(
            [np.array(col, dtype=np.int64) for col in columns]
            + [ConstColumn("c")], n=n)
        oracle = [(*row, "c") for row in zip(*columns)]
        with mock.patch.object(np, "lexsort", wraps=np.lexsort) as lexsort:
            order = page.sort_order(key)
        assert lexsort.called == tied
        expected = sorted(oracle, key=lambda row: (row[key], row))
        assert [oracle[i] for i in order.tolist()] == expected

    @given(pages())
    @settings(max_examples=100, deadline=None)
    def test_equality(self, pair):
        page, oracle = pair
        assert page == oracle
        assert page == tuple(oracle)
        assert page == page[:]
        if page.width:
            # from_rows may pick another layout for the same rows.
            assert page == ColumnPage.from_rows(oracle, width=page.width)
        assert not (page == oracle + [oracle[0] if oracle else ()])
        if oracle and page.width:
            changed = list(oracle)
            changed[-1] = changed[-1][:-1] + ("other",)
            assert not (page == changed)
            assert not (page == ColumnPage.from_rows(changed))
        assert page != object()


class TestOneBlock:
    """All integer columns are rows of one matrix, shared with slices."""

    @staticmethod
    def _owner(array):
        while array.base is not None:
            array = array.base
        return array

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_columns_and_slices_view_one_buffer(self, data):
        page, oracle = data.draw(pages(min_rows=1))
        columns = [page.column_array(j) for j in range(page.width)]
        columns = [c for c in columns if c is not None]
        if not columns:
            return
        owner = self._owner(columns[0])
        for column in columns:
            assert self._owner(column) is owner
            assert column.flags.c_contiguous
        n = len(oracle)
        a = data.draw(st.integers(0, n - 1))
        b = data.draw(st.integers(a + 1, n))
        cut = page[a:b]
        for j in range(page.width):
            column = cut.column_array(j)
            if column is not None:
                assert self._owner(column) is owner
                assert column.flags.c_contiguous
                assert np.shares_memory(column, page.column_array(j))

    def test_from_block_adopts_without_copy(self):
        block = np.arange(12, dtype=np.int64).reshape(3, 4)
        page = ColumnPage.from_block(block, (ConstColumn(""),) * 2)
        assert page[1] == (1, 5, 9, "", "")
        assert np.shares_memory(page.column_array(2), block)
        with pytest.raises(ValueError):
            ColumnPage.from_block(block.T)
        with pytest.raises(ValueError):
            ColumnPage.from_block(block.astype(np.int32))

    def test_slice_hash_cache_starts_empty(self):
        page = ColumnPage.from_rows([(i, "") for i in range(6)])
        page.store_hashes(0, 0, "avalanche", np.arange(6))
        assert page.cached_hashes(0, 0, "avalanche") is not None
        assert page[1:4].cached_hashes(0, 0, "avalanche") is None
        assert page.cut(1, 4).cached_hashes(0, 0, "avalanche") is None
        assert page[:].cached_hashes(0, 0, "avalanche") is None
        assert page.take([0, 1]).cached_hashes(0, 0, "avalanche") is None


class TestConstruction:
    def test_numpy_integers_fold_into_the_block(self):
        page = ColumnPage.from_rows([(np.int64(1), 2), (np.int32(3), 4)])
        assert page.column_array(0) is not None
        assert page[0] == (1, 2)
        assert_plain_values(list(page))
        assert_plain_values([page[0], page[-1]])

    def test_bools_and_huge_ints_stay_object_columns(self):
        page = ColumnPage.from_rows(
            [(True, 2**70, 1), (False, -2**70, 2)])
        assert page.column_array(0) is None
        assert page.column_array(1) is None
        assert page.column_array(2) is not None
        assert page[0] == (True, 2**70, 1)
        assert type(page[0][0]) is bool
        assert page.column_values(1) == [2**70, -2**70]
        assert page.sort_order(2) is None

    def test_non_int64_arrays(self):
        page = ColumnPage.from_columns(
            [np.array([1, 2], dtype=np.int32),
             np.array([2**63, 1], dtype=np.uint64),
             np.array([0.5, 1.5])])
        assert page.column_array(0).dtype == np.int64
        assert page.column_array(1) is None
        assert list(page) == [(1, 2**63, 0.5), (2, 1, 1.5)]

    def test_column_length_mismatch(self):
        with pytest.raises(ValueError, match="column length 1 != page"):
            ColumnPage.from_columns([np.arange(2), [1]])

    def test_concat_width_mismatch_names_both_widths(self):
        narrow = ColumnPage.from_rows([(1, 2)])
        wide = ColumnPage.from_rows([(1, 2, 3)])
        with pytest.raises(ValueError, match=r"width 3 .* width 2"):
            ColumnPage.concat([narrow, wide])
        with pytest.raises(ValueError, match=r"width 2 .* width 3"):
            ColumnPage.concat([wide, narrow])

    def test_concat_of_nothing_and_of_one(self):
        assert list(ColumnPage.concat([])) == []
        page = ColumnPage.from_rows([(1, "")])
        assert ColumnPage.concat([page[:0], page]) is page

    def test_concat_constant_meets_materialized_strings(self):
        constant = ColumnPage.from_rows([(1, ""), (2, "")])
        strings = ColumnPage.from_rows([(3, "x"), (4, "y")])
        other = ColumnPage.from_rows([(5, "z"), (6, "z")])
        whole = ColumnPage.concat([constant, strings, other])
        assert list(whole) == [(1, ""), (2, ""), (3, "x"), (4, "y"),
                               (5, "z"), (6, "z")]
        assert whole.column_array(0).tolist() == [1, 2, 3, 4, 5, 6]
