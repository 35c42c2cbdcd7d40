"""Tests for PagedFile accounting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog.pages import ColumnPage, ConstColumn
from repro.storage import PagedFile


def make(tuple_bytes=208, page_size=8192):
    return PagedFile("f", tuple_bytes, page_size)


class TestAppend:
    def test_page_boundary_signalled(self):
        file = make(tuple_bytes=2048, page_size=8192)  # 4 per page
        signals = [file.append((i,)) for i in range(9)]
        assert signals == [False, False, False, True,
                           False, False, False, True, False]

    def test_extend_counts_pages(self):
        file = make(tuple_bytes=4096, page_size=8192)  # 2 per page
        assert file.extend([(i,) for i in range(5)]) == 2
        assert file.num_tuples == 5
        assert file.num_pages == 3

    def test_close_returns_trailing_page(self):
        file = make(tuple_bytes=4096, page_size=8192)
        file.extend([(1,), (2,), (3,)])
        assert file.close() == 1

    def test_close_no_trailing_when_exact(self):
        file = make(tuple_bytes=4096, page_size=8192)
        file.extend([(1,), (2,)])
        assert file.close() == 0

    def test_close_empty(self):
        file = make()
        assert file.close() == 0

    def test_append_after_close_rejected(self):
        file = make()
        file.close()
        with pytest.raises(RuntimeError, match="closed"):
            file.append((1,))

    def test_double_close_rejected(self):
        file = make()
        file.close()
        with pytest.raises(RuntimeError, match="double close"):
            file.close()


class TestArithmetic:
    def test_wisconsin_page_capacity(self):
        assert make().tuples_per_page == 39

    def test_total_bytes(self):
        file = make(tuple_bytes=100)
        file.extend([(i,) for i in range(7)])
        assert file.total_bytes == 700

    def test_is_empty(self):
        file = make()
        assert file.is_empty
        file.append((1,))
        assert not file.is_empty

    def test_pages_iteration_preserves_order(self):
        file = make(tuple_bytes=4000, page_size=8192)  # 2 per page
        data = [(i,) for i in range(5)]
        file.extend(data)
        pages = list(file.pages())
        assert [len(p) for p in pages] == [2, 2, 1]
        assert [row for page in pages for row in page] == data

    def test_validation(self):
        with pytest.raises(ValueError):
            PagedFile("f", 0, 8192)
        with pytest.raises(ValueError):
            PagedFile("f", 100, 0)


@given(n=st.integers(min_value=0, max_value=500),
       tuple_bytes=st.integers(min_value=1, max_value=3000))
@settings(max_examples=80, deadline=None)
def test_page_signal_count_matches_arithmetic(n, tuple_bytes):
    """Completed-page signals + the trailing close page always equal
    ceil(n / tuples_per_page)."""
    file = PagedFile("f", tuple_bytes, 8192)
    completed = file.extend([(i,) for i in range(n)])
    trailing = file.close()
    assert completed + trailing == file.num_pages
    expected = -(-n // file.tuples_per_page) if n else 0
    assert file.num_pages == expected


# ---------------------------------------------------------------------------
# Runs: packets arrive as (page, lo, hi) runs of their route plan's page
# ---------------------------------------------------------------------------

def wisconsin_page(n, first=0):
    keys = np.arange(first, first + n, dtype=np.int64)
    return ColumnPage.from_columns([keys, keys * 7 % 13, ConstColumn("")])


def tagged(tuple_bytes):
    return PagedFile("f", tuple_bytes, 8192, hash_tag=(0, "avalanche"))


@given(n=st.integers(0, 80), cuts=st.lists(st.integers(0, 80),
                                           max_size=12),
       tuple_bytes=st.sampled_from([208, 1000, 2048, 8192]))
@settings(max_examples=100, deadline=None)
def test_runs_read_back_as_cut_pages(n, cuts, tuple_bytes):
    """A random split of one page appended as runs reads back the same
    rows, hash sidecar and completed-page counts as the same split
    appended as cut pages — and runs that continue each other stay one
    part."""
    page = wisconsin_page(n)
    hashes = list(range(1000, 1000 + n))
    bounds = sorted({0, n, *(c % (n + 1) for c in cuts)})
    spans = list(zip(bounds, bounds[1:]))
    by_run, by_cut = tagged(tuple_bytes), tagged(tuple_bytes)
    completed_runs = [by_run.extend(page, hashes[lo:hi], lo, hi)
                      for lo, hi in spans]
    completed_cuts = [by_cut.extend(page.cut(lo, hi), hashes[lo:hi])
                      for lo, hi in spans]
    assert completed_runs == completed_cuts
    assert list(by_run.rows) == list(by_cut.rows) == list(page)
    assert by_run.stored_hashes(0, "avalanche") == hashes
    assert by_cut.stored_hashes(0, "avalanche") == hashes
    assert by_run.num_pages == by_cut.num_pages
    assert by_run.close() == by_cut.close()
    if spans:
        assert by_run._parts == [[page, 0, n]]
        assert by_run.rows is page  # one whole-page part: no copy


@given(steps=st.lists(st.tuples(st.booleans(), st.integers(0, 30),
                                st.integers(1, 9), st.booleans()),
                      min_size=1, max_size=20))
@settings(max_examples=100, deadline=None)
def test_gap_or_other_page_starts_a_part(steps):
    """Runs of two pages, interleaved, with and without gaps: a run
    extends the last part only when it continues that part's run of
    the same page."""
    pages = [wisconsin_page(40), wisconsin_page(40, first=100)]
    file = tagged(208)
    reference = tagged(208)
    expected_parts = []
    next_lo = [0, 0]
    for which, skip, length, gap in steps:
        page = pages[which]
        lo = next_lo[which] + (skip % 3 if gap else 0)
        hi = min(lo + length, len(page))
        if lo >= hi:
            continue
        next_lo[which] = hi
        hashes = list(range(lo, hi))
        assert (file.extend(page, hashes, lo, hi)
                == reference.extend(page.cut(lo, hi), hashes))
        last = expected_parts[-1] if expected_parts else None
        if last is not None and last[0] is page and last[2] == lo:
            last[2] = hi
        else:
            expected_parts.append([page, lo, hi])
    assert file._parts == (expected_parts or None)
    assert list(file.rows) == list(reference.rows)
    assert file.hashes == reference.hashes
    assert file.num_tuples == reference.num_tuples


def test_run_into_tuple_list_file_is_cut():
    """A file already holding tuple lists takes a run row-wise."""
    file = make(tuple_bytes=208)
    file.extend([(0, 0, "")])
    page = wisconsin_page(5)
    file.extend(page, None, 1, 3)
    assert list(file.rows) == [(0, 0, "")] + list(page.cut(1, 3))
