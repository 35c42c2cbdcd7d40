"""How long temp data lives.

A spooled file is read back once (§3), so it — and the gathered pages
its runs point into — must be freed right after that read: a Grace or
Hybrid bucket's files before the next bucket's round, an overflow
round's R'/S' files before the next overflow round, a sort-merge
partition file once it is sorted.  These tests hold weak references and
look after a full collection; the last one bounds the traced peak of a
whole sort-merge join against the size of its inputs.
"""

from __future__ import annotations

import gc
import tracemalloc
import weakref

import pytest

from repro.catalog.pages import ColumnPage
from repro.core.joins import common, grace, hybrid
from repro.core.joins.common import run_round
from repro.core.joins.sort_merge import SortMergeJoin
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_sweep_point
from repro.storage.files import PagedFile
from repro.wisconsin.database import WisconsinDatabase

SCALE = 0.05


def modern_config(scale: float) -> ExperimentConfig:
    return ExperimentConfig(scale=scale, seed=3, num_disk_nodes=8,
                            hardware_profile="modern-2018",
                            topology="fabric")


@pytest.fixture(scope="module")
def db() -> WisconsinDatabase:
    return WisconsinDatabase.joinabprime(8, scale=SCALE, seed=3,
                                         hpja=False)


def file_refs(files) -> list:
    """Weak references to ``files`` and to the row blocks of the pages
    their runs point into (the route plans' gathered pages)."""
    refs = []
    for file in files:
        refs.append(weakref.ref(file))
        for page, _lo, _hi in file._parts or ():
            refs.append(weakref.ref(page._block))
    return refs


def alive(refs: list) -> int:
    gc.collect()
    return sum(ref() is not None for ref in refs)


@pytest.mark.parametrize("module", [grace, hybrid],
                         ids=["grace", "hybrid"])
def test_bucket_files_die_before_the_next_round(monkeypatch, db, module):
    rounds: list[tuple[str, list]] = []

    def watched(driver, r_sources, s_sources, **kwargs):
        # A plain function: its frame is gone before the round runs.
        for label, refs in rounds:
            assert not alive(refs), (
                f"{label}'s files outlived it into {kwargs['label']}")
        rounds.append((kwargs["label"], file_refs(
            [file for source in [*r_sources, *s_sources]
             for file in source.files])))
        return run_round(driver, r_sources, s_sources, **kwargs)

    monkeypatch.setattr(module, "run_round", watched)
    point = run_sweep_point(modern_config(SCALE), db,
                            module.__name__.rsplit(".", 1)[1], 0.25)
    assert point.result.result_tuples == db.inner.cardinality
    assert len(rounds) >= 3
    assert all(len(refs) > 16 for _label, refs in rounds)
    assert not alive([ref for _label, refs in rounds for ref in refs])


def test_overflow_files_die_before_the_next_overflow_round(monkeypatch,
                                                          db):
    """Simple's repeated overflow passes: a round's R'/S' inputs are
    gone once it has probed, before the recursion it starts runs."""
    rounds: list[tuple[str, list]] = []
    run = common.run_round

    def watched(driver, r_sources, s_sources, level, depth, label,
                **kwargs):
        for before, refs in rounds:
            assert not alive(refs), f"{before}'s inputs outlived it"
        rounds.append((label, file_refs(
            [file for source in [*r_sources, *s_sources]
             for file in source.files])))
        return run(driver, r_sources, s_sources, level, depth, label,
                   **kwargs)

    monkeypatch.setattr(common, "run_round", watched)
    point = run_sweep_point(modern_config(SCALE), db, "simple", 0.25)
    assert point.result.result_tuples == db.inner.cardinality
    assert len(rounds) >= 2
    assert all(refs for _label, refs in rounds)


def test_sort_merge_partition_files_die_before_the_merge(monkeypatch, db):
    refs: list = []
    partition = SortMergeJoin._partition
    merge_join = SortMergeJoin._merge_join

    def watched_partition(self, *args, **kwargs):
        files = yield from partition(self, *args, **kwargs)
        refs.extend(file_refs(files))
        return files

    def watched_merge(self, sorted_r, sorted_s):
        assert len(refs) > 16
        assert not alive(refs), "a partition file outlived its sort"
        return merge_join(self, sorted_r, sorted_s)

    monkeypatch.setattr(SortMergeJoin, "_partition", watched_partition)
    monkeypatch.setattr(SortMergeJoin, "_merge_join", watched_merge)
    point = run_sweep_point(modern_config(SCALE), db, "sort-merge", 0.25)
    assert point.result.result_tuples == db.inner.cardinality


def test_rows_keeps_one_copy():
    """Reading a file's rows swaps its runs for their concatenation."""
    first = ColumnPage.from_rows([(i, 2 * i) for i in range(10)])
    second = ColumnPage.from_rows([(i, -i) for i in range(10, 16)])
    file = PagedFile("f", 16, 64)
    file.extend(first, None, 0, 4)
    file.extend(second, None, 2, 6)
    file.extend(first, None, 6, 9)
    rows = file.rows
    assert list(rows) == [*first[0:4], *second[2:6], *first[6:9]]
    assert len(file._parts) == 1
    assert file._parts[0][0] is rows
    assert file.rows is rows
    assert file.runs()[0] == rows
    assert file.num_tuples == len(rows) == 11


def traced_peak(algorithm: str) -> float:
    """The traced peak of one join over the modern-2018 database at
    scale 0.1 (caches warmed by a first run), in multiples of its input
    blocks."""
    scale = 0.1
    db = WisconsinDatabase.joinabprime(8, scale=scale, seed=3,
                                       hpja=False)
    config = modern_config(scale)
    block_bytes = sum(fragment._block.nbytes
                      for relation in (db.inner, db.outer)
                      for fragment in relation.fragments)
    run_sweep_point(config, db, algorithm, 0.25)  # warm caches
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        run_sweep_point(config, db, algorithm, 0.25)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return peak / block_bytes


def test_sort_merge_traced_peak_is_bounded_by_its_inputs():
    """A sort-merge join holds about one copy of its inputs at a time:
    the sorted rows replace the partition files, which replace the
    route plans' gathered pages.  Three copies alive together (gathered
    pages, file concatenations, sorted rows) trace near 4x."""
    ratio = traced_peak("sort-merge")
    assert ratio < 2.5, f"traced peak {ratio:.2f}x the input blocks"


def test_hybrid_traced_peak_is_bounded_by_its_inputs():
    """A Hybrid join's peak is the end of bucket forming: the outer
    relation's spooled buckets, their hash sidecars (uint64 arrays, 8
    bytes a row) and the build side's arena, with its output stored as
    int32 pages.  Row tuples or int sidecars on that path trace near
    3.5x."""
    ratio = traced_peak("hybrid")
    assert ratio < 3.2, f"traced peak {ratio:.2f}x the input blocks"
