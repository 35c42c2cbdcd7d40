"""The WiSS sort utility: external merge-sort planning.

The parallel sort-merge join sorts each node's relation fragment with
an external merge sort whose memory budget is the experiment's
available-memory setting (§4: "For the sort-merge join algorithm, this
memory is used for both sorting and merging").  Two of the paper's
observations fall directly out of the pass arithmetic implemented
here:

* the **upward steps** in the sort-merge response-time curves are the
  points where shrinking memory adds a merge pass over the larger
  relation;
* the small **dip between ratios 0.5 and 0.25** happens where the pass
  count is constant while the merge fan-in shrinks — fewer sort
  buffers mean cheaper per-tuple merging ("adding additional sort
  buffers really just adds processing overhead").

:func:`plan_external_sort` does the arithmetic; the timed execution
(charging the plan's I/O to a disk and its CPU to a node) is driven by
the sort-merge join in :mod:`repro.core.joins.sort_merge`.  The actual
reordering of tuples is done with Python's sort so the logical output
is exact.
"""

from __future__ import annotations

import dataclasses
import math
import typing

from repro.catalog.pages import ColumnPage
from repro.costs import CostModel

Row = typing.Tuple

#: Minimum buffer pages an external sort needs (two inputs + one output).
MIN_SORT_PAGES = 3


@dataclasses.dataclass(frozen=True)
class SortPlan:
    """The I/O and CPU profile of one external sort."""

    n_tuples: int
    input_pages: int
    memory_pages: int
    #: Sorted runs produced by run formation.
    initial_runs: int
    #: Merge fan-in (memory_pages - 1 input buffers, 1 output buffer).
    fan_in: int
    #: Full read+write passes over the data *after* run formation.
    merge_passes: int

    @property
    def total_passes(self) -> int:
        """Run formation plus merge passes (each reads + writes all)."""
        return 1 + self.merge_passes

    @property
    def pages_read(self) -> int:
        return self.input_pages * self.total_passes

    @property
    def pages_written(self) -> int:
        return self.input_pages * self.total_passes

    def cpu_seconds(self, costs: CostModel) -> float:
        """Total single-node CPU time to execute the plan.

        Run formation sorts ``memory_pages``-sized loads
        (``n log2 n`` comparisons); each merge pass plays a loser tree
        of the fan-in (``log2 fan_in`` comparisons per tuple) plus
        fixed per-tuple shuffle overhead.
        """
        if self.n_tuples == 0:
            return 0.0
        run_tuples = max(2, math.ceil(self.n_tuples / self.initial_runs))
        run_cost = self.n_tuples * (
            costs.sort_tuple_overhead
            + costs.sort_compare * math.ceil(math.log2(run_tuples)))
        merge_cost = self.merge_passes * self.n_tuples * (
            costs.sort_tuple_overhead
            + costs.sort_compare * max(1, math.ceil(math.log2(self.fan_in))))
        return run_cost + merge_cost


def plan_external_sort(n_tuples: int, tuple_bytes: int, memory_bytes: int,
                       costs: CostModel) -> SortPlan:
    """Plan an external merge sort of ``n_tuples`` within
    ``memory_bytes`` of sort space.

    The plan never uses fewer than :data:`MIN_SORT_PAGES` buffer pages:
    like WiSS, the sort utility requires a minimal working set even if
    the experiment's memory dial is lower.
    """
    if n_tuples < 0:
        raise ValueError(f"n_tuples must be >= 0, got {n_tuples}")
    tuples_per_page = max(1, costs.page_size // tuple_bytes)
    input_pages = math.ceil(n_tuples / tuples_per_page) if n_tuples else 0
    memory_pages = max(MIN_SORT_PAGES, memory_bytes // costs.page_size)
    if input_pages == 0:
        return SortPlan(n_tuples=0, input_pages=0,
                        memory_pages=memory_pages, initial_runs=0,
                        fan_in=max(2, memory_pages - 1), merge_passes=0)
    initial_runs = math.ceil(input_pages / memory_pages)
    fan_in = max(2, memory_pages - 1)
    if initial_runs <= 1:
        merge_passes = 0
    else:
        merge_passes = math.ceil(math.log(initial_runs, fan_in))
    return SortPlan(n_tuples=n_tuples, input_pages=input_pages,
                    memory_pages=memory_pages, initial_runs=initial_runs,
                    fan_in=fan_in, merge_passes=merge_passes)


def sort_rows(rows: typing.Sequence[Row],
              key_index: int) -> typing.Sequence[Row]:
    """The logical result of the sort: rows ordered by one attribute.

    Ties are broken by full-row comparison purely for determinism —
    a stable, reproducible order keeps every simulation replayable.
    A :class:`~repro.catalog.pages.ColumnPage` input sorts columnar
    (:meth:`~repro.catalog.pages.ColumnPage.sort_order`: one argsort of
    a tie-free key, else ``np.lexsort`` over the same comparison keys)
    and stays a page; anything else returns the classic sorted tuple
    list.
    """
    if isinstance(rows, ColumnPage):
        order = rows.sort_order(key_index)
        if order is not None:
            return rows.take(order)
    return sorted(rows, key=lambda row: (row[key_index], row))
