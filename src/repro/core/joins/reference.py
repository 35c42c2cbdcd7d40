"""Reference join for verification.

A plain, single-"node" nested-loops join over the raw tuples of two
relations — no simulation, no partitioning, no memory limits.  Every
parallel algorithm must produce exactly this multiset of (inner ++
outer) result tuples; the property tests in
``tests/core/test_join_equivalence.py`` enforce it across random
relations, skew, memory ratios, configurations, and filter settings.
"""

from __future__ import annotations

import collections
import typing

from repro.catalog.pages import ColumnPage
from repro.catalog.relation import Relation

Row = typing.Tuple


def reference_join(outer: Relation, inner: Relation,
                   outer_attribute: str, inner_attribute: str,
                   outer_predicate: typing.Callable[[Row], bool]
                   | None = None,
                   inner_predicate: typing.Callable[[Row], bool]
                   | None = None) -> list[Row]:
    """All (inner ++ outer) result tuples of the (selected) equi-join.

    Implemented as a hash join on raw Python dictionaries for speed,
    which is semantically identical to nested loops for an equi-join.
    """
    inner_key = inner.schema.index_of(inner_attribute)
    outer_key = outer.schema.index_of(outer_attribute)
    by_value: dict[typing.Any, list[Row]] = collections.defaultdict(list)
    for row in inner.all_rows():
        if inner_predicate is None or inner_predicate(row):
            by_value[row[inner_key]].append(row)
    results: list[Row] = []
    for s_row in outer.all_rows():
        if outer_predicate is not None and not outer_predicate(s_row):
            continue
        for r_row in by_value.get(s_row[outer_key], ()):
            results.append(r_row + s_row)
    return results


def reference_join_cardinality(outer: Relation, inner: Relation,
                               outer_attribute: str,
                               inner_attribute: str) -> int:
    """``len(reference_join(outer, inner, outer_attribute,
    inner_attribute))``, counted without building a row.

    An equi-join yields ``count_outer(k) * count_inner(k)`` rows per
    key ``k``, so one count of the inner keys and one pass over the
    outer keys give the cardinality in memory proportional to the
    inner relation's distinct keys.
    """
    inner_counts = collections.Counter(
        _key_values(inner, inner.schema.index_of(inner_attribute)))
    return sum(inner_counts.get(key, 0) for key in _key_values(
        outer, outer.schema.index_of(outer_attribute)))


def _key_values(relation: Relation, index: int
                ) -> typing.Iterator[typing.Any]:
    """One column's values in fragment order, a fragment at a time."""
    for fragment in relation.fragments:
        if isinstance(fragment, ColumnPage):
            yield from fragment.column_values(index)
        else:
            for row in fragment:
                yield row[index]


def result_multiset(rows: typing.Iterable[Row]
                    ) -> "collections.Counter[Row]":
    """Order-insensitive representation of a join result."""
    return collections.Counter(rows)


def assert_same_result(actual: typing.Iterable[Row],
                       expected: typing.Iterable[Row]) -> None:
    """Raise ``AssertionError`` with a useful diff on any mismatch."""
    actual_counts = result_multiset(actual)
    expected_counts = result_multiset(expected)
    if actual_counts == expected_counts:
        return
    missing = expected_counts - actual_counts
    extra = actual_counts - expected_counts
    raise AssertionError(
        f"join results differ: {sum(missing.values())} missing, "
        f"{sum(extra.values())} unexpected; first missing: "
        f"{next(iter(missing), None)!r}; first unexpected: "
        f"{next(iter(extra), None)!r}")
