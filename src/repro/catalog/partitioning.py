"""Gamma's four tuple-distribution policies (§2.2 of the paper).

When a relation is loaded, every tuple is assigned a storage site by
one of four strategies:

* :class:`RoundRobinPartitioning` — tuples dealt to sites in rotation.
* :class:`HashPartitioning` — a randomizing function applied to the
  declared "key" attribute selects the site.  This is the policy that
  enables HPJA joins (§4.1).
* :class:`RangeKeyPartitioning` — the user specifies the key range
  stored at each site.
* :class:`RangeUniformPartitioning` — the user names the attribute and
  the *system* picks range boundaries that spread the tuples uniformly
  (used by the paper's §4.4 skew experiments so every disk holds the
  same tuple count despite non-uniform values).

A strategy is consulted once per tuple at load time via
:meth:`PartitioningStrategy.site_of`; stateful strategies (round-robin)
are reset by the loader through :meth:`begin_load`.
"""

from __future__ import annotations

import bisect
import typing

import numpy as np

from repro import hashing
from repro.catalog.pages import ColumnPage
from repro.catalog.schema import Schema

Row = typing.Tuple
#: numpy arrays are opaque to the type checker (no bundled stubs).
Array = typing.Any


class PartitioningStrategy:
    """Interface for the four distribution policies."""

    #: Name of the partitioning ("key") attribute, or None (round-robin).
    attribute: str | None = None

    def begin_load(self, schema: Schema, rows: typing.Sequence[Row],
                   num_sites: int) -> None:
        """Hook called by the loader before distribution starts.

        Receives the full row set so range-uniform partitioning can
        compute balanced boundaries, mirroring how Gamma's loader
        samples the input.
        """

    def site_of(self, row: Row, schema: Schema, num_sites: int) -> int:
        """Storage site in ``[0, num_sites)`` for ``row``."""
        raise NotImplementedError

    def sites_of(self, page: ColumnPage, schema: Schema,
                 num_sites: int) -> Array | None:
        """Whole-page site assignment, bit-identical to calling
        :meth:`site_of` row by row (including any per-call state
        advancement), or None when this strategy/column cannot be
        vectorized — the loader then falls back to the scalar path.
        """
        return None

    def describe(self) -> str:
        raise NotImplementedError


class RoundRobinPartitioning(PartitioningStrategy):
    """Deal tuples to sites 0, 1, ..., n-1, 0, 1, ... in load order."""

    def __init__(self) -> None:
        self._next = 0

    def begin_load(self, schema: Schema, rows: typing.Sequence[Row],
                   num_sites: int) -> None:
        self._next = 0

    def site_of(self, row: Row, schema: Schema, num_sites: int) -> int:
        site = self._next
        self._next = (self._next + 1) % num_sites
        return site

    def sites_of(self, page: ColumnPage, schema: Schema,
                 num_sites: int) -> Array:
        n = len(page)
        sites = (self._next + np.arange(n, dtype=np.int64)) % num_sites
        self._next = (self._next + n) % num_sites
        return sites

    def describe(self) -> str:
        return "round-robin"


class HashPartitioning(PartitioningStrategy):
    """Randomizing function on the key attribute selects the site."""

    def __init__(self, attribute: str) -> None:
        self.attribute = attribute
        self._index: int | None = None

    def begin_load(self, schema: Schema, rows: typing.Sequence[Row],
                   num_sites: int) -> None:
        self._index = schema.index_of(self.attribute)

    def site_of(self, row: Row, schema: Schema, num_sites: int) -> int:
        index = (schema.index_of(self.attribute)
                 if self._index is None else self._index)
        return hashing.hash_value(row[index]) % num_sites

    def sites_of(self, page: ColumnPage, schema: Schema,
                 num_sites: int) -> Array | None:
        column = page.column_array(schema.index_of(self.attribute))
        if column is None:
            return None  # non-integer key column: scalar fallback
        # (v * mult) & MASK in uint64 wraps modulo 2**64, congruent
        # modulo 2**32 to hashing.hash_int for any 64-bit key (the
        # repro.core.kernels.hash_keys parity argument); an int32
        # column sign-extends to uint64 before the multiply.
        mult = np.uint64(hashing.level_multiplier(0))
        mask = np.uint64(hashing.HASH_MODULUS - 1)
        hashes = (column.astype(np.uint64) * mult) & mask
        return (hashes % np.uint64(num_sites)).astype(np.int64)

    def describe(self) -> str:
        return f"hashed({self.attribute})"


class RangeKeyPartitioning(PartitioningStrategy):
    """User-specified placement by key value.

    ``boundaries`` are the *upper bounds* (exclusive) of the first
    ``num_sites - 1`` ranges; values >= the last boundary go to the
    last site.  E.g. with boundaries ``[100, 200]`` and 3 sites, values
    < 100 → site 0, 100–199 → site 1, >= 200 → site 2.
    """

    def __init__(self, attribute: str,
                 boundaries: typing.Sequence[int]) -> None:
        if list(boundaries) != sorted(boundaries):
            raise ValueError(
                f"range boundaries must be sorted, got {list(boundaries)}")
        if len(set(boundaries)) != len(boundaries):
            raise ValueError(
                f"range boundaries must be distinct, got {list(boundaries)}")
        self.attribute = attribute
        self.boundaries = list(boundaries)
        self._index: int | None = None

    def begin_load(self, schema: Schema, rows: typing.Sequence[Row],
                   num_sites: int) -> None:
        if len(self.boundaries) != num_sites - 1:
            raise ValueError(
                f"range partitioning over {num_sites} sites needs "
                f"{num_sites - 1} boundaries, got {len(self.boundaries)}")
        self._index = schema.index_of(self.attribute)

    def site_of(self, row: Row, schema: Schema, num_sites: int) -> int:
        index = (schema.index_of(self.attribute)
                 if self._index is None else self._index)
        return bisect.bisect_right(self.boundaries, row[index])

    def sites_of(self, page: ColumnPage, schema: Schema,
                 num_sites: int) -> Array | None:
        column = page.column_array(schema.index_of(self.attribute))
        if column is None:
            return None  # non-integer key column: scalar fallback
        # searchsorted(side="right") is bisect_right element-wise.
        return np.searchsorted(
            np.asarray(self.boundaries, dtype=np.int64), column,
            side="right").astype(np.int64)

    def describe(self) -> str:
        return f"range({self.attribute}, user boundaries)"


class RangeUniformPartitioning(PartitioningStrategy):
    """System-chosen ranges that spread tuples uniformly across sites.

    The loader hands the strategy all rows; boundaries are chosen at
    the tuple-count quantiles of the attribute so each site receives
    (as nearly as ties allow) the same number of tuples.  The paper's
    §4.4 experiments use this so that every processor does the same
    amount of work during the initial scan despite the normal(50 000,
    750) skew.
    """

    def __init__(self, attribute: str) -> None:
        self.attribute = attribute
        self._delegate: RangeKeyPartitioning | None = None

    def begin_load(self, schema: Schema, rows: typing.Sequence[Row],
                   num_sites: int) -> None:
        index = schema.index_of(self.attribute)
        if isinstance(rows, ColumnPage):
            column = rows.column_array(index)
            ordered = (np.sort(column).tolist() if column is not None
                       else sorted(rows.column_values(index)))
        else:
            ordered = sorted(row[index] for row in rows)
        boundaries: list[int] = []
        for site in range(1, num_sites):
            cut = (site * len(ordered)) // num_sites
            boundary = ordered[cut] if ordered else site
            # Boundaries must be strictly increasing; heavy duplicate
            # runs can make adjacent quantiles collide.
            if boundaries and boundary <= boundaries[-1]:
                boundary = boundaries[-1] + 1
            boundaries.append(boundary)
        self._delegate = RangeKeyPartitioning(self.attribute, boundaries)
        self._delegate.begin_load(schema, rows, num_sites)

    def site_of(self, row: Row, schema: Schema, num_sites: int) -> int:
        if self._delegate is None:
            raise RuntimeError(
                "range-uniform partitioning used before begin_load(); "
                "load the relation through repro.catalog.load_relation")
        return self._delegate.site_of(row, schema, num_sites)

    def sites_of(self, page: ColumnPage, schema: Schema,
                 num_sites: int) -> Array | None:
        if self._delegate is None:
            raise RuntimeError(
                "range-uniform partitioning used before begin_load(); "
                "load the relation through repro.catalog.load_relation")
        return self._delegate.sites_of(page, schema, num_sites)

    @property
    def boundaries(self) -> list[int]:
        """The system-chosen boundaries (after loading)."""
        if self._delegate is None:
            raise RuntimeError("boundaries are chosen during load")
        return list(self._delegate.boundaries)

    def describe(self) -> str:
        return f"range-uniform({self.attribute})"
