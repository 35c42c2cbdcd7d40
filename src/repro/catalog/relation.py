"""Horizontally partitioned relations.

A :class:`Relation` is the catalog's view of a stored table: a schema,
one fragment per disk site, and the partitioning descriptor
it was loaded with.  Fragment ``i`` lives on disk node ``i`` of the
machine the relation is loaded for (Gamma partitions every relation
across *all* disks — §2.2).

Relations are logical catalog objects; the simulated cost of reading
them is charged by the scan operators in :mod:`repro.engine.operators`
using the page arithmetic exposed here.
"""

from __future__ import annotations

import math
import typing

from repro.catalog.pages import ColumnPage
from repro.catalog.partitioning import PartitioningStrategy
from repro.catalog.schema import Schema

Row = typing.Tuple


class Relation:
    """A named, horizontally partitioned relation."""

    def __init__(self, name: str, schema: Schema,
                 fragments: typing.Sequence[typing.Sequence[Row]],
                 partitioning: PartitioningStrategy | None = None) -> None:
        if not fragments:
            raise ValueError(f"relation {name!r} needs >= 1 fragment")
        self.name = name
        self.schema = schema
        #: ColumnPage fragments when the rows were loaded from a page
        #: (every generated relation), else tuple lists; consumers
        #: accept either.
        self.fragments: list[typing.Sequence[Row]] = [
            f if isinstance(f, ColumnPage) else list(f)
            for f in fragments]
        self.partitioning = partitioning
        #: page_size -> tuples-per-page; fragment_pages/total_pages sit
        #: on the scan cost path, and the division is invariant per
        #: relation, so compute it once per page size.
        self._tuples_per_page: dict[int, int] = {}

    # -- size arithmetic ----------------------------------------------------

    @property
    def num_fragments(self) -> int:
        return len(self.fragments)

    @property
    def cardinality(self) -> int:
        return sum(len(f) for f in self.fragments)

    @property
    def tuple_bytes(self) -> int:
        return self.schema.tuple_bytes

    @property
    def total_bytes(self) -> int:
        return self.cardinality * self.schema.tuple_bytes

    def tuples_per_page(self, page_size: int) -> int:
        """Tuples that fit one disk page (cached per page size)."""
        cached = self._tuples_per_page.get(page_size)
        if cached is None:
            cached = max(1, page_size // self.schema.tuple_bytes)
            self._tuples_per_page[page_size] = cached
        return cached

    def fragment_pages(self, fragment: int, page_size: int) -> int:
        """Disk pages occupied by one fragment."""
        return math.ceil(len(self.fragments[fragment])
                         / self.tuples_per_page(page_size))

    def total_pages(self, page_size: int) -> int:
        return sum(self.fragment_pages(i, page_size)
                   for i in range(self.num_fragments))

    # -- convenience --------------------------------------------------------

    def iter_rows(self) -> typing.Iterator[Row]:
        """Lazily yield every tuple in fragment order (verification
        paths; avoids copying whole relations)."""
        for fragment in self.fragments:
            yield from fragment

    def all_rows(self) -> list[Row]:
        """Every tuple, fragment order (for verification, not for the
        simulated data path)."""
        return list(self.iter_rows())

    def attribute_index(self, attribute: str) -> int:
        return self.schema.index_of(attribute)

    @property
    def partitioning_attribute(self) -> str | None:
        """The declared "key" attribute, or None for round-robin."""
        if self.partitioning is None:
            return None
        return self.partitioning.attribute

    def is_hash_partitioned_on(self, attribute: str) -> bool:
        """True when a join on ``attribute`` is an HPJA join for this
        relation: hash-declustered with ``attribute`` as the key."""
        from repro.catalog.partitioning import HashPartitioning
        return (isinstance(self.partitioning, HashPartitioning)
                and self.partitioning.attribute == attribute)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        policy = self.partitioning.describe() if self.partitioning else "?"
        return (f"<Relation {self.name!r} |t|={self.cardinality} "
                f"({self.total_bytes} bytes) over "
                f"{self.num_fragments} sites, {policy}>")
