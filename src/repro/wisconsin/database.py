"""Ready-made benchmark databases.

:class:`WisconsinDatabase` packages the relation pairs the paper's
experiments use:

* :meth:`WisconsinDatabase.joinabprime` — the workhorse of §4.1–§4.3:
  a 100 000-tuple A and a 10 000-tuple Bprime, hash-declustered either
  on the join attribute (HPJA) or on another attribute (non-HPJA).
* :meth:`WisconsinDatabase.skewed` — the §4.4 design space: A plus a
  10 000-tuple random sample of A, each range-partitioned uniformly on
  its join attribute, joining any of the UU / NU / UN / NN attribute
  combinations.

Both constructors accept a ``scale`` so tests and benchmarks can run
the same code paths at a fraction of the paper's cardinalities.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.catalog import (
    HashPartitioning,
    RangeUniformPartitioning,
    Relation,
    load_relation,
)
from repro.core.joins.reference import (
    reference_join,
    reference_join_cardinality,
)
from repro.wisconsin.generator import WisconsinGenerator

Row = typing.Tuple

#: §4.4's XY design space: X = inner distribution, Y = outer
#: distribution; U(niform) selects unique1, N(ormal) the skewed
#: attribute.
SKEW_KINDS = ("UU", "NU", "UN", "NN")


def _attributes_for(kind: str) -> tuple[str, str]:
    """(inner_attribute, outer_attribute) for a UU/NU/UN/NN key."""
    if kind not in SKEW_KINDS:
        raise ValueError(
            f"skew kind must be one of {SKEW_KINDS}, got {kind!r}")
    inner = "normal" if kind[0] == "N" else "unique1"
    outer = "normal" if kind[1] == "N" else "unique1"
    return inner, outer


@dataclasses.dataclass
class WisconsinDatabase:
    """A loaded benchmark relation pair plus its ground truth."""

    outer: Relation
    inner: Relation
    inner_attribute: str
    outer_attribute: str
    generator: WisconsinGenerator

    @property
    def expected_result_rows(self) -> list[Row]:
        return reference_join(self.outer, self.inner,
                              self.outer_attribute, self.inner_attribute)

    @property
    def expected_result_tuples(self) -> int:
        """The reference join's cardinality, counted per key (no row
        of it is built; :attr:`expected_result_rows` is the row-level
        oracle)."""
        return reference_join_cardinality(
            self.outer, self.inner, self.outer_attribute,
            self.inner_attribute)

    def with_representation(self, columnar: bool) -> "WisconsinDatabase":
        """This database with both relations in the requested fragment
        representation (see :meth:`Relation.with_representation`);
        ``self`` when nothing needs converting."""
        outer = self.outer.with_representation(columnar)
        inner = self.inner.with_representation(columnar)
        if outer is self.outer and inner is self.inner:
            return self
        return dataclasses.replace(self, outer=outer, inner=inner)

    # -- constructors --------------------------------------------------------

    @classmethod
    def joinabprime(cls, machine_or_sites, scale: float = 1.0,
                    seed: int = 0, hpja: bool = True,
                    materialize_strings: bool = False
                    ) -> "WisconsinDatabase":
        """The §4.1 joinABprime database.

        ``hpja=True`` hash-partitions both relations on the join
        attribute (unique1); ``hpja=False`` partitions on unique2, so
        the join is a non-HPJA join (Figure 6).
        """
        num_sites = _num_sites(machine_or_sites)
        n_outer, n_inner = _scaled_cardinalities(scale)
        generator = WisconsinGenerator(
            seed=seed, materialize_strings=materialize_strings)
        schema = generator.schema
        outer_rows = generator.relation_rows(n_outer)
        inner_rows = generator.relation_rows(n_inner, domain=n_inner)
        key = "unique1" if hpja else "unique2"
        outer = load_relation("A", schema, outer_rows,
                              HashPartitioning(key), num_sites)
        inner = load_relation("Bprime", schema, inner_rows,
                              HashPartitioning(key), num_sites)
        return cls(outer=outer, inner=inner,
                   inner_attribute="unique1", outer_attribute="unique1",
                   generator=generator)

    @classmethod
    def skewed(cls, machine_or_sites, kind: str, scale: float = 1.0,
               seed: int = 0, materialize_strings: bool = False
               ) -> "WisconsinDatabase":
        """The §4.4 database for one UU/NU/UN/NN combination.

        The inner relation is a 10 % random sample of the outer; each
        relation is range-partitioned *uniformly on its own join
        attribute* so every disk holds the same tuple count despite
        the skew (the paper's §4.4 setup).
        """
        num_sites = _num_sites(machine_or_sites)
        n_outer, n_inner = _scaled_cardinalities(scale)
        inner_attribute, outer_attribute = _attributes_for(kind)
        generator = WisconsinGenerator(
            seed=seed, materialize_strings=materialize_strings)
        schema = generator.schema
        outer_rows = generator.relation_rows(n_outer)
        inner_rows = generator.sample_rows(outer_rows, n_inner)
        outer = load_relation(
            "A", schema, outer_rows,
            RangeUniformPartitioning(outer_attribute), num_sites)
        inner = load_relation(
            "Aprime", schema, inner_rows,
            RangeUniformPartitioning(inner_attribute), num_sites)
        return cls(outer=outer, inner=inner,
                   inner_attribute=inner_attribute,
                   outer_attribute=outer_attribute,
                   generator=generator)


def _num_sites(machine_or_sites) -> int:
    if isinstance(machine_or_sites, int):
        if machine_or_sites < 1:
            raise ValueError(
                f"need >= 1 disk site, got {machine_or_sites}")
        return machine_or_sites
    return machine_or_sites.num_disk_nodes


def _scaled_cardinalities(scale: float) -> tuple[int, int]:
    if scale <= 0:
        raise ValueError(f"scale must be positive, got {scale}")
    n_outer = max(10, round(100_000 * scale))
    n_inner = max(1, round(10_000 * scale))
    return n_outer, n_inner
