"""Tests for the prebuilt benchmark databases."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog import Attribute, Schema, load_relation
from repro.catalog.pages import ColumnPage
from repro.catalog.partitioning import (
    HashPartitioning,
    RangeKeyPartitioning,
)
from repro.catalog.relation import Relation
from repro.core.joins import reference
from repro.wisconsin import database
from repro.wisconsin.database import (
    SKEW_KINDS,
    WisconsinDatabase,
    _attributes_for,
)


class TestJoinABprime:
    def test_cardinalities_scale(self):
        db = WisconsinDatabase.joinabprime(4, scale=0.01, seed=1)
        assert db.outer.cardinality == 1000
        assert db.inner.cardinality == 100

    def test_every_inner_tuple_matches_exactly_once(self):
        """joinABprime's defining property: |result| = |Bprime|."""
        db = WisconsinDatabase.joinabprime(4, scale=0.01, seed=1)
        assert db.expected_result_tuples == db.inner.cardinality

    def test_hpja_partitioned_on_join_attribute(self):
        db = WisconsinDatabase.joinabprime(4, scale=0.01, hpja=True)
        assert db.outer.is_hash_partitioned_on("unique1")
        assert db.inner.is_hash_partitioned_on("unique1")

    def test_nonhpja_partitioned_elsewhere(self):
        db = WisconsinDatabase.joinabprime(4, scale=0.01, hpja=False)
        assert not db.outer.is_hash_partitioned_on("unique1")
        assert isinstance(db.outer.partitioning, HashPartitioning)

    def test_machine_or_int(self, machine):
        by_machine = WisconsinDatabase.joinabprime(machine,
                                                   scale=0.01)
        assert by_machine.outer.num_fragments == 4

    def test_bad_scale(self):
        with pytest.raises(ValueError):
            WisconsinDatabase.joinabprime(4, scale=0)


class TestSkewedDatabase:
    def test_inner_is_sample_of_outer(self):
        db = WisconsinDatabase.skewed(4, "NU", scale=0.05, seed=3)
        outer_rows = set(db.outer.all_rows())
        assert all(row in outer_rows for row in db.inner.all_rows())
        assert db.inner.cardinality == db.outer.cardinality // 10

    def test_attribute_selection(self):
        assert _attributes_for("UU") == ("unique1", "unique1")
        assert _attributes_for("NU") == ("normal", "unique1")
        assert _attributes_for("UN") == ("unique1", "normal")
        assert _attributes_for("NN") == ("normal", "normal")
        with pytest.raises(ValueError):
            _attributes_for("XX")

    def test_range_partitioned_on_each_join_attribute(self):
        db = WisconsinDatabase.skewed(4, "NU", scale=0.05, seed=3)
        assert db.inner.partitioning.attribute == "normal"
        assert db.outer.partitioning.attribute == "unique1"

    def test_equal_fragments_despite_skew(self):
        """§4.4: 'This resulted in an equal number of tuples on each
        of the eight disks.'"""
        db = WisconsinDatabase.skewed(8, "NN", scale=0.2, seed=3)
        for relation in (db.inner, db.outer):
            sizes = [len(f) for f in relation.fragments]
            assert max(sizes) - min(sizes) <= 0.2 * (
                relation.cardinality / 8)

    def test_nu_cardinality_equals_inner(self):
        """NU: every inner normal value matches exactly one outer
        unique1 (paper: 10,000 result tuples)."""
        db = WisconsinDatabase.skewed(4, "NU", scale=0.05, seed=3)
        assert db.expected_result_tuples == db.inner.cardinality

    def test_un_cardinality_close_to_inner(self):
        """UN: ~|inner| result tuples (paper: 10,036)."""
        db = WisconsinDatabase.skewed(4, "UN", scale=0.2, seed=3)
        expected = db.inner.cardinality
        assert expected * 0.8 <= db.expected_result_tuples \
            <= expected * 1.2

    def test_nn_cardinality_explodes(self):
        """NN: duplicates x duplicates (paper: 368,474 from a
        100k x 10k join — ~3.7x the outer cardinality)."""
        db = WisconsinDatabase.skewed(4, "NN", scale=0.2, seed=3)
        assert db.expected_result_tuples > 2.0 * db.outer.cardinality

    def test_all_kinds_construct(self):
        for kind in SKEW_KINDS:
            db = WisconsinDatabase.skewed(2, kind, scale=0.02, seed=1)
            assert db.inner.cardinality > 0


class TestReferenceCardinality:
    """``expected_result_tuples`` counts the reference join per key;
    ``expected_result_rows`` builds it.  The two must agree."""

    SCHEMA = Schema([Attribute.integer("k"), Attribute.integer("payload")],
                    name="keys")

    def relation(self, name, keys, columnar):
        rows = [(key, index) for index, key in enumerate(keys)]
        source = ColumnPage.from_rows(rows, width=2) if columnar else rows
        return load_relation(name, self.SCHEMA, source,
                             HashPartitioning("payload"), 3)

    # Small key domains make duplicate keys on both sides common;
    # disjoint ranges (outer >= 40) make empty joins common.
    @given(outer_keys=st.lists(st.integers(0, 50), max_size=60),
           inner_keys=st.lists(st.integers(0, 12), max_size=30),
           columnar=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_count_equals_the_built_join(self, outer_keys, inner_keys,
                                         columnar):
        outer = self.relation("S", outer_keys, columnar)
        inner = self.relation("R", inner_keys, columnar)
        built = reference.reference_join(outer, inner, "k", "k")
        assert reference.reference_join_cardinality(
            outer, inner, "k", "k") == len(built)

    def test_no_matches_count_zero(self):
        outer = self.relation("S", [1, 2, 3], columnar=True)
        inner = self.relation("R", [7, 8], columnar=False)
        assert reference.reference_join_cardinality(
            outer, inner, "k", "k") == 0

    @pytest.mark.parametrize("kind", SKEW_KINDS)
    def test_skewed_kinds(self, kind):
        db = WisconsinDatabase.skewed(4, kind, scale=0.02, seed=5)
        assert db.expected_result_tuples == len(db.expected_result_rows)

    def test_count_builds_no_rows(self, monkeypatch):
        db = WisconsinDatabase.skewed(4, "NN", scale=0.02, seed=5)
        want = len(db.expected_result_rows)

        def forbidden(*args, **kwargs):
            raise AssertionError("the count built rows")

        monkeypatch.setattr(database, "reference_join", forbidden)
        monkeypatch.setattr(reference, "reference_join", forbidden)
        monkeypatch.setattr(Relation, "all_rows", forbidden)
        assert db.expected_result_tuples == want
