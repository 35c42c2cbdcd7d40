"""Column page ≡ tuple-list parity properties.

Relations are stored as :class:`~repro.catalog.pages.ColumnPage`
fragments, but tuple lists still reach the data path wherever a caller
produces them (``load_relation`` given a list, the scalar
fallback).  Every row
value, every routing decision and every simulated number must be the
same for both.  These hypothesis properties pin that promise at each
stage of the data path:

* generator output — the default :meth:`WisconsinGenerator.relation_rows`
  page fill agrees with the scalar row loop kept for materialized
  strings (the oracle for the numpy block fill) on every integer
  attribute, and ``sample_rows`` picks the same rows from either;
* split-table routing — vectorized ``sites_of`` page routing and the
  scalar per-row ``site_of`` loop place every tuple on the same site,
  so ``load_relation`` builds identical fragments;
* the four join algorithms — identical result cardinality *and*
  bit-identical simulated response time for page fragments vs
  tuple-list fragments.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.catalog import (
    Attribute,
    HashPartitioning,
    RangeUniformPartitioning,
    RoundRobinPartitioning,
    Schema,
    load_relation,
)
from repro.catalog.pages import ColumnPage
from repro.core.hash_table import JoinOverflowError
from repro.core.joins import run_join
from repro.engine.machine import GammaMachine
from repro.wisconsin.generator import WisconsinGenerator

SCHEMA = Schema([Attribute.integer("k"), Attribute.integer("payload")],
                name="rand")

key_lists = st.lists(st.integers(min_value=0, max_value=60),
                     max_size=80)

#: Tuple positions of the thirteen Wisconsin integer attributes.
INTEGERS = slice(0, 13)


# --------------------------------------------------------------------------
# Generator output
# --------------------------------------------------------------------------

def _integers(rows) -> list[tuple]:
    return [tuple(row[INTEGERS]) for row in rows]


class TestGeneratorParity:
    @given(n=st.integers(min_value=1, max_value=250),
           seed=st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_relation_rows_identical(self, n, seed):
        page = WisconsinGenerator(seed=seed).relation_rows(n)
        rows = WisconsinGenerator(
            seed=seed, materialize_strings=True).relation_rows(n)
        assert isinstance(page, ColumnPage)
        assert not isinstance(rows, ColumnPage)
        assert _integers(page) == _integers(rows)

    @given(n=st.integers(min_value=1, max_value=200),
           fraction=st.floats(min_value=0.0, max_value=1.0),
           seed=st.integers(min_value=0, max_value=999))
    @settings(max_examples=15, deadline=None)
    def test_sample_rows_identical(self, n, fraction, seed):
        k = max(1, round(n * fraction))
        gen = WisconsinGenerator(seed=seed)
        page = gen.sample_rows(gen.relation_rows(n), k)
        gen = WisconsinGenerator(seed=seed, materialize_strings=True)
        rows = gen.sample_rows(gen.relation_rows(n), k)
        assert isinstance(page, ColumnPage)
        assert _integers(page) == _integers(rows)


# --------------------------------------------------------------------------
# Split-table routing / declustering
# --------------------------------------------------------------------------

def _strategy(kind: str):
    return {
        "hash": lambda: HashPartitioning("k"),
        "rr": RoundRobinPartitioning,
        "range": lambda: RangeUniformPartitioning("k"),
    }[kind]()


class TestRoutingParity:
    @given(keys=key_lists, num_sites=st.integers(min_value=1, max_value=5),
           kind=st.sampled_from(["hash", "rr", "range"]))
    @settings(max_examples=40, deadline=None)
    def test_load_builds_identical_fragments(self, keys, num_sites,
                                             kind):
        rows = [(key, index) for index, key in enumerate(keys)]
        page = ColumnPage.from_rows(rows, width=2)
        tuple_rel = load_relation("R", SCHEMA, rows, _strategy(kind),
                                  num_sites)
        page_rel = load_relation("R", SCHEMA, page, _strategy(kind),
                                 num_sites)
        assert page_rel.num_fragments == tuple_rel.num_fragments
        for page_frag, tuple_frag in zip(page_rel.fragments,
                                         tuple_rel.fragments):
            assert list(page_frag) == list(tuple_frag)

    @given(keys=st.lists(st.integers(min_value=0, max_value=60),
                         min_size=1, max_size=80),
           num_sites=st.integers(min_value=1, max_value=7),
           kind=st.sampled_from(["hash", "range"]))
    @settings(max_examples=40, deadline=None)
    def test_vectorized_sites_match_scalar(self, keys, num_sites, kind):
        """``sites_of`` (the page fast path behind split-table
        routing) agrees with the scalar per-row ``site_of``."""
        rows = [(key, index) for index, key in enumerate(keys)]
        page = ColumnPage.from_rows(rows, width=2)
        strategy = _strategy(kind)
        strategy.begin_load(SCHEMA, page, num_sites)
        sites = strategy.sites_of(page, SCHEMA, num_sites)
        assert sites is not None
        assert len(sites) == len(rows)
        for row, site in zip(rows, sites):
            assert strategy.site_of(row, SCHEMA, num_sites) == int(site)


# --------------------------------------------------------------------------
# The four join algorithms
# --------------------------------------------------------------------------

def _build(name, keys, num_sites, columnar):
    rows = [(key, index) for index, key in enumerate(keys)]
    source = ColumnPage.from_rows(rows, width=2) if columnar else rows
    return load_relation(name, SCHEMA, source, HashPartitioning("k"),
                         num_sites)


def _run(outer, inner, algorithm, memory_ratio):
    machine = GammaMachine.local(3)
    memory_bytes = max(inner.schema.tuple_bytes,
                       round(memory_ratio * max(1, inner.total_bytes)))
    return run_join(algorithm, machine, outer, inner,
                    join_attribute="k", memory_bytes=memory_bytes)


class TestJoinParity:
    @pytest.mark.parametrize("algorithm",
                             ["simple", "grace", "hybrid", "sort-merge"])
    @given(inner_keys=key_lists, outer_keys=key_lists,
           memory_ratio=st.sampled_from([1.0, 0.5]))
    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_cardinality_and_time_identical(self, algorithm,
                                            inner_keys, outer_keys,
                                            memory_ratio):
        representations = {}
        for label, columnar in (("tuple", False), ("columnar", True)):
            inner = _build("R", inner_keys, 3, columnar)
            outer = _build("S", outer_keys, 3, columnar)
            try:
                result = _run(outer, inner, algorithm, memory_ratio)
            except JoinOverflowError:
                representations[label] = None
            else:
                representations[label] = (result.result_tuples,
                                          repr(result.response_time))
        assert representations["columnar"] == representations["tuple"]
