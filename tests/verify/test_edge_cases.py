"""Property and edge-case tests: split tables, bit filters, and the
degenerate workloads every algorithm must survive.

The hypothesis suites pin down the structural properties the paper's
Appendix A relies on (mod indexing, full coverage, exact entry
counts, no-false-negative filtering); the workload tests push each of
the four algorithms through empty relations, all-duplicate keys,
single-page inputs, and the memory-ratio boundaries — with the
conformance monitor armed throughout.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import hashing
from repro.catalog.loader import load_relation
from repro.catalog.partitioning import HashPartitioning
from repro.core.bit_filter import BitFilter
from repro.core.joins import run_join
from repro.core.joins.base import JoinConfigError
from repro.core.split_table import SPLIT_ENTRY_BYTES, SplitTable
from repro.engine.machine import GammaMachine
from repro.wisconsin.generator import WisconsinGenerator

ALGORITHMS = ["simple", "grace", "hybrid", "sort-merge"]


# --------------------------------------------------------------------------
# Split-table properties
# --------------------------------------------------------------------------

@st.composite
def grace_layouts(draw):
    num_buckets = draw(st.integers(min_value=1, max_value=12))
    num_disks = draw(st.integers(min_value=1, max_value=8))
    return num_buckets, num_disks


class TestSplitTableProperties:
    @settings(max_examples=40, deadline=None)
    @given(layout=grace_layouts())
    def test_grace_layout_properties(self, layout):
        num_buckets, num_disks = layout
        machine = GammaMachine.local(num_disks)
        table = SplitTable.grace_partitioning(num_buckets,
                                              machine.disk_nodes)
        # Exact entry count and byte size (Appendix A).
        assert len(table) == num_buckets * num_disks
        assert table.table_bytes == len(table) * SPLIT_ENTRY_BYTES
        # Every disk reachable, every bucket label in range.
        assert set(table.destination_node_ids()) == \
            {n.node_id for n in machine.disk_nodes}
        assert {e.bucket for e in table.entries} == \
            set(range(num_buckets))
        # Bucket-major, disk-alternating layout: entry i is
        # (disk i % D, bucket i // D).
        for i, entry in enumerate(table.entries):
            assert entry.node.node_id == i % num_disks
            assert entry.bucket == i // num_disks

    @settings(max_examples=40, deadline=None)
    @given(layout=grace_layouts(),
           h=st.integers(min_value=0, max_value=2**63))
    def test_lookup_is_mod_indexing(self, layout, h):
        num_buckets, num_disks = layout
        machine = GammaMachine.local(num_disks)
        table = SplitTable.grace_partitioning(num_buckets,
                                              machine.disk_nodes)
        assert table.index_for(h) == h % len(table)
        assert table.lookup(h) is table.entries[h % len(table)]

    def test_packet_fragmentation_boundary(self):
        """48 entries (1 920 B) fit one 2 KB packet; 56 (2 240 B)
        need two — the split-table broadcast cost the analytic model
        charges."""
        machine = GammaMachine.local(8)
        table = SplitTable.grace_partitioning(6, machine.disk_nodes)
        assert table.table_bytes == 1920 <= 2048
        bigger = SplitTable.grace_partitioning(7, machine.disk_nodes)
        assert bigger.table_bytes == 2240 > 2048


# --------------------------------------------------------------------------
# Bit-filter properties
# --------------------------------------------------------------------------

class TestBitFilterProperties:
    @settings(max_examples=40, deadline=None)
    @given(values=st.lists(st.integers(min_value=0, max_value=10**6),
                           min_size=1, max_size=200),
           num_bits=st.integers(min_value=1, max_value=4096))
    def test_no_false_negatives(self, values, num_bits):
        filt = BitFilter(num_bits)
        hashes = [hashing.hash_int(v) for v in values]
        for h in hashes:
            filt.set(h)
        assert all(filt.test(h) for h in hashes)

    @settings(max_examples=40, deadline=None)
    @given(values=st.lists(st.integers(min_value=0, max_value=10**6),
                           min_size=1, max_size=200),
           probes=st.lists(st.integers(min_value=0, max_value=10**6),
                           min_size=1, max_size=200))
    def test_batch_equals_scalar(self, values, probes):
        scalar, batch = BitFilter(1973), BitFilter(1973)
        set_hashes = [hashing.hash_int(v) for v in values]
        probe_hashes = [hashing.hash_int(v) for v in probes]
        for h in set_hashes:
            scalar.set(h)
        batch.set_batch(set_hashes)
        scalar_answers = [scalar.test(h) for h in probe_hashes]
        assert list(batch.test_batch(probe_hashes)) == scalar_answers
        assert batch.bits_set == scalar.bits_set
        assert batch.tests == scalar.tests
        assert batch.eliminated == scalar.eliminated


# --------------------------------------------------------------------------
# Degenerate workloads through all four algorithms
# --------------------------------------------------------------------------

GENERATOR = WisconsinGenerator(seed=3)
SCHEMA = GENERATOR.schema
KEY_INDEX = SCHEMA.index_of("unique1")


def relation(name, rows, num_sites=4):
    return load_relation(name, SCHEMA, rows,
                         HashPartitioning("unique1"), num_sites)


def run(algorithm, outer, inner, **kwargs):
    machine = GammaMachine.local(4)
    return run_join(algorithm, machine, outer, inner,
                    join_attribute="unique1", **kwargs)


@pytest.fixture(scope="module")
def outer_200():
    return relation("A", GENERATOR.relation_rows(200))


@pytest.fixture(scope="module")
def inner_40():
    return relation("B", GENERATOR.relation_rows(40, domain=40))


@pytest.mark.usefixtures("verify_env")
class TestDegenerateWorkloads:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_empty_inner(self, algorithm, outer_200):
        empty = relation("E", [])
        result = run(algorithm, outer_200, empty, memory_ratio=1.0)
        assert result.result_tuples == 0

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_empty_outer(self, algorithm, inner_40):
        empty = relation("E", [])
        result = run(algorithm, empty, inner_40, memory_ratio=1.0)
        assert result.result_tuples == 0

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_both_empty(self, algorithm):
        result = run(algorithm, relation("E1", []), relation("E2", []),
                     memory_ratio=1.0)
        assert result.result_tuples == 0

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_all_duplicate_keys(self, algorithm):
        """Every tuple shares one join-key value: the cross product
        must come out exactly, even though one hash cell holds the
        entire inner relation."""
        def with_key(rows, value=7):
            return [row[:KEY_INDEX] + (value,) + row[KEY_INDEX + 1:]
                    for row in rows]

        inner = relation("DI", with_key(
            GENERATOR.relation_rows(24, domain=24)))
        outer = relation("DO", with_key(GENERATOR.relation_rows(48)))
        result = run(algorithm, outer, inner,
                     memory_bytes=10 * SCHEMA.tuple_bytes * 24,
                     capacity_slack=30.0)
        assert result.result_tuples == 48 * 24

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_single_page_inputs(self, algorithm):
        """Each fragment fits one disk page on both sides."""
        outer = relation("SPo", GENERATOR.relation_rows(16))
        inner = relation("SPi", GENERATOR.relation_rows(8, domain=8))
        result = run(algorithm, outer, inner, memory_ratio=1.0,
                     capacity_slack=8.0)
        assert result.result_tuples == 8

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_memory_ratio_zero_is_rejected(self, algorithm,
                                           outer_200, inner_40):
        with pytest.raises(JoinConfigError):
            run(algorithm, outer_200, inner_40, memory_ratio=0.0)

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_memory_ratio_one_boundary(self, algorithm, outer_200,
                                       inner_40):
        result = run(algorithm, outer_200, inner_40, memory_ratio=1.0,
                     capacity_slack=4.0)
        assert result.result_tuples == 40
        assert result.overflow_events == 0
