"""Tests for split tables (Appendix A layouts and properties)."""

import pytest

from repro import hashing
from repro.core.split_table import (
    SPLIT_ENTRY_BYTES,
    SplitTable,
)
from repro.engine.machine import GammaMachine


def nodes(machine, count=None):
    return machine.disk_nodes[:count] if count else machine.disk_nodes


class TestLayouts:
    def test_joining_table(self):
        machine = GammaMachine.local(4)
        table = SplitTable.joining(machine.disk_nodes)
        assert len(table) == 4
        assert [e.node.node_id for e in table.entries] == [0, 1, 2, 3]
        assert all(e.bucket == 0 for e in table.entries)

    def test_grace_layout_appendix_table1(self):
        """Appendix A Table 1: three-bucket Grace, two disk nodes —
        entries alternate disks within each bucket, bucket-major."""
        machine = GammaMachine.local(2)
        table = SplitTable.grace_partitioning(3, machine.disk_nodes)
        layout = [(e.node.node_id, e.bucket) for e in table.entries]
        assert layout == [(0, 0), (1, 0), (0, 1), (1, 1), (0, 2),
                          (1, 2)]

    def test_hybrid_layout_appendix_table2(self):
        """Appendix A Table 2: three-bucket Hybrid, two disks, two
        diskless join processors (#3, #4 in the paper's 1-based
        numbering)."""
        machine = GammaMachine.remote(2, 2)
        table = SplitTable.hybrid_partitioning(
            3, machine.diskless_nodes, machine.disk_nodes)
        layout = [(e.node.node_id, e.bucket) for e in table.entries]
        assert layout == [(2, 0), (3, 0), (0, 1), (1, 1), (0, 2),
                          (1, 2)]

    def test_hybrid_one_bucket_equals_joining(self):
        machine = GammaMachine.local(4)
        hybrid = SplitTable.hybrid_partitioning(
            1, machine.disk_nodes, machine.disk_nodes)
        joining = SplitTable.joining(machine.disk_nodes)
        assert len(hybrid) == len(joining) == 4
        assert [e.node for e in hybrid.entries] == \
            [e.node for e in joining.entries]

    def test_entry_counts(self):
        machine = GammaMachine.remote(8, 8)
        grace = SplitTable.grace_partitioning(6, machine.disk_nodes)
        assert len(grace) == 48
        hybrid = SplitTable.hybrid_partitioning(
            6, machine.diskless_nodes, machine.disk_nodes)
        assert len(hybrid) == 8 + 5 * 8

    def test_validation(self):
        machine = GammaMachine.local(2)
        with pytest.raises(ValueError):
            SplitTable([])
        with pytest.raises(ValueError):
            SplitTable.grace_partitioning(0, machine.disk_nodes)


class TestModIndexing:
    def test_lookup_is_mod(self):
        machine = GammaMachine.local(4)
        table = SplitTable.grace_partitioning(3, machine.disk_nodes)
        for h in (0, 5, 11, 12, 25, 10**9):
            assert table.lookup(h) is table.entries[h % 12]
            assert table.index_for(h) == h % 12

    def test_paper_section41_table1(self):
        """§4.1 Table 1: 3-bucket Grace over 4 disks with identity-
        hashed values: value 0,12,24 -> disk1/bucket1; 5,17,29 ->
        disk2/bucket2; and every value at one disk mods to the same
        joining index."""
        machine = GammaMachine.local(4)
        table = SplitTable.grace_partitioning(3, machine.disk_nodes)
        for value in (0, 12, 24):
            entry = table.lookup(value)
            assert (entry.node.node_id, entry.bucket) == (0, 0)
        for value in (5, 17, 29):
            entry = table.lookup(value)
            assert (entry.node.node_id, entry.bucket) == (1, 1)
        # "mod 4 result" row: everything on disk d re-maps to joining
        # index d.
        for value in range(120):
            disk = table.lookup(value).node.node_id
            assert value % 4 == disk


class TestHpjaLocality:
    def test_bucket_forming_always_local_for_hpja(self):
        """A tuple stored on disk d (by the load hash) is always sent
        back to disk d during bucket-forming when the join attribute
        is the partitioning attribute — for ANY bucket count and any
        real hash codes."""
        machine = GammaMachine.local(8)
        for num_buckets in (1, 2, 3, 5, 7):
            table = SplitTable.grace_partitioning(
                num_buckets, machine.disk_nodes)
            for value in range(0, 2000, 7):
                h = hashing.hash_value(value)
                load_disk = h % 8
                assert table.lookup(h).node.node_id == load_disk

    def test_grace_local_joins_shortcircuit_even_non_hpja(self):
        """§4.1: fragment i of bucket j re-splits onto join site i
        when joins run on the disk nodes — the joining split table
        index equals the fragment's disk."""
        machine = GammaMachine.local(8)
        table = SplitTable.grace_partitioning(5, machine.disk_nodes)
        joining = SplitTable.joining(machine.disk_nodes)
        for value in range(0, 3000, 11):
            h = hashing.hash_value(value)
            forming_disk = table.lookup(h).node.node_id
            join_site = joining.lookup(h).node.node_id
            assert forming_disk == join_site


class TestPathologyDetection:
    def test_appendix_pathology_two_disks_four_joiners(self):
        """Appendix A Table 3/4: 3-bucket Hybrid with 2 disks and 4
        join processes — each stored bucket reaches only 2 of the 4
        join sites."""
        machine = GammaMachine.remote(2, 4)
        table = SplitTable.hybrid_partitioning(
            3, machine.diskless_nodes, machine.disk_nodes)
        assert len(table) == 8
        reachable = table.nodes_reachable_for_bucket(1, 4)
        assert len(reachable) == 2

    def test_four_buckets_fix_pathology(self):
        machine = GammaMachine.remote(2, 4)
        table = SplitTable.hybrid_partitioning(
            4, machine.diskless_nodes, machine.disk_nodes)
        assert len(table) == 10
        for bucket in (1, 2, 3):
            assert len(table.nodes_reachable_for_bucket(bucket, 4)) == 4

    def test_local_config_never_pathological(self):
        machine = GammaMachine.local(8)
        for n in (2, 3, 5, 6):
            table = SplitTable.grace_partitioning(
                n, machine.disk_nodes)
            for bucket in range(n):
                assert len(table.nodes_reachable_for_bucket(
                    bucket, 8)) == 8


class TestWireSize:
    def test_six_buckets_fit_one_packet_seven_do_not(self):
        """§4.1/§4.4: the partitioning split table exceeds the 2 KB
        packet between six and seven buckets (at 8 disks)."""
        machine = GammaMachine.local(8)
        six = SplitTable.grace_partitioning(6, machine.disk_nodes)
        seven = SplitTable.grace_partitioning(7, machine.disk_nodes)
        assert six.table_bytes <= 2048 < seven.table_bytes

    def test_table_bytes(self):
        machine = GammaMachine.local(4)
        table = SplitTable.joining(machine.disk_nodes)
        assert table.table_bytes == 4 * SPLIT_ENTRY_BYTES
