"""Tests for the measurements a JoinResult reports."""

import pytest

from repro.core.joins import ALGORITHMS, JoinSpec, run_join
from repro.engine.machine import GammaMachine


def join(db, algorithm, ratio, num_disks=4, **kwargs):
    machine = GammaMachine.local(num_disks)
    return run_join(algorithm, machine, db.outer, db.inner,
                    join_attribute="unique1", memory_ratio=ratio,
                    **kwargs)


class TestTiming:
    def test_response_time_positive_and_phase_consistent(self, tiny_db):
        result = join(tiny_db, "hybrid", 0.5)
        assert result.response_time > 0
        for phase in result.phases:
            assert 0 <= phase.start <= phase.end
            assert phase.end <= result.response_time

    def test_phases_cover_most_of_response(self, tiny_db):
        result = join(tiny_db, "grace", 0.5)
        covered = sum(p.duration for p in result.phases)
        assert covered > 0.8 * result.response_time

    def test_phase_duration_lookup(self, tiny_db):
        result = join(tiny_db, "sort-merge", 1.0)
        assert result.phase_duration("sort-merge.sortS") > 0
        assert result.phase_duration("nonexistent") == 0

    def test_determinism(self, tiny_db):
        first = join(tiny_db, "hybrid", 0.5)
        second = join(tiny_db, "hybrid", 0.5)
        assert first.response_time == second.response_time
        assert first.network.data_packets == second.network.data_packets
        assert first.disk_page_reads == second.disk_page_reads


class TestNetworkCounters:
    def test_hpja_shortcircuits_nearly_everything(self, tiny_db):
        result = join(tiny_db, "hybrid", 1.0)
        # Joining traffic short-circuits; result tuples go 1/D local.
        assert result.shortcircuit_fraction > 0.75

    def test_nonhpja_shortcircuits_one_in_d(self, tiny_db_nonhpja):
        result = join(tiny_db_nonhpja, "hybrid", 1.0)
        assert result.shortcircuit_fraction < 0.45

    def test_hpja_faster_than_nonhpja(self, tiny_db, tiny_db_nonhpja):
        for algorithm in ("hybrid", "grace", "simple", "sort-merge"):
            hpja = join(tiny_db, algorithm, 0.5).response_time
            non = join(tiny_db_nonhpja, algorithm, 0.5).response_time
            assert hpja < non, algorithm

    def test_packet_accounting(self, tiny_db):
        result = join(tiny_db, "simple", 1.0)
        stats = result.network
        assert stats.data_packets > 0
        assert stats.data_tuples >= (tiny_db.inner.cardinality
                                     + tiny_db.outer.cardinality)
        assert (stats.data_packets_shortcircuited
                <= stats.data_packets)


class TestDiskCounters:
    def test_base_relation_reads_charged(self, tiny_db):
        result = join(tiny_db, "simple", 1.0)
        page_size = 8192
        expected = (tiny_db.outer.total_pages(page_size)
                    + tiny_db.inner.total_pages(page_size))
        assert result.disk_page_reads >= expected

    def test_result_relation_written(self, tiny_db):
        driver = ALGORITHMS["hybrid"](
            GammaMachine.local(4), tiny_db.outer, tiny_db.inner,
            JoinSpec(inner_attribute="unique1", outer_attribute="unique1",
                     memory_ratio=1.0))
        result = driver.run()
        assert result.disk_page_writes > 0
        # Each fragment is its result file's rows, not a copy of them.
        for fragment, file in zip(result.result_fragments,
                                  driver._result_files, strict=True):
            assert fragment is file.rows
        relation = result.as_relation(
            "result", tiny_db.inner.schema.concat(tiny_db.outer.schema))
        assert relation.cardinality == result.result_tuples > 0

    def test_grace_writes_more_than_hybrid(self, tiny_db):
        grace = join(tiny_db, "grace", 1.0)
        hybrid = join(tiny_db, "hybrid", 1.0)
        assert grace.disk_page_writes > hybrid.disk_page_writes
        assert grace.disk_page_reads > hybrid.disk_page_reads


class TestCpuUtilisation:
    def test_local_join_disk_nodes_busy(self, tiny_db):
        """§5: local joins run the disk-node CPUs near saturation."""
        result = join(tiny_db, "hybrid", 1.0)
        disk_utils = [u for name, u in result.cpu_utilisation.items()
                      if name.startswith("disk")]
        assert min(disk_utils) > 0.4

    def test_remote_offloads_disk_cpus(self, tiny_db):
        machine = GammaMachine.remote(4, 4)
        remote = run_join("hybrid", machine, tiny_db.outer,
                          tiny_db.inner, join_attribute="unique1",
                          memory_ratio=1.0, configuration="remote")
        local = join(tiny_db, "hybrid", 1.0)
        remote_disk = max(u for n, u in remote.cpu_utilisation.items()
                          if n.startswith("disk"))
        local_disk = max(u for n, u in local.cpu_utilisation.items()
                         if n.startswith("disk"))
        assert remote_disk < local_disk


class TestResultReporting:
    def test_collect_result_off(self, tiny_db):
        result = join(tiny_db, "hybrid", 1.0, collect_result=False)
        assert result.result_rows is None
        assert result.result_tuples == tiny_db.expected_result_tuples

    def test_summary_mentions_key_facts(self, tiny_db):
        result = join(tiny_db, "hybrid", 0.5, bit_filters=True)
        text = result.summary()
        assert "hybrid" in text
        assert "results" in text
        assert "buckets" in text

    def test_result_tuple_width(self, tiny_db):
        result = join(tiny_db, "hybrid", 1.0)
        row = result.result_rows[0]
        assert len(row) == 2 * len(tiny_db.outer.schema)
