"""Tests for sweep containers and the point runner."""

import dataclasses

import pytest

import repro.experiments.runner as runner_module

from repro.experiments.config import (
    PAPER_MEMORY_RATIOS,
    ExperimentConfig,
)
from repro.experiments.runner import (
    Series,
    SweepJob,
    SweepPoint,
    Table,
    build_machine,
    run_sweep_point,
    run_sweep_points,
    sweep_database,
)
from repro.wisconsin.database import WisconsinDatabase

CONFIG = ExperimentConfig(scale=0.01, seed=3, num_disk_nodes=4,
                          num_remote_join_nodes=4)


@pytest.fixture(scope="module")
def db():
    return WisconsinDatabase.joinabprime(4, scale=0.01, seed=3)


class TestConfig:
    def test_paper_ratios_are_integral_buckets(self):
        for index, ratio in enumerate(PAPER_MEMORY_RATIOS, start=1):
            assert ratio == pytest.approx(1 / index)

    def test_from_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0.25")
        monkeypatch.setenv("REPRO_SEED", "9")
        monkeypatch.setenv("REPRO_JOBS", "3")
        config = ExperimentConfig.from_environment()
        assert config.scale == 0.25
        assert config.seed == 9
        assert config.jobs == 3

    def test_environment_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_SCALE", raising=False)
        config = ExperimentConfig.from_environment(default_scale=0.5)
        assert config.scale == 0.5


class TestSeries:
    def test_accessors(self):
        series = Series("x")
        series.add(SweepPoint(x=1.0, response_time=10.0))
        series.add(SweepPoint(x=0.5, response_time=20.0))
        assert series.xs == [1.0, 0.5]
        assert series.ys == [10.0, 20.0]
        assert series.y_at(0.5) == 20.0
        with pytest.raises(KeyError):
            series.y_at(0.25)

    def test_point_iter(self):
        x, y = SweepPoint(x=0.5, response_time=9.0)
        assert (x, y) == (0.5, 9.0)


class TestTable:
    def test_set_get(self):
        table = Table("t", ["r1"], ["c1", "c2"])
        table.set("r1", "c1", 5.0)
        assert table.get("r1", "c1") == 5.0
        assert table.has("r1", "c1")
        assert not table.has("r1", "c2")


class TestRunSweepPoint:
    def test_basic_point(self, db):
        point = run_sweep_point(CONFIG, db, "hybrid", 1.0)
        assert point.x == 1.0
        assert point.response_time > 0
        assert point.result is not None
        assert point.result.algorithm == "hybrid"

    def test_verification_mode(self, db):
        config = ExperimentConfig(scale=0.01, seed=3,
                                  num_disk_nodes=4,
                                  verify_results=True)
        point = run_sweep_point(config, db, "sort-merge", 0.5)
        assert point.result.result_rows is not None

    def test_spec_kwargs_forwarded(self, db):
        point = run_sweep_point(CONFIG, db, "grace", 0.5,
                                num_buckets=3)
        assert point.result.num_buckets == 3

    def test_remote_configuration(self, db):
        point = run_sweep_point(CONFIG, db, "hybrid", 1.0,
                                configuration="remote")
        assert point.response_time > 0

    def test_build_machine(self):
        local = build_machine(CONFIG, "local")
        assert len(local.diskless_nodes) == 0
        remote = build_machine(CONFIG, "remote")
        assert len(remote.diskless_nodes) == 4

    def test_keep_result_off(self, db):
        point = run_sweep_point(CONFIG, db, "hybrid", 1.0,
                                keep_result=False)
        assert point.result is None

    def test_kernel_counters_in_profile_mode(self, db):
        config = ExperimentConfig(scale=0.01, seed=3,
                                  num_disk_nodes=4, profile=True)
        point = run_sweep_point(config, db, "hybrid", 1.0)
        assert point.kernel_counters is not None
        assert point.kernel_counters["events_fired"] > 0
        assert point.kernel_counters["queued_events"] == 0


class TestParallelSweep:
    JOBS = [
        SweepJob(algorithm="hybrid", memory_ratio=1.0),
        SweepJob(algorithm="grace", memory_ratio=0.5),
        SweepJob(algorithm="simple", memory_ratio=1.0,
                 spec_kwargs=(("bit_filters", True),)),
        SweepJob(algorithm="hybrid", memory_ratio=1.0,
                 configuration="remote"),
    ]

    def test_database_cache_reuses_instances(self):
        assert sweep_database(CONFIG, True) is sweep_database(
            CONFIG, True)
        assert sweep_database(CONFIG, True) is not sweep_database(
            CONFIG, False)

    def test_workers_match_sequential_bit_for_bit(self, monkeypatch):
        # Force the pool on even on a single-core CI host (where
        # run_sweep_points would otherwise fall back to in-process).
        monkeypatch.setattr(runner_module.os, "cpu_count", lambda: 2)
        sequential = run_sweep_points(CONFIG, self.JOBS)
        parallel = run_sweep_points(
            dataclasses.replace(CONFIG, jobs=2), self.JOBS)
        assert len(parallel) == len(self.JOBS)
        for seq, par in zip(sequential, parallel):
            assert repr(seq.response_time) == repr(par.response_time)
            assert par.result is not None
            assert par.result.algorithm == seq.result.algorithm

    def test_single_job_runs_in_process(self):
        points = run_sweep_points(CONFIG, self.JOBS[:1])
        assert points[0].x == 1.0
        assert points[0].response_time > 0

    def test_single_core_host_skips_pool(self, monkeypatch):
        monkeypatch.setattr(runner_module.os, "cpu_count", lambda: 1)

        class NoPool:
            def __init__(self, *args, **kwargs):
                raise AssertionError(
                    "ProcessPoolExecutor must not start on a "
                    "single-core host")

        monkeypatch.setattr(
            runner_module.concurrent.futures, "ProcessPoolExecutor",
            NoPool)
        points = run_sweep_points(
            dataclasses.replace(CONFIG, jobs=4), self.JOBS[:2])
        assert [p.x for p in points] == [1.0, 0.5]

    @pytest.mark.skipif(runner_module._fork_context() is None,
                        reason="fork unavailable")
    def test_parent_prefills_shared_database_cache(self, monkeypatch):
        monkeypatch.setattr(runner_module.os, "cpu_count", lambda: 2)
        runner_module._DB_CACHE.clear()
        run_sweep_points(dataclasses.replace(CONFIG, jobs=2),
                         self.JOBS[:2])
        key = (CONFIG.num_disk_nodes, CONFIG.scale, CONFIG.seed, True,
               runner_module.resolve_profile_name(None),
               runner_module.resolve_topology_name(None))
        assert key in runner_module._DB_CACHE
