"""Tests for the scale-out sweep driver and its satellites.

Covers the :mod:`repro.experiments.scaleout` study driver (grid
construction, curve math, markdown/JSON emission, the CLI and its
monotone-speedup gate), the analytic model's parameterization on
cluster size and hardware profile, the (profile, topology)-keyed
database cache under ``--jobs`` interleaving, and the degenerate
cluster shapes the scale-out sweeps can reach (1 node; more nodes
than hash buckets; 1024 nodes), and pins the recorded scale-out points
of ``BENCH_scaleout.json``: ``gamma-1989`` bit for bit, ``modern-2018``
never slower.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.figures import ALL_ALGORITHMS
from repro.experiments.runner import (
    SweepJob,
    run_sweep_point,
    run_sweep_points,
    sweep_database,
)
from repro.experiments.scaleout import (
    ScaleoutConfig,
    append_sample,
    check_monotone_speedup,
    effective_memory_ratio,
    main,
    phase_family,
    render_markdown,
    run_scaleout,
    scaleout_figure,
)

#: One tiny study reused across the structural tests below (module
#: scope: ~a second of simulation, run once).
TINY = ScaleoutConfig(profile="gamma-1989", topology="token-ring",
                      nodes=(2, 4), base_scale=0.05,
                      size_factors=(1.0, 2.0),
                      algorithms=("hybrid", "simple"), seed=7)


@pytest.fixture(scope="module")
def tiny_sample() -> dict:
    return run_scaleout(TINY)


class TestPhaseFamily:
    def test_collapses_bucket_segment(self):
        assert phase_family("grace.b17.probe") == "grace.probe"
        assert phase_family("hybrid.b0.build") == "hybrid.build"

    def test_passes_through_unbucketed_names(self):
        assert phase_family("hybrid.formR") == "hybrid.formR"
        assert phase_family("sort-merge.partS") == "sort-merge.partS"
        # 'b' alone or non-numeric suffixes are not bucket segments.
        assert phase_family("x.build.y") == "x.build.y"


class TestScaleoutConfig:
    def test_rejects_empty_nodes(self):
        with pytest.raises(ValueError, match="at least one"):
            ScaleoutConfig(nodes=())

    def test_rejects_nonpositive_nodes(self):
        with pytest.raises(ValueError, match=">= 1"):
            ScaleoutConfig(nodes=(8, 0))

    def test_rejects_nonpositive_scale(self):
        with pytest.raises(ValueError, match="positive"):
            ScaleoutConfig(base_scale=0.0)

    def test_rejects_unknown_sweep(self):
        with pytest.raises(ValueError, match="unknown sweep"):
            ScaleoutConfig(sweeps=("speedup", "warpup"))


class TestEffectiveMemoryRatio:
    def test_pinned_ratio_passes_through(self):
        config = ScaleoutConfig(memory_ratio=0.25)
        assert effective_memory_ratio(config, 64, 10**12) == 0.25

    def test_physical_ratio_caps_at_one(self):
        config = ScaleoutConfig(profile="modern-2018")
        assert effective_memory_ratio(config, 8, 1024) == 1.0

    def test_physical_ratio_shrinks_with_relation(self):
        # gamma-1989: 2 MiB per node; 8 nodes against a 64 MiB inner
        # relation leaves a quarter of it resident.
        config = ScaleoutConfig(profile="gamma-1989")
        ratio = effective_memory_ratio(config, 8, 64 * 1024 * 1024)
        assert ratio == pytest.approx(0.25)


class TestRunScaleout:
    def test_sample_structure(self, tiny_sample):
        assert tiny_sample["profile"] == "gamma-1989"
        assert tiny_sample["topology"] == "token-ring"
        assert set(tiny_sample["curves"]) == {"speedup", "scaleup",
                                              "sizeup"}
        # Unique (nodes, scale) pairs: speedup (2,.05),(4,.05);
        # scaleup adds (4,.1); sizeup reuses (2,.05) and adds (2,.1).
        assert len(tiny_sample["points"]) == 4 * len(TINY.algorithms)

    def test_base_point_is_unity(self, tiny_sample):
        for curves in tiny_sample["curves"].values():
            for algorithm in TINY.algorithms:
                first = curves[algorithm][0]
                assert first[[k for k in ("speedup", "scaleup",
                                          "sizeup") if k in first][0]] \
                    == pytest.approx(1.0)

    def test_phase_breakdowns_cover_response_time(self, tiny_sample):
        for record in tiny_sample["points"]:
            assert record["response_time"] > 0
            assert record["phases"]
            assert all("b0" not in name and "b1" not in name
                       for name in record["phases"])
            # Phases cover the critical path up to inter-phase
            # scheduling gaps: their sum can only fall short of the
            # response time, never exceed it.
            covered = sum(record["phases"].values())
            assert 0 < covered <= record["response_time"] * (1 + 1e-9)
            assert covered >= record["response_time"] * 0.5

    def test_sizeup_grows_with_factor(self, tiny_sample):
        for algorithm in TINY.algorithms:
            entries = tiny_sample["curves"]["sizeup"][algorithm]
            assert entries[0]["factor"] == 1.0
            assert entries[1]["factor"] == 2.0
            assert entries[1]["sizeup"] > entries[0]["sizeup"]


class TestMonotoneSpeedupCheck:
    @staticmethod
    def _sample(values):
        return {"curves": {"speedup": {"hybrid": [
            {"nodes": 2 ** i, "speedup": v, "response_time": 1.0,
             "scale": 0.1, "algorithm": "hybrid", "memory_ratio": 1.0,
             "phases": {}, "ideal": float(2 ** i)}
            for i, v in enumerate(values)]}}}

    def test_accepts_nondecreasing(self):
        assert check_monotone_speedup(self._sample([1.0, 1.0, 2.5])) \
            == []

    def test_flags_dip(self):
        problems = check_monotone_speedup(
            self._sample([1.0, 2.0, 1.5]))
        assert len(problems) == 1
        assert "falls from 2.000 to 1.500" in problems[0]


class TestReporting:
    def test_markdown_report(self, tiny_sample):
        text = render_markdown(tiny_sample)
        assert "## speedup" in text
        assert "## scaleup" in text
        assert "## sizeup" in text
        assert "per-phase breakdown" in text
        for algorithm in TINY.algorithms:
            assert f"| {algorithm} |" in text

    def test_append_sample(self, tiny_sample, tmp_path):
        path = tmp_path / "BENCH_scaleout.json"
        append_sample(path, tiny_sample, "first")
        append_sample(path, tiny_sample, "second")
        data = json.loads(path.read_text())
        assert "Scale-out" in data["description"]
        assert [s["label"] for s in data["samples"]] \
            == ["first", "second"]
        assert data["samples"][0]["recorded"]
        assert data["samples"][0]["curves"] == tiny_sample["curves"]


class TestCli:
    ARGS = ["--profile", "gamma-1989", "--topology", "token-ring",
            "--scale", "0.05", "--sweeps", "speedup",
            "--algorithms", "hybrid", "--seed", "7"]

    def test_end_to_end(self, tmp_path, capsys):
        out = tmp_path / "bench.json"
        report = tmp_path / "report.md"
        rc = main(self.ARGS + ["--nodes", "2,4", "--out", str(out),
                               "--report", str(report),
                               "--assert-monotone-speedup"])
        assert rc == 0
        printed = capsys.readouterr().out
        assert "monotone speedup: ok" in printed
        assert report.read_text().startswith("# Scale-out study")
        sample = json.loads(out.read_text())["samples"][0]
        assert sample["label"] == "scaleout-gamma-1989-token-ring"
        assert [e["nodes"] for e in
                sample["curves"]["speedup"]["hybrid"]] == [2, 4]

    def test_monotone_gate_fails_on_dip(self, tmp_path, capsys):
        # Nodes listed largest-first make N=2 the non-base point;
        # T(2) > T(4) at this scale, a guaranteed speedup dip.
        rc = main(self.ARGS + ["--nodes", "4,2",
                               "--out", str(tmp_path / "b.json"),
                               "--assert-monotone-speedup"])
        assert rc == 1
        assert "MONOTONE-SPEEDUP VIOLATION" \
            in capsys.readouterr().err

    def test_rejects_bad_lists(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["--nodes", "eight"])
        with pytest.raises(SystemExit):
            main(["--nodes", ""])


def test_registry_figure(monkeypatch):
    monkeypatch.delenv("REPRO_PROFILE", raising=False)
    monkeypatch.delenv("REPRO_TOPOLOGY", raising=False)
    figure = scaleout_figure(
        ExperimentConfig(scale=0.05, seed=7), nodes=(2, 4))
    assert figure.name == "scaleout"
    assert [s.label for s in figure.series] == list(ALL_ALGORITHMS)
    for series in figure.series:
        assert series.xs == [2, 4]
        assert all(t > 0 for t in series.ys)


# ---------------------------------------------------------------------------
# Satellite: the analytic model across cluster sizes and profiles
# ---------------------------------------------------------------------------

class TestAnalyticParameterization:
    def test_in_band_on_64_node_modern_ring(self, monkeypatch):
        """REPRO_VERIFY=1 passes on a 64-node modern-2018 sweep point:
        the analytic model reads the active CostModel and node count
        instead of paper constants."""
        monkeypatch.setenv("REPRO_VERIFY", "1")
        config = ExperimentConfig(
            scale=0.1, seed=1, num_disk_nodes=64,
            hardware_profile="modern-2018", topology="token-ring")
        db = sweep_database(config, True)
        point = run_sweep_point(config, db, "hybrid", 1.0,
                                keep_result=False)
        analytic = point.verify["analytic"]
        assert analytic is not None
        assert analytic["phases"]
        assert all(row["within"] for row in analytic["phases"])

    def test_out_of_scope_on_routed_topologies(self, monkeypatch):
        """The lower-bound model treats the interconnect as one shared
        medium; on routed topologies it declares itself out of scope
        rather than mispredict."""
        monkeypatch.setenv("REPRO_VERIFY", "1")
        config = ExperimentConfig(
            scale=0.02, seed=7, num_disk_nodes=4,
            hardware_profile="modern-2018", topology="fabric")
        db = sweep_database(config, True)
        point = run_sweep_point(config, db, "hybrid", 1.0,
                                keep_result=False)
        assert point.verify["analytic"] is None
        # The invariant ledger still ran on the fabric.
        assert "network-conservation" \
            in point.verify["invariants"]["checks_passed"]


# ---------------------------------------------------------------------------
# Satellite: the (profile, topology)-keyed database cache
# ---------------------------------------------------------------------------

class TestDatabaseCacheKeying:
    BASE = ExperimentConfig(scale=0.02, seed=7, num_disk_nodes=4)

    def test_distinct_entries_per_profile_and_topology(self):
        gamma = dataclasses.replace(
            self.BASE, hardware_profile="gamma-1989",
            topology="token-ring")
        modern = dataclasses.replace(
            self.BASE, hardware_profile="modern-2018",
            topology="fabric")
        db_gamma = sweep_database(gamma, True)
        db_modern = sweep_database(modern, True)
        # Defensive keying: separate cache entries per hardware model,
        # even though relation content is hardware-independent.
        assert db_gamma is not db_modern
        assert db_gamma.inner.cardinality \
            == db_modern.inner.cardinality
        assert sweep_database(gamma, True) is db_gamma

    def test_jobs2_interleaved_profiles_match_sequential(self):
        """--jobs 2 across interleaved hardware profiles is
        bit-identical to in-process execution: no worker ever observes
        a database primed under the other profile."""
        jobs = [SweepJob(algorithm="hybrid", memory_ratio=1.0,
                         keep_result=False),
                SweepJob(algorithm="simple", memory_ratio=1.0,
                         keep_result=False)]
        for profile, topology in (("gamma-1989", "token-ring"),
                                  ("modern-2018", "fabric"),
                                  ("gamma-1989", "token-ring")):
            sequential = dataclasses.replace(
                self.BASE, jobs=1, hardware_profile=profile,
                topology=topology)
            parallel = dataclasses.replace(sequential, jobs=2)
            wanted = [repr(p.response_time) for p
                      in run_sweep_points(sequential, jobs)]
            got = [repr(p.response_time) for p
                   in run_sweep_points(parallel, jobs)]
            assert got == wanted, (profile, topology)


# ---------------------------------------------------------------------------
# Satellite: degenerate cluster shapes
# ---------------------------------------------------------------------------

class TestDegenerateConfigs:
    def test_single_node_cluster_all_algorithms(self, monkeypatch):
        """A 1-node 'cluster': no remote traffic at all, every split
        table a single fragment — results must still verify against
        the reference join with all invariants armed."""
        monkeypatch.setenv("REPRO_VERIFY", "1")
        config = ExperimentConfig(scale=0.02, seed=7,
                                  num_disk_nodes=1,
                                  verify_results=True)
        db = sweep_database(config, True)
        for algorithm in ALL_ALGORITHMS:
            point = run_sweep_point(config, db, algorithm, 0.5)
            assert point.response_time > 0, algorithm
            assert point.result.result_tuples \
                == db.expected_result_tuples

    def test_more_nodes_than_buckets(self, monkeypatch):
        """Memory ratio 1.0 plans a single bucket on a 16-node
        cluster: the bucket count (1) is far below the node count, so
        every site holds a sliver of one bucket."""
        monkeypatch.setenv("REPRO_VERIFY", "1")
        config = ExperimentConfig(scale=0.05, seed=7,
                                  num_disk_nodes=16,
                                  verify_results=True)
        db = sweep_database(config, True)
        for algorithm in ("hybrid", "grace"):
            point = run_sweep_point(config, db, algorithm, 1.0)
            assert point.result.result_tuples \
                == db.expected_result_tuples

    def test_1024_node_smoke(self, monkeypatch):
        """All four algorithms at reduced scale on a 1024-node
        modern fabric, invariants armed (seconds, now that wide
        streams close through the combining tree)."""
        monkeypatch.setenv("REPRO_VERIFY", "1")
        config = ExperimentConfig(
            scale=0.05, seed=1, num_disk_nodes=1024,
            hardware_profile="modern-2018", topology="fabric")
        db = sweep_database(config, True)
        for algorithm in ALL_ALGORITHMS:
            point = run_sweep_point(config, db, algorithm, 1.0,
                                    keep_result=False)
            assert point.response_time > 0, algorithm


# ---------------------------------------------------------------------------
# Satellite: the recorded scale-out points
# ---------------------------------------------------------------------------

def _recorded(label: str) -> "dict[tuple[int, str], float]":
    """(nodes, algorithm) -> response time of the speedup sweep of one
    ``BENCH_scaleout.json`` sample."""
    path = pathlib.Path(__file__).parents[2] / "BENCH_scaleout.json"
    sample = next(s for s in json.loads(path.read_text())["samples"]
                  if s["label"] == label)
    return {(entry["nodes"], algorithm): entry["response_time"]
            for algorithm, entries in sample["curves"]["speedup"].items()
            for entry in entries}


def _simulate(profile: str, topology: str, nodes: int
              ) -> "dict[str, float]":
    config = ExperimentConfig(scale=0.1, seed=1, num_disk_nodes=nodes,
                              hardware_profile=profile,
                              topology=topology)
    db = sweep_database(config, True)
    return {algorithm: run_sweep_point(config, db, algorithm, 1.0,
                                       keep_result=False).response_time
            for algorithm in ALL_ALGORITHMS}


class TestRecordedPoints:
    def test_gamma_ring_64_nodes_is_bit_identical(self):
        """``gamma-1989`` keeps Gamma's flat end-of-stream rule at every
        fan-out, so the PR 9 recording still holds to the last bit."""
        recorded = _recorded("pr9-scaleout-gamma-1989-token-ring")
        for algorithm, seconds in _simulate(
                "gamma-1989", "token-ring", 64).items():
            assert repr(seconds) == repr(recorded[(64, algorithm)]), \
                algorithm

    @pytest.mark.parametrize("nodes", (8, 64, 256))
    def test_modern_fabric_is_never_slower(self, nodes):
        """The combining tree may only take simulated time off the
        PR 9 recording; at 8 nodes (fan-out == arity) the stream stays
        flat and the time is unchanged."""
        recorded = _recorded("pr9-scaleout-modern-2018-fabric")
        for algorithm, seconds in _simulate(
                "modern-2018", "fabric", nodes).items():
            before = recorded[(nodes, algorithm)]
            if nodes == 8:
                assert repr(seconds) == repr(before), algorithm
            else:
                assert seconds < before, algorithm
