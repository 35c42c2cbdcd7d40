"""Differential mode-matrix tests (``repro.verify.matrix``).

Both REPRO_COLUMNAR relation representations must be
simulation-invisible: randomized
small workloads (algorithm, memory ratio, configuration, declustering,
skew) are pushed through :func:`run_mode_matrix`, which runs each
combo on a fresh machine with all invariants armed and asserts
bit-identical response times and phase timings.
"""

import os
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.config import ExperimentConfig
from repro.verify import ConformanceError
from repro.verify.matrix import MODES, mode_env, run_mode_matrix

CONFIG = ExperimentConfig(scale=0.02, num_disk_nodes=4,
                          num_remote_join_nodes=4)

#: (algorithm, memory_ratio, configuration, hpja).  Sort-merge is
#: local-only (the driver rejects the remote configuration); Simple at
#: reduced ratios recurses through overflow resolution — included
#: deliberately, the matrix must hold there too.
CASES = [
    (algorithm, ratio, configuration, hpja)
    for algorithm in ("simple", "grace", "hybrid", "sort-merge")
    for ratio in (1.0, 0.6, 0.35)
    for configuration in ("local", "remote")
    for hpja in (True, False)
    if not (algorithm == "sort-merge" and configuration == "remote")
]


class TestModeEnv:
    def test_sets_and_restores(self, monkeypatch):
        monkeypatch.setenv("REPRO_COLUMNAR", "1")
        monkeypatch.setenv("REPRO_VERIFY", "0")
        with mode_env(verify=True, columnar=0):
            assert os.environ["REPRO_COLUMNAR"] == "0"
            assert os.environ["REPRO_VERIFY"] == "1"
        assert os.environ["REPRO_COLUMNAR"] == "1"
        assert os.environ["REPRO_VERIFY"] == "0"

    def test_restores_on_error(self, monkeypatch):
        monkeypatch.delenv("REPRO_COLUMNAR", raising=False)
        with pytest.raises(RuntimeError):
            with mode_env(columnar=1):
                raise RuntimeError("boom")
        assert "REPRO_COLUMNAR" not in os.environ


class TestModeMatrix:
    def test_reports_every_mode(self, tiny_db):
        report = run_mode_matrix(CONFIG, tiny_db, "hybrid", 1.0)
        assert report["modes"] == [list(m) for m in MODES]
        assert report["algorithm"] == "hybrid"
        assert report["response_time"] > 0
        assert report["result"].result_tuples == \
            tiny_db.expected_result_tuples

    @settings(max_examples=8, deadline=None)
    @given(case=st.sampled_from(CASES))
    def test_modes_are_bit_identical(self, tiny_db, tiny_db_nonhpja,
                                     case):
        algorithm, ratio, configuration, hpja = case
        db = tiny_db if hpja else tiny_db_nonhpja
        report = run_mode_matrix(CONFIG, db, algorithm, ratio,
                                 configuration=configuration)
        assert report["result"].result_tuples == \
            db.expected_result_tuples

    def test_matrix_holds_under_skew(self, tiny_skew_db):
        config = ExperimentConfig(scale=0.05, num_disk_nodes=4,
                                  num_remote_join_nodes=4)
        report = run_mode_matrix(config, tiny_skew_db, "hybrid", 0.5)
        assert report["result"].result_tuples == \
            tiny_skew_db.expected_result_tuples


class TestDivergenceDetection:
    """The harness itself must catch a mode that changes the numbers."""

    def _fake_point(self, response_time):
        result = types.SimpleNamespace(
            response_time=response_time,
            phases=[types.SimpleNamespace(name="build", start=0.0,
                                          end=response_time)])
        return types.SimpleNamespace(result=result)

    def test_response_time_divergence_raises(self, monkeypatch):
        def fake_run(config, db, algorithm, ratio, **kwargs):
            columnar = os.environ["REPRO_COLUMNAR"]
            return self._fake_point(1.0 if columnar == "1" else 1.5)

        import repro.experiments.runner as runner
        monkeypatch.setattr(runner, "run_sweep_point", fake_run)
        with pytest.raises(ConformanceError) as info:
            run_mode_matrix(CONFIG, None, "hybrid", 1.0)
        assert info.value.invariant == "mode-matrix"
        assert info.value.deltas["mode"] == [0]

    def test_phase_timing_divergence_raises(self, monkeypatch):
        def fake_run(config, db, algorithm, ratio, **kwargs):
            columnar = os.environ["REPRO_COLUMNAR"]
            point = self._fake_point(1.0)
            if columnar == "0":
                point.result.phases[0].end = 1.0 + 1e-12
            return point

        import repro.experiments.runner as runner
        monkeypatch.setattr(runner, "run_sweep_point", fake_run)
        with pytest.raises(ConformanceError) as info:
            run_mode_matrix(CONFIG, None, "hybrid", 1.0)
        assert info.value.invariant == "mode-matrix"
