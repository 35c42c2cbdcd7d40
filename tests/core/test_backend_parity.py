"""Compiled-backend conformance: every engine ≡ the numpy fallback.

The fallback module is the semantic contract (DESIGN.md §15); these
property tests hold each loadable compiled engine to it bit-for-bit —
including the awkward inputs: empty pages, all-duplicate keys, and
uint64 wraparound edges.  The dispatcher's selection logic, structured
error, and counters are covered alongside.

On hosts where no compiled engine loads (no numba, no C compiler or
cffi), the per-engine parity classes skip and the dispatcher tests
still prove graceful degradation.
"""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import backend
from repro.core.backend import fallback

U64 = 2**64


def _try_engine(name):
    try:
        if name == "numba":
            from repro.core.backend import numba_engine
            return numba_engine.load()
        from repro.core.backend import cext
        return cext.load()
    except Exception:
        return None


ENGINES = [engine for engine in (_try_engine("numba"),
                                 _try_engine("cext"))
           if engine is not None]


def assert_same(a, b, context):
    if not isinstance(a, tuple):
        a, b = (a,), (b,)
    assert len(a) == len(b), context
    for x, y in zip(a, b):
        if isinstance(x, bytes):
            assert x == y, context
        elif isinstance(x, (int, float)):
            assert x == y, context
        else:
            xa, ya = np.asarray(x), np.asarray(y)
            assert xa.dtype == ya.dtype, (context, xa.dtype, ya.dtype)
            assert np.array_equal(xa, ya), context


# Edge-heavy uint64 values: wraparound boundaries mixed with smalls.
u64_values = st.one_of(
    st.integers(min_value=0, max_value=U64 - 1),
    st.sampled_from([0, 1, 2**31 - 1, 2**32 - 1, 2**32,
                     2**63 - 1, 2**63, U64 - 1]))
u64_arrays = st.lists(u64_values, min_size=0, max_size=200).map(
    lambda vals: np.asarray(vals, dtype=np.uint64))


@pytest.mark.skipif(not ENGINES, reason="no compiled engine loadable")
@pytest.mark.parametrize("engine", ENGINES,
                         ids=lambda engine: engine.name)
class TestKernelParity:
    """Each compiled engine reproduces the fallback bit-for-bit."""

    @settings(max_examples=60, deadline=None)
    @given(values=u64_arrays,
           mult=st.integers(min_value=0, max_value=U64 - 1))
    def test_hash_avalanche(self, engine, values, mult):
        assert_same(fallback.hash_avalanche(values, mult),
                    engine.hash_avalanche(values, mult),
                    (values, mult))

    @settings(max_examples=60, deadline=None)
    @given(values=u64_arrays,
           mult=st.integers(min_value=0, max_value=U64 - 1),
           offset=st.integers(min_value=0, max_value=U64 - 1))
    def test_hash_legacy(self, engine, values, mult, offset):
        assert_same(fallback.hash_legacy(values, mult, offset),
                    engine.hash_legacy(values, mult, offset),
                    (values, mult, offset))

    @settings(max_examples=60, deadline=None)
    @given(codes=u64_arrays)
    def test_remix(self, engine, codes):
        assert_same(fallback.remix(codes), engine.remix(codes), codes)

    @settings(max_examples=60, deadline=None)
    @given(codes=u64_arrays,
           num_bits=st.integers(min_value=1, max_value=4096))
    def test_filter_slots(self, engine, codes, num_bits):
        assert_same(fallback.filter_slots(codes, num_bits),
                    engine.filter_slots(codes, num_bits),
                    (codes, num_bits))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(),
           n_groups=st.integers(min_value=1, max_value=64))
    def test_split_groups(self, engine, data, n_groups):
        # Duplicates are the point: stability must pin the permutation.
        groups = np.asarray(
            data.draw(st.lists(
                st.integers(min_value=0, max_value=n_groups - 1),
                min_size=0, max_size=300)),
            dtype=np.int64)
        assert_same(fallback.split_groups(groups, n_groups),
                    engine.split_groups(groups, n_groups),
                    (groups, n_groups))

    def test_split_groups_all_duplicates(self, engine):
        groups = np.zeros(500, dtype=np.int64)
        assert_same(fallback.split_groups(groups, 7),
                    engine.split_groups(groups, 7), "all-dup")

    @settings(max_examples=60, deadline=None)
    @given(hashes=st.lists(
        st.integers(min_value=0, max_value=2**32 - 1),
        min_size=0, max_size=300).map(
            lambda vals: np.asarray(vals, dtype=np.int64)))
    def test_arena_ranges(self, engine, hashes):
        assert_same(fallback.arena_ranges(hashes),
                    engine.arena_ranges(hashes), hashes)

    def test_arena_ranges_all_duplicate_keys(self, engine):
        hashes = np.full(257, 42, dtype=np.int64)
        assert_same(fallback.arena_ranges(hashes),
                    engine.arena_ranges(hashes), "all-dup")

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(),
           num_bits=st.integers(min_value=1, max_value=2048))
    def test_marks_word_bytes(self, engine, data, num_bits):
        slots = np.asarray(
            data.draw(st.lists(
                st.integers(min_value=0, max_value=num_bits - 1),
                min_size=0, max_size=200)),
            dtype=np.int64)
        assert_same(fallback.marks_word_bytes(slots, num_bits),
                    engine.marks_word_bytes(slots, num_bits),
                    (slots, num_bits))

    @settings(max_examples=60, deadline=None)
    @given(raw=st.binary(min_size=0, max_size=256), data=st.data())
    def test_unpack_bits(self, engine, raw, data):
        num_bits = data.draw(
            st.integers(min_value=0, max_value=len(raw) * 8))
        assert_same(fallback.unpack_bits(raw, num_bits),
                    engine.unpack_bits(raw, num_bits),
                    (raw, num_bits))


class TestDispatcher:
    """Selection, counters, and the structured error."""

    @pytest.fixture(autouse=True)
    def _restore_activation(self):
        yield
        backend.activate()
        backend.reset_counters()

    def test_mode_0_forces_fallback(self):
        assert backend.activate("0") == "fallback"
        assert backend.engine_name() == "fallback"

    def test_auto_never_raises(self):
        assert backend.activate("auto") in ("numba", "cext", "fallback")

    def test_unknown_mode_raises_structured(self):
        with pytest.raises(backend.CompiledBackendError) as excinfo:
            backend.activate("not-a-mode")
        assert excinfo.value.requested == "not-a-mode"
        assert excinfo.value.reasons

    def test_required_engine_unavailable_raises_structured(self):
        probes = backend.available_engines()
        missing = [name for name, status in probes.items()
                   if status != "ok"]
        if not missing:
            pytest.skip("both compiled engines available")
        with pytest.raises(backend.CompiledBackendError) as excinfo:
            backend.activate(missing[0])
        err = excinfo.value
        assert err.requested == missing[0]
        assert missing[0] in err.reasons
        assert "REPRO_COMPILED" in str(err)

    def test_mode_1_matches_availability(self):
        probes = backend.available_engines()
        if any(status == "ok" for status in probes.values()):
            assert backend.activate("1") in ("numba", "cext")
        else:
            with pytest.raises(backend.CompiledBackendError):
                backend.activate("1")

    def test_counters_track_dispatch(self):
        backend.activate("0")
        backend.reset_counters()
        backend.remix(np.arange(5, dtype=np.uint64))
        counts = backend.counters()
        assert counts["be_engine"] == "fallback"
        assert counts["be_fallback_calls"] == 1
        assert counts["be_compiled_calls"] == 0
        assert counts["be_hit_remix"] == 1
        assert counts["be_warmup_seconds"] == 0

    @pytest.mark.skipif(not ENGINES,
                        reason="no compiled engine loadable")
    def test_compiled_counters_and_warmup(self):
        backend.activate("1")
        backend.reset_counters()
        backend.filter_slots(np.arange(8, dtype=np.uint64), 64)
        counts = backend.counters()
        assert counts["be_engine"] in ("numba", "cext")
        assert counts["be_compiled_calls"] == 1
        assert counts["be_fallback_calls"] == 0
        assert counts["be_hit_filter_slots"] == 1
        assert counts["be_warmup_seconds"] > 0

    def test_env_selection(self, monkeypatch):
        monkeypatch.setenv("REPRO_COMPILED", "0")
        assert backend.activate() == "fallback"

    def test_dispatch_functions_match_fallback(self):
        # Whatever engine auto picks, the module-level functions must
        # agree with the reference on a mixed workload.
        backend.activate("auto")
        rng = np.random.default_rng(11)
        codes = rng.integers(0, U64, 64, dtype=np.uint64)
        groups = rng.integers(0, 8, 64).astype(np.int64)
        assert_same(fallback.remix(codes), backend.remix(codes), "remix")
        assert_same(fallback.split_groups(groups, 8),
                    backend.split_groups(groups, 8), "split")


@pytest.mark.skipif(not ENGINES, reason="no compiled engine loadable")
def test_matrix_pinned_both_ways_on_randomized_workload():
    """A randomized (seeded) figure-5 workload on column pages with
    REPRO_COMPILED pinned 0 and 1 — simulated results identical.
    """
    from repro.experiments.config import ExperimentConfig
    from repro.experiments.runner import run_sweep_point, sweep_database
    from repro.verify.matrix import mode_env

    config = ExperimentConfig(scale=0.02, seed=20260808)
    db = sweep_database(config, hpja=True)
    times = {}
    for compiled in ("0", "1"):
        with mode_env(columnar=1, compiled=compiled):
            point = run_sweep_point(config, db.with_representation(True),
                                    "hybrid", 1.0)
        times[compiled] = (repr(point.result.response_time),
                          [(s.name, repr(s.start), repr(s.end))
                           for s in point.result.phases])
    assert times["0"] == times["1"]


def test_cext_cache_env_override(tmp_path, monkeypatch):
    """REPRO_CEXT_CACHE redirects the .so cache (and a build there
    proves the from-scratch compile path when a compiler exists)."""
    from repro.core.backend import cext
    monkeypatch.setenv("REPRO_CEXT_CACHE", str(tmp_path))
    assert cext._cache_dir() == str(tmp_path)
    try:
        engine = cext.load()
    except cext.EngineUnavailable:
        pytest.skip("cext unavailable on this host")
    assert any(entry.endswith(".so") for entry in os.listdir(tmp_path))
    codes = np.arange(16, dtype=np.uint64)
    assert_same(fallback.remix(codes), engine.remix(codes), "remix")
