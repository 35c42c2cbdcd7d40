"""Compiled-backend conformance: the ``cext`` engine ≡ the numpy fallback.

The fallback module is the semantic contract (DESIGN.md §15); these
property tests hold the C engine to it bit-for-bit — including the
awkward inputs: empty pages, all-duplicate keys, and uint64
wraparound edges.  The dispatcher's host selection, pinning, and
counters are covered alongside, and so is the degrade path: the real
failure branches of :func:`repro.core.backend.cext.load` (no C
compiler, no cffi, an unwritable cache) must leave the host on the
fallback without an error.

On hosts where ``cext`` does not load, the parity class skips and the
dispatcher and degrade tests still run.
"""

import errno
import os
import shutil
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import cbuild
from repro.core import backend
from repro.core.backend import cext, fallback

U64 = 2**64


try:
    ENGINES = [cext.load()]
except cext.EngineUnavailable:
    ENGINES = []


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


@pytest.mark.skipif(not ENGINES, reason="cext not loadable")
@pytest.mark.parametrize("engine", ENGINES,
                         ids=lambda engine: engine.name)
class TestKernelParity:
    """The C engine reproduces the fallback bit-for-bit."""

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


def _no_compiler(monkeypatch, tmp_path):
    monkeypatch.setattr(shutil, "which", lambda name: None)
    monkeypatch.setenv("REPRO_CEXT_CACHE", str(tmp_path))
    return "no C compiler"


def _no_cffi(monkeypatch, tmp_path):
    monkeypatch.setitem(sys.modules, "cffi", None)
    return "cffi not importable"


def _cache_unwritable(monkeypatch, tmp_path):
    if not ENGINES:
        pytest.skip("a build is reached only where cext can load")
    blocker = tmp_path / "cache-is-a-file"
    blocker.write_text("")
    monkeypatch.setenv("REPRO_CEXT_CACHE", str(blocker))
    return "cannot build into cache"


class TestDispatcher:
    """Host selection, pinning, and counters."""

    @pytest.fixture(autouse=True)
    def _restore_activation(self):
        yield
        backend.activate()
        backend.reset_counters()

    def test_auto_never_raises(self):
        # Chosen by host: the C engine wherever it loads.
        expected = "cext" if ENGINES else "fallback"
        assert backend.activate() == expected
        assert backend.engine_name() == expected

    def test_fallback_pinned(self):
        assert backend.activate("fallback") == "fallback"
        assert backend.engine_name() == "fallback"

    @pytest.mark.skipif(not ENGINES, reason="cext not loadable")
    def test_cext_pinned(self):
        assert backend.activate("cext") == "cext"
        assert backend.engine_name() == "cext"

    def test_unknown_engine_raises_value_error(self):
        for name in ("auto", "0", "1", "numba", ""):
            with pytest.raises(ValueError, match="unknown kernel engine"):
                backend.activate(name)

    def test_required_engine_unavailable_raises_structured(
            self, monkeypatch, tmp_path):
        # A failed pin leaves the engine bound before it in place.
        bound = backend.activate()
        reason = _no_compiler(monkeypatch, tmp_path)
        with pytest.raises(cext.EngineUnavailable, match=reason):
            backend.activate("cext")
        assert backend.engine_name() == bound
        codes = np.arange(5, dtype=np.uint64)
        assert_same(fallback.filter_slots(codes, 64),
                    backend.filter_slots(codes, 64), "filter_slots")

    def test_stale_env_is_ignored(self, monkeypatch):
        monkeypatch.setenv("REPRO_COMPILED", "0")
        assert backend.activate() == ("cext" if ENGINES else "fallback")

    def test_counters_track_dispatch(self):
        backend.activate("fallback")
        backend.reset_counters()
        backend.filter_slots(np.arange(5, dtype=np.uint64), 64)
        counts = backend.counters()
        assert counts["be_engine"] == "fallback"
        assert counts["be_fallback_calls"] == 1
        assert counts["be_compiled_calls"] == 0
        assert counts["be_hit_filter_slots"] == 1

    @pytest.mark.skipif(not ENGINES, reason="cext not loadable")
    def test_compiled_counters(self):
        backend.activate("cext")
        backend.reset_counters()
        backend.filter_slots(np.arange(8, dtype=np.uint64), 64)
        counts = backend.counters()
        assert counts["be_engine"] == "cext"
        assert counts["be_compiled_calls"] == 1
        assert counts["be_fallback_calls"] == 0
        assert counts["be_hit_filter_slots"] == 1

    def test_dispatch_functions_match_fallback(self):
        # Whatever engine the host picks, the module-level functions
        # must agree with the reference on a mixed workload.
        backend.activate()
        rng = np.random.default_rng(11)
        codes = rng.integers(0, U64, 64, dtype=np.uint64)
        groups = rng.integers(0, 8, 64).astype(np.int64)
        assert_same(fallback.filter_slots(codes, 64),
                    backend.filter_slots(codes, 64), "filter_slots")
        assert_same(fallback.split_groups(groups, 8),
                    backend.split_groups(groups, 8), "split")


class TestDegrade:
    """Each way ``cext.load`` can fail leaves the host on the fallback."""

    @pytest.fixture(params=[_no_compiler, _no_cffi, _cache_unwritable],
                    ids=["no-compiler", "no-cffi", "cache-unwritable"])
    def reason(self, request, monkeypatch, tmp_path):
        yield request.param(monkeypatch, tmp_path)
        monkeypatch.undo()
        backend.activate()
        backend.reset_counters()

    def test_host_choice_is_the_fallback(self, reason):
        assert backend.activate() == "fallback"

    def test_dispatch_runs_the_fallback(self, reason):
        backend.activate()
        backend.reset_counters()
        codes = np.arange(5, dtype=np.uint64)
        assert_same(fallback.filter_slots(codes, 64),
                    backend.filter_slots(codes, 64), "filter_slots")
        counts = backend.counters()
        assert counts["be_fallback_calls"] == 1
        assert counts["be_compiled_calls"] == 0

    def test_pinned_cext_names_the_reason(self, reason):
        with pytest.raises(cext.EngineUnavailable, match=reason):
            backend.activate("cext")


def test_cext_cache_env_override(tmp_path, monkeypatch):
    """REPRO_CEXT_CACHE redirects the .so cache (and a build there
    proves the from-scratch compile path when a compiler exists)."""
    monkeypatch.setenv("REPRO_CEXT_CACHE", str(tmp_path))
    assert cbuild.cache_dir() == str(tmp_path)
    try:
        engine = cext.load()
    except cext.EngineUnavailable:
        pytest.skip("cext unavailable on this host")
    assert any(entry.endswith(".so") for entry in os.listdir(tmp_path))
    codes = np.arange(16, dtype=np.uint64)
    assert_same(fallback.filter_slots(codes, 64),
                engine.filter_slots(codes, 64), "filter_slots")


def test_build_cleans_up_when_the_compiler_cannot_run(tmp_path,
                                                      monkeypatch):
    """A compiler that cannot be executed leaves no temporary file in
    the cache, and the error names the compiler command."""
    source = tmp_path / "empty.c"
    source.write_text("int repro_empty(void) { return 0; }\n")
    cache = tmp_path / "cache"
    cache.mkdir()
    monkeypatch.setenv("REPRO_CEXT_CACHE", str(cache))
    monkeypatch.setattr(shutil, "which", lambda name: "/usr/bin/cc")

    def unrunnable(command, **kwargs):
        raise PermissionError(errno.EACCES, "Permission denied",
                              command[0])

    monkeypatch.setattr(cbuild.subprocess, "run", unrunnable)
    with pytest.raises(cbuild.BuildUnavailable,
                       match="/usr/bin/cc -O2 -shared"):
        cbuild.build(str(source), "empty", ["-O2"])
    assert os.listdir(cache) == []
