"""The ``cext`` engine: the C mirrors in ``_kernels.c`` via cffi.

The shared library is compiled once per source and flag hash with
whatever C compiler the platform provides (``cc`` or ``gcc``) and
cached next to the package (override the location with
``REPRO_CEXT_CACHE``; :mod:`repro.cbuild` does the compile-and-cache
for this engine and the event kernel alike).  cffi's ABI mode
(``dlopen``) keeps the per-call overhead far below ctypes', which
matters at the data plane's small-page granularity.

:func:`load` returns the engine namespace or raises
:class:`EngineUnavailable` with the concrete reason (no cffi, no C
compiler, unwritable cache, build failure) — the dispatcher in
:mod:`repro.core.backend` turns that into fallback selection, or
re-raises it when the caller pinned ``activate("cext")``.
"""

from __future__ import annotations

import os
import types
import typing

import numpy as np

from repro import cbuild

Array = typing.Any

_CDEF = """
void repro_hash_avalanche(const uint64_t *values, int64_t n,
                          uint64_t mult, uint64_t *out);
void repro_hash_legacy(const uint64_t *values, int64_t n, uint64_t mult,
                       uint64_t offset, uint64_t *out);
void repro_filter_slots(const uint64_t *codes, int64_t n,
                        uint64_t num_bits, int64_t *out);
int64_t repro_split_groups(const int64_t *groups, int64_t n,
                           int64_t n_groups, int64_t *counts,
                           int64_t *order, int64_t *starts,
                           int64_t *ends, int64_t *seg_groups);
int64_t repro_arena_ranges(const int64_t *hashes, int64_t n,
                           int64_t *scratch, int64_t *order,
                           int64_t *starts, int64_t *ends,
                           int64_t *keys, int64_t *max_chain);
void repro_marks_word(const int64_t *slots, int64_t n, uint8_t *bytes,
                      int64_t n_bytes);
void repro_unpack_bits(const uint8_t *bytes, int64_t num_bits,
                       uint8_t *out);
"""


class EngineUnavailable(RuntimeError):
    """The cext engine cannot be built or loaded on this host."""


def _source_path() -> str:
    return os.path.join(os.path.dirname(__file__), "_kernels.c")


def load() -> types.SimpleNamespace:
    """Build/load the library and wrap it in the engine namespace."""
    try:
        import cffi
    except ImportError as exc:
        raise EngineUnavailable(f"cffi not importable: {exc}") from exc
    try:
        lib_path = cbuild.build(_source_path(), "repro_kernels", ["-O2"])
    except cbuild.BuildUnavailable as exc:
        raise EngineUnavailable(str(exc)) from exc
    ffi = cffi.FFI()
    ffi.cdef(_CDEF)
    try:
        lib = ffi.dlopen(lib_path)
    except OSError as exc:
        raise EngineUnavailable(f"dlopen failed: {exc}") from exc

    cast = ffi.cast
    from_buffer = ffi.from_buffer

    def _u64(arr: Array) -> typing.Any:
        return cast("const uint64_t *", from_buffer(arr))

    def _i64(arr: Array) -> typing.Any:
        return cast("int64_t *", from_buffer(arr))

    def hash_avalanche(values: Array, mult: int) -> Array:
        n = len(values)
        out = np.empty(n, dtype=np.uint64)
        lib.repro_hash_avalanche(_u64(values), n, mult,
                                 cast("uint64_t *", from_buffer(out)))
        return out

    def hash_legacy(values: Array, mult: int, offset: int) -> Array:
        n = len(values)
        out = np.empty(n, dtype=np.uint64)
        lib.repro_hash_legacy(_u64(values), n, mult, offset,
                              cast("uint64_t *", from_buffer(out)))
        return out

    def filter_slots(hash_codes: Array, num_bits: int) -> Array:
        n = len(hash_codes)
        out = np.empty(n, dtype=np.int64)
        lib.repro_filter_slots(_u64(hash_codes), n, num_bits, _i64(out))
        return out

    def split_groups(groups: Array, n_groups: int
                     ) -> tuple[Array, Array, Array, Array]:
        n = len(groups)
        order = np.empty(n, dtype=np.int64)
        cap = min(n, n_groups) if n else 0
        starts = np.empty(cap, dtype=np.int64)
        ends = np.empty(cap, dtype=np.int64)
        seg_groups = np.empty(cap, dtype=np.int64)
        counts = np.empty(n_groups, dtype=np.int64)
        nseg = lib.repro_split_groups(
            _i64(groups), n, n_groups, _i64(counts), _i64(order),
            _i64(starts), _i64(ends), _i64(seg_groups))
        return (order, starts[:nseg], ends[:nseg], seg_groups[:nseg])

    def arena_ranges(hashes: Array
                     ) -> tuple[Array, Array, Array, Array, int]:
        n = len(hashes)
        order = np.empty(n, dtype=np.int64)
        scratch = np.empty(n, dtype=np.int64)
        starts = np.empty(n, dtype=np.int64)
        ends = np.empty(n, dtype=np.int64)
        keys = np.empty(n, dtype=np.int64)
        max_chain = ffi.new("int64_t *")
        nseg = lib.repro_arena_ranges(
            _i64(hashes), n, _i64(scratch), _i64(order), _i64(starts),
            _i64(ends), _i64(keys), max_chain)
        return (order, starts[:nseg], ends[:nseg], keys[:nseg],
                int(max_chain[0]))

    def marks_word_bytes(slots: Array, num_bits: int) -> bytes:
        n_bytes = (num_bits + 7) // 8
        out = np.zeros(n_bytes, dtype=np.uint8)
        lib.repro_marks_word(_i64(slots), len(slots),
                             cast("uint8_t *", from_buffer(out)), n_bytes)
        return out.tobytes()

    def unpack_bits(raw: bytes, num_bits: int) -> Array:
        out = np.empty(num_bits, dtype=np.uint8)
        lib.repro_unpack_bits(cast("const uint8_t *", from_buffer(raw)),
                              num_bits,
                              cast("uint8_t *", from_buffer(out)))
        return out.astype(bool)

    return types.SimpleNamespace(
        name="cext",
        hash_avalanche=hash_avalanche,
        hash_legacy=hash_legacy,
        filter_slots=filter_slots,
        split_groups=split_groups,
        arena_ranges=arena_ranges,
        marks_word_bytes=marks_word_bytes,
        unpack_bits=unpack_bits,
    )
