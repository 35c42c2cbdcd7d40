"""The ``numba`` engine: ``@njit(cache=True)`` kernel mirrors.

numba is an optional extra — this module is only imported after the
dispatcher has confirmed ``import numba`` succeeds, and the jitted
functions are compiled once per process (``cache=True`` persists the
machine code across processes sharing a numba cache directory, so
``--jobs N`` sweep workers after the first pay only the load, not the
compile).  The one-time compile cost is measured by the dispatcher's
lazy warmup and surfaced as ``be_warmup_seconds``.

Bit-exactness mirrors :mod:`repro.core.backend.fallback` reasoning:
uint64 wraparound arithmetic, stable sorts (``np.argsort(kind=
'mergesort')`` — numba's mergesort is stable, matching numpy's
``stable`` kind), and truncating double->int64 casts.
"""

from __future__ import annotations

import types
import typing

import numpy as np

Array = typing.Any


class EngineUnavailable(RuntimeError):
    """numba is not importable (or too old to compile the kernels)."""


def load() -> types.SimpleNamespace:
    """Import numba and define the jitted kernel set."""
    try:
        from numba import njit
    except ImportError as exc:
        raise EngineUnavailable(f"numba not importable: {exc}") from exc

    mask32 = np.uint64(0xFFFFFFFF)

    @njit(cache=True)
    def _hash_avalanche(values, mult):
        n = values.shape[0]
        out = np.empty(n, dtype=np.uint64)
        for i in range(n):
            out[i] = (values[i] * mult) & mask32
        return out

    @njit(cache=True)
    def _hash_legacy(values, mult, offset):
        n = values.shape[0]
        out = np.empty(n, dtype=np.uint64)
        for i in range(n):
            out[i] = (values[i] * mult + offset) & mask32
        return out

    @njit(cache=True)
    def _remix(codes):
        n = codes.shape[0]
        out = np.empty(n, dtype=np.uint64)
        for i in range(n):
            z = (codes[i] + np.uint64(0x9E3779B9)) & mask32
            z = ((z ^ (z >> np.uint64(16)))
                 * np.uint64(0x85EBCA6B)) & mask32
            z = ((z ^ (z >> np.uint64(13)))
                 * np.uint64(0xC2B2AE35)) & mask32
            out[i] = z ^ (z >> np.uint64(16))
        return out

    @njit(cache=True)
    def _filter_slots(codes, num_bits):
        n = codes.shape[0]
        out = np.empty(n, dtype=np.int64)
        for i in range(n):
            z = (codes[i] + np.uint64(0x9E3779B9)) & mask32
            z = ((z ^ (z >> np.uint64(16)))
                 * np.uint64(0x85EBCA6B)) & mask32
            z = ((z ^ (z >> np.uint64(13)))
                 * np.uint64(0xC2B2AE35)) & mask32
            z ^= z >> np.uint64(16)
            out[i] = np.int64(z % num_bits)
        return out

    @njit(cache=True)
    def _split_groups(groups, n_groups):
        # Counting sort: stable, so the permutation matches a stable
        # argsort exactly (fully determined by (group, position)).
        n = groups.shape[0]
        counts = np.zeros(n_groups, dtype=np.int64)
        for i in range(n):
            counts[groups[i]] += 1
        nseg = 0
        for g in range(n_groups):
            if counts[g]:
                nseg += 1
        starts = np.empty(nseg, dtype=np.int64)
        ends = np.empty(nseg, dtype=np.int64)
        seg_groups = np.empty(nseg, dtype=np.int64)
        base = np.int64(0)
        k = 0
        for g in range(n_groups):
            if counts[g]:
                starts[k] = base
                base += counts[g]
                ends[k] = base
                seg_groups[k] = g
                counts[g] = starts[k]
                k += 1
        order = np.empty(n, dtype=np.int64)
        for i in range(n):
            g = groups[i]
            order[counts[g]] = i
            counts[g] += 1
        return order, starts, ends, seg_groups

    @njit(cache=True)
    def _arena_ranges(hashes):
        n = hashes.shape[0]
        order = np.argsort(hashes, kind="mergesort")
        starts = np.empty(n, dtype=np.int64)
        ends = np.empty(n, dtype=np.int64)
        keys = np.empty(n, dtype=np.int64)
        nseg = 0
        widest = 0
        i = 0
        while i < n:
            key = hashes[order[i]]
            j = i + 1
            while j < n and hashes[order[j]] == key:
                j += 1
            starts[nseg] = i
            ends[nseg] = j
            keys[nseg] = key
            if j - i > widest:
                widest = j - i
            nseg += 1
            i = j
        return (order, starts[:nseg], ends[:nseg], keys[:nseg], widest)

    @njit(cache=True)
    def _marks_word(slots, num_bits):
        n_bytes = (num_bits + 7) // 8
        out = np.zeros(n_bytes, dtype=np.uint8)
        for i in range(slots.shape[0]):
            s = slots[i]
            out[s >> 3] |= np.uint8(1 << (s & 7))
        return out

    @njit(cache=True)
    def _unpack_bits(raw, num_bits):
        out = np.empty(num_bits, dtype=np.uint8)
        for i in range(num_bits):
            out[i] = (raw[i >> 3] >> (i & 7)) & 1
        return out

    def hash_avalanche(values: Array, mult: int) -> Array:
        return _hash_avalanche(values, np.uint64(mult))

    def hash_legacy(values: Array, mult: int, offset: int) -> Array:
        return _hash_legacy(values, np.uint64(mult), np.uint64(offset))

    def remix(hash_codes: Array) -> Array:
        return _remix(hash_codes)

    def filter_slots(hash_codes: Array, num_bits: int) -> Array:
        return _filter_slots(hash_codes, np.uint64(num_bits))

    def split_groups(groups: Array, n_groups: int
                     ) -> tuple[Array, Array, Array, Array]:
        return _split_groups(groups, n_groups)

    def arena_ranges(hashes: Array
                     ) -> tuple[Array, Array, Array, Array, int]:
        order, starts, ends, keys, widest = _arena_ranges(hashes)
        return order, starts, ends, keys, int(widest)

    def marks_word_bytes(slots: Array, num_bits: int) -> bytes:
        return _marks_word(slots, num_bits).tobytes()

    def unpack_bits(raw: bytes, num_bits: int) -> Array:
        return _unpack_bits(np.frombuffer(raw, dtype=np.uint8),
                            num_bits).astype(bool)

    return types.SimpleNamespace(
        name="numba",
        hash_avalanche=hash_avalanche,
        hash_legacy=hash_legacy,
        remix=remix,
        filter_slots=filter_slots,
        split_groups=split_groups,
        arena_ranges=arena_ranges,
        marks_word_bytes=marks_word_bytes,
        unpack_bits=unpack_bits,
    )
