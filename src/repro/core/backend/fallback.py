"""Reference (numpy / pure-python) kernel implementations.

This module is the semantic contract of the compiled backend: the
``cext`` engine in :mod:`repro.core.backend` must reproduce these
functions bit-for-bit on every input (property-tested in
``tests/core/test_backend_parity.py``), and they are the engine
itself on hosts where ``cext`` does not load.  The implementations
are the numpy paths that previously lived inline in
:mod:`repro.core.kernels`, :mod:`repro.core.hash_table` — moving them
here changed no arithmetic.

Exactness notes, per kernel:

* ``hash_avalanche`` / ``hash_legacy`` / ``remix`` / ``filter_slots``
  — uint64 arithmetic wraps modulo 2**64; every intermediate of the
  32-bit hash pipeline fits exactly, so C ``uint64_t`` mirrors are
  trivially identical.
* ``split_groups`` / ``arena_ranges`` — a *stable* sort fully
  determines its permutation (equal keys keep input order), so any
  stable algorithm — numpy's radix/merge argsort here, a counting or
  merge sort in the C engine — produces the identical ``order``
  array.
* ``marks_word_bytes`` / ``unpack_bits`` — byte-for-byte bit layout
  (little-endian within each byte), directly comparable.
"""

from __future__ import annotations

import typing

import numpy as np

Array = typing.Any

_MASK32 = np.uint64(0xFFFFFFFF)

#: Kernel names every engine is probed for (the dispatch table).
KERNELS = (
    "hash_avalanche",
    "hash_legacy",
    "remix",
    "filter_slots",
    "split_groups",
    "arena_ranges",
    "marks_word_bytes",
    "unpack_bits",
)


def hash_avalanche(values: Array, mult: int) -> Array:
    """``(v * mult) & 0xFFFFFFFF`` over a uint64 column."""
    return (values * np.uint64(mult)) & _MASK32


def hash_legacy(values: Array, mult: int, offset: int) -> Array:
    """``(v * mult + offset) & 0xFFFFFFFF`` over a uint64 column."""
    return (values * np.uint64(mult) + np.uint64(offset)) & _MASK32


def remix(hash_codes: Array) -> Array:
    """The 32-bit finalizer of :func:`repro.hashing.remix`, batched."""
    m = _MASK32
    z = (hash_codes + np.uint64(0x9E3779B9)) & m
    z = ((z ^ (z >> np.uint64(16))) * np.uint64(0x85EBCA6B)) & m
    z = ((z ^ (z >> np.uint64(13))) * np.uint64(0xC2B2AE35)) & m
    return z ^ (z >> np.uint64(16))


def filter_slots(hash_codes: Array, num_bits: int) -> Array:
    """Filter bit index (``remix(h) % num_bits``) per hash code."""
    return (remix(hash_codes) % np.uint64(num_bits)).astype(np.int64)


def split_groups(groups: Array, n_groups: int
                 ) -> tuple[Array, Array, Array, Array]:
    """Stable group split of a destination column.

    Returns ``(order, starts, ends, seg_groups)``: ``order`` is the
    stable argsort of ``groups`` (equal groups keep input order) and
    ``starts[k]:ends[k]`` delimits the rows of group ``seg_groups[k]``
    within it, ascending by group id, empty groups omitted.
    ``n_groups`` bounds the group ids (the C engine counting-sorts on
    it); the result does not depend on it.
    """
    order = np.argsort(groups, kind="stable")
    sorted_groups = groups[order]
    n = len(groups)
    cuts = np.flatnonzero(sorted_groups[1:] != sorted_groups[:-1]) + 1
    starts = np.concatenate(([0], cuts)) if n else cuts
    ends = np.concatenate((cuts, [n])) if n else cuts
    return order, starts, ends, sorted_groups[starts] if n else sorted_groups


def arena_ranges(hashes: Array) -> tuple[Array, Array, Array, Array, int]:
    """Stable hash-ordered index over a columnar arena.

    Returns ``(order, starts, ends, keys, max_chain)``: ``order`` is
    the stable argsort of ``hashes``; ``starts[k]:ends[k]`` is the
    range of hash value ``keys[k]`` within it (each range enumerates
    exactly the tuples a scalar chain would hold, in insertion order);
    ``max_chain`` is the widest range.
    """
    order = np.argsort(hashes, kind="stable")
    sorted_hashes = hashes[order]
    n = len(hashes)
    if not n:
        empty = np.empty(0, dtype=np.int64)
        return order, empty, empty, empty, 0
    cuts = np.flatnonzero(sorted_hashes[1:] != sorted_hashes[:-1]) + 1
    starts = np.concatenate(([0], cuts))
    ends = np.concatenate((cuts, [n]))
    return (order, starts, ends, sorted_hashes[starts],
            int((ends - starts).max()))


def marks_word_bytes(slots: Array, num_bits: int) -> bytes:
    """Little-endian byte image of a bitset with ``slots`` set."""
    marks = np.zeros(num_bits, dtype=np.uint8)
    marks[slots] = 1
    return np.packbits(marks, bitorder="little").tobytes()


def unpack_bits(raw: bytes, num_bits: int) -> Array:
    """Bool-array view of a little-endian bitset image."""
    return np.unpackbits(np.frombuffer(raw, dtype=np.uint8),
                         bitorder="little")[:num_bits].astype(bool)
