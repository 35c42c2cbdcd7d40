"""Gamma's randomizing (hash) function family.

A single base hash function is applied to join/partitioning attribute
values everywhere — loading, split-table indexing, hash-table slotting,
bit-filter bits — and different *uses* take the value modulo different
table sizes.  This is exactly how Gamma works and it is what makes the
HPJA short-circuiting of §4.1 emerge from congruence arithmetic rather
than special-casing (see Appendix A of the paper and
``repro.core.split_table``).

Two properties of the multiplicative hash below matter for the
reproduction:

* For *consecutive unique* integers (Wisconsin ``unique1``) the value
  ``(v * K) mod 2**32`` with odd ``K`` is a bijection modulo any power
  of two, so partitioning 10 000 consecutive keys over 8 sites is
  perfectly balanced — matching the paper's uniform experiments, where
  Grace and Hybrid never experienced hash-table overflow.
* Duplicate attribute values (the normal(50 000, 750) skew of §4.4)
  necessarily collide — all copies of a value land on one site and in
  one hash chain — which reproduces the overflow and chaining effects
  of the non-uniform experiments.

The *level* parameter selects a different function from the family.
The Simple hash-join changes hash function after each overflow
(level + 1) when it re-splits overflow partitions, which is what turns
HPJA joins into non-HPJA joins (§4.1).
"""

from __future__ import annotations

HASH_BITS = 32
HASH_MODULUS = 1 << HASH_BITS
_MASK = HASH_MODULUS - 1

#: Knuth's multiplicative constant (2**32 / phi, forced odd).
_BASE_MULTIPLIER = 2654435761

#: splitmix64 constants used to derive per-level multipliers.
_SPLITMIX_GAMMA = 0x9E3779B97F4A7C15


def level_multiplier(level: int) -> int:
    """The odd 32-bit multiplier used by hash function ``level``."""
    if level < 0:
        raise ValueError(f"hash level must be >= 0, got {level}")
    if level == 0:
        return _BASE_MULTIPLIER
    # splitmix64 finalizer over the level, truncated to 32 bits, odd.
    z = (level * _SPLITMIX_GAMMA) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    z = z ^ (z >> 31)
    return (z & _MASK) | 1


def hash_int(value: int, level: int = 0) -> int:
    """Hash an integer attribute value into ``[0, 2**32)``."""
    return (value * level_multiplier(level)) & _MASK


def hash_str(value: str, level: int = 0) -> int:
    """Hash a string attribute value into ``[0, 2**32)`` (FNV-1a)."""
    h = 2166136261
    for byte in value.encode("utf-8", errors="surrogatepass"):
        h = ((h ^ byte) * 16777619) & _MASK
    return (h * level_multiplier(level)) & _MASK


def hash_value(value: int | str, level: int = 0) -> int:
    """Hash an attribute value of either Wisconsin kind."""
    if isinstance(value, int):
        return hash_int(value, level)
    if isinstance(value, str):
        return hash_str(value, level)
    raise TypeError(
        f"can only hash int or str attribute values, got "
        f"{type(value).__name__}")


def legacy_hash_int(value: int, level: int = 0) -> int:
    """A weak, locality-preserving randomizing function.

    Models the behaviour implied by the paper's §4.1 example ("the
    histogram may show us that writing all tuples with hash values
    above 90,000 ...") — a hash whose range mirrors the attribute
    domain and whose output preserves value locality.  Uniform keys
    hash uniformly (so the paper's uniform experiments behave
    normally), but a *clustered* value distribution like the
    normal(50 000, 750) skew collapses into a narrow slice of hash
    space: the overflow histogram degenerates to a few hot bins, each
    clearing pass evicts huge chunks, and the Simple hash-join's
    overflow recursion thrashes — the mechanism behind the paper's
    catastrophic 1 806-second Simple NU measurement (Table 3).

    Per-level variation shifts and stretches the line (the recursion
    must still change functions between levels) without restoring
    avalanche behaviour — which is exactly why Gamma's recursion
    could not escape the clustering.
    """
    if level < 0:
        raise ValueError(f"hash level must be >= 0, got {level}")
    # Scale a ~100k-value domain across the hash space; small odd
    # per-level multipliers keep site assignment balanced for
    # consecutive keys while preserving locality.
    stretch = (2 * level + 1)
    scale = (HASH_MODULUS // 100_000) | 1
    return (value * stretch * scale + level * 977) & _MASK


def legacy_hash_value(value: int | str, level: int = 0) -> int:
    """Legacy-family dispatch (strings fall back to the real hash —
    the locality pathology is an integer-domain phenomenon)."""
    if isinstance(value, int):
        return legacy_hash_int(value, level)
    return hash_str(value, level)


#: Hash-family registry used by :class:`repro.core.joins.base.JoinSpec`.
HASH_FAMILIES = {
    "avalanche": hash_value,
    "legacy": legacy_hash_value,
}


def make_hasher(level: int):
    """A level-bound fast hasher for the avalanche family.

    The per-tuple routing loops call the hash function once per tuple;
    binding the level multiplier once per page sweep avoids the
    ``level_multiplier`` recomputation and family dispatch on every
    call.  Produces bit-identical values to ``hash_value(v, level)``.
    """
    multiplier = level_multiplier(level)

    def hashed(value):
        if type(value) is int:
            return (value * multiplier) & _MASK
        return hash_value(value, level)

    return hashed


def make_legacy_hasher(level: int):
    """Level-bound dispatch for the legacy family."""
    if level < 0:
        raise ValueError(f"hash level must be >= 0, got {level}")

    def hashed(value):
        return legacy_hash_value(value, level)

    return hashed


#: Level-bound hasher factories, keyed like :data:`HASH_FAMILIES`.
HASH_FAMILY_HASHERS = {
    "avalanche": make_hasher,
    "legacy": make_legacy_hasher,
}


class KeyHashMemo:
    """Machine-wide memo of whole-column join-key hash arrays.

    The vectorized data plane hashes a scan source's entire key column
    at once; this memo ensures the same column is never hashed twice
    with the same (key, level, family) across build/probe/partition
    phases.  Entries are keyed by the identity of the row container
    (plus key index, hash level and family) and hold a strong reference
    to the container, so an ``id()`` is never reused while its entry is
    alive.  Purely an evaluation cache: a hit returns exactly what
    recomputation would, so simulated outcomes cannot depend on cache
    state.  ``hits`` also counts columns satisfied from hash codes
    stored alongside temp files (the bucket-forming → bucket-joining
    reuse); ``misses`` counts columns actually hashed.
    """

    def __init__(self) -> None:
        self._entries: dict[tuple[int, int, int, str],
                            tuple[object, object]] = {}
        self.hits = 0
        self.misses = 0

    def lookup(self, rows: object, key_index: int, level: int,
               family: str) -> object | None:
        """The memoized hash array, or None."""
        entry = self._entries.get((id(rows), key_index, level, family))
        if entry is not None and entry[0] is rows:
            self.hits += 1
            return entry[1]
        return None

    def store(self, rows: object, key_index: int, level: int,
              family: str, hash_array: object,
              computed: bool = True) -> None:
        """Record a resolved column (``computed=False`` marks a reuse
        of persisted hashes, counted as a hit)."""
        if computed:
            self.misses += 1
        else:
            self.hits += 1
        self._entries[(id(rows), key_index, level, family)] = (
            rows, hash_array)


def remix(hash_code: int) -> int:
    """A second, independent scrambling of an existing hash code.

    Bit-vector filters index their bits with ``remix(h) % bits`` so the
    filter bit is statistically independent of the split-table index
    derived from ``h`` (all tuples arriving at one join site share
    ``h mod J``; without the remix they would only exercise a subset of
    the filter).
    """
    z = (hash_code + 0x9E3779B9) & _MASK
    z = ((z ^ (z >> 16)) * 0x85EBCA6B) & _MASK
    z = ((z ^ (z >> 13)) * 0xC2B2AE35) & _MASK
    return z ^ (z >> 16)
