"""Tests for the hash function family."""

import collections

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import hashing


class TestHashBasics:
    def test_deterministic(self):
        assert hashing.hash_int(12345) == hashing.hash_int(12345)

    def test_range(self):
        for value in (0, 1, 99_999, 2**31):
            assert 0 <= hashing.hash_int(value) < hashing.HASH_MODULUS

    def test_levels_differ(self):
        value = 4242
        codes = {hashing.hash_int(value, level) for level in range(6)}
        assert len(codes) == 6

    def test_level_multipliers_odd(self):
        for level in range(50):
            assert hashing.level_multiplier(level) % 2 == 1

    def test_negative_level_rejected(self):
        with pytest.raises(ValueError):
            hashing.hash_int(1, level=-1)

    def test_string_hashing(self):
        assert hashing.hash_str("abc") != hashing.hash_str("abd")
        assert 0 <= hashing.hash_str("") < hashing.HASH_MODULUS

    def test_hash_value_dispatch(self):
        assert hashing.hash_value(7) == hashing.hash_int(7)
        assert hashing.hash_value("x") == hashing.hash_str("x")
        with pytest.raises(TypeError):
            hashing.hash_value(3.14)


class TestBalanceProperties:
    """The distribution properties the reproduction relies on
    (see repro/hashing.py docstring)."""

    def test_consecutive_keys_perfectly_balanced_mod_power_of_two(self):
        """Wisconsin unique1 (consecutive ints) split over 8 sites is
        exactly balanced — why the paper's uniform experiments never
        overflow."""
        counts = collections.Counter(
            hashing.hash_int(v) % 8 for v in range(8000))
        assert set(counts.values()) == {1000}

    def test_consecutive_keys_near_balanced_mod_general(self):
        counts = collections.Counter(
            hashing.hash_int(v) % 48 for v in range(9600))
        # Lattice structure keeps every class within ~10% of the mean.
        assert max(counts.values()) <= 1.10 * (9600 / 48)
        assert min(counts.values()) >= 0.90 * (9600 / 48)

    def test_duplicates_collide(self):
        """All copies of a join value share a hash — skewed values
        chain at one site (§4.4)."""
        a = hashing.hash_int(50_000)
        b = hashing.hash_int(50_000)
        assert a == b

    def test_hpja_congruence(self):
        """h mod D is determined by h mod (N*D): bucket-forming
        writes stay local for HPJA joins (Appendix A)."""
        for v in range(0, 5000, 13):
            h = hashing.hash_int(v)
            assert (h % 24) % 8 == h % 8


class TestRemix:
    def test_remix_differs_from_identity(self):
        codes = [hashing.hash_int(v) for v in range(100)]
        assert any(hashing.remix(c) != c for c in codes)

    def test_remix_deterministic(self):
        assert hashing.remix(999) == hashing.remix(999)

    def test_remix_decorrelates_site_residue(self):
        """Tuples sharing h mod 8 (one site's stream) still exercise
        the full filter index range."""
        same_site = [hashing.hash_int(v) for v in range(4000)
                     if hashing.hash_int(v) % 8 == 3]
        bits = {hashing.remix(h) % 64 for h in same_site}
        assert len(bits) == 64


@given(st.integers(min_value=0, max_value=2**40),
       st.integers(min_value=0, max_value=10))
@settings(max_examples=200, deadline=None)
def test_hash_in_range_property(value, level):
    code = hashing.hash_int(value, level)
    assert 0 <= code < hashing.HASH_MODULUS


@given(st.text(max_size=30))
@settings(max_examples=100, deadline=None)
def test_string_hash_in_range_property(text):
    assert 0 <= hashing.hash_str(text) < hashing.HASH_MODULUS
