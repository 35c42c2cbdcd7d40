"""Wisconsin benchmark relation generator.

The standard schema (§4 of the paper: "thirteen 4-byte integer values
and three 52-byte string attributes"):

==============  =====================================================
attribute       contents (for a relation of n tuples)
==============  =====================================================
unique1         0..n-1, random order (candidate key, join attribute)
unique2         0..n-1, sequential (primary key)
two             unique1 mod 2
four            unique1 mod 4
ten             unique1 mod 10
twenty          unique1 mod 20
onePercent      unique1 mod 100
tenPercent      unique1 mod 10 (percent-selectivity helper)
twentyPercent   unique1 mod 5
fiftyPercent    unique1 mod 2
unique3         unique1 (copy)
evenOnePercent  onePercent * 2
normal          integer draw from normal(50 000, 750) clipped to the
                domain — the §4.4 skewed join attribute (it replaces
                the original benchmark's oddOnePercent so the skew
                experiments need no schema change; width unchanged)
stringu1        52-char string derived from unique1
stringu2        52-char string derived from unique2
string4         52 chars cycling through four fixed patterns
==============  =====================================================

String attributes are, by default, *not* materialised: rows carry an
empty string and all size accounting uses the declared 52-byte widths
(see :mod:`repro.catalog.schema`).  Pass ``materialize_strings=True``
for full-fidelity payloads; nothing in the simulation's arithmetic
changes, only Python memory use.
"""

from __future__ import annotations

import typing

import numpy as np

from repro.catalog.pages import ColumnPage, ConstColumn, columnar_enabled
from repro.catalog.schema import Attribute, Schema
from repro.wisconsin.distributions import (normal_attribute_array,
                                           normal_attribute_values)

Row = typing.Tuple

WISCONSIN_STRING_WIDTH = 52

_INT_ATTRIBUTES = (
    "unique1", "unique2", "two", "four", "ten", "twenty", "onePercent",
    "tenPercent", "twentyPercent", "fiftyPercent", "unique3",
    "evenOnePercent", "normal",
)
_STRING_ATTRIBUTES = ("stringu1", "stringu2", "string4")

_STRING4_PATTERNS = ("AAAA", "HHHH", "OOOO", "VVVV")


def wisconsin_schema(name: str = "wisconsin") -> Schema:
    """The 208-byte, 16-attribute Wisconsin schema."""
    attributes = [Attribute.integer(a) for a in _INT_ATTRIBUTES]
    attributes.extend(Attribute.string(a, WISCONSIN_STRING_WIDTH)
                      for a in _STRING_ATTRIBUTES)
    return Schema(attributes, name=name)


def _unique_string(value: int) -> str:
    """The benchmark's 52-char string: seven significant letters
    (base-26 of the value) padded with x."""
    letters = []
    v = value
    for _ in range(7):
        letters.append(chr(ord("A") + v % 26))
        v //= 26
    return "".join(reversed(letters)).ljust(WISCONSIN_STRING_WIDTH, "x")


class WisconsinGenerator:
    """Deterministic generator for benchmark relations.

    Examples
    --------
    >>> gen = WisconsinGenerator(seed=42)
    >>> rows = gen.relation_rows(1000)
    >>> len(rows), len(set(r[0] for r in rows))
    (1000, 1000)
    """

    def __init__(self, seed: int = 0,
                 materialize_strings: bool = False) -> None:
        self.seed = seed
        self.materialize_strings = materialize_strings
        self._rng = np.random.default_rng(seed)
        self.schema = wisconsin_schema()

    def relation_rows(self, n: int, domain: int | None = None,
                      normal_mean: float | None = None,
                      normal_stddev: float = 750.0
                      ) -> typing.Sequence[Row]:
        """Generate ``n`` benchmark tuples.

        Returns a :class:`~repro.catalog.pages.ColumnPage` when the
        columnar representation is on (``REPRO_COLUMNAR``, default)
        and strings are not materialized, else a list of tuples; both
        hold bit-identical values and support the same row access.

        Parameters
        ----------
        n:
            Cardinality; unique1/unique2 range over ``0..n-1``.
        domain:
            Domain of the ``normal`` attribute (defaults to ``n``).
        normal_mean, normal_stddev:
            Parameters of the skewed attribute; the mean defaults to
            the middle of the domain, matching the paper's
            normal(50 000, 750) over 0..99 999 at full scale.
        """
        if n < 0:
            raise ValueError(f"n must be >= 0, got {n}")
        domain = n if domain is None else domain
        mean = domain / 2 if normal_mean is None else normal_mean
        # The paper's stddev is 0.75% of the domain; scale it down
        # with the domain so reduced-scale runs keep the same shape.
        stddev = normal_stddev * (domain / 100_000 if domain < 100_000
                                  else 1.0)
        stddev = max(stddev, 1.0)
        unique1 = self._rng.permutation(n)
        if columnar_enabled() and not self.materialize_strings:
            # The page's column matrix filled straight from the
            # generator — no tuple list and no second copy of the
            # relation is ever built.  Every value is bit-identical to
            # the scalar loop below: the modulo arithmetic is over the
            # same non-negative int64 values, and the normal column
            # shares one rng.normal draw with the list variant.
            block = np.empty((13, n), dtype=np.int64)
            block[12] = normal_attribute_array(
                n, self._rng, mean=mean, stddev=stddev, domain=domain)
            u1 = block[0]
            u1[:] = unique1
            block[1] = np.arange(n, dtype=np.int64)
            block[10] = u1
            for row, modulus in ((2, 2), (3, 4), (4, 10), (5, 20),
                                 (6, 100), (8, 5)):
                np.remainder(u1, modulus, out=block[row])
            block[7] = block[4]
            block[9] = block[2]
            np.multiply(block[6], 2, out=block[11])
            return ColumnPage.from_block(block, (ConstColumn(""),) * 3)
        normal_values = normal_attribute_values(
            n, self._rng, mean=mean, stddev=stddev, domain=domain)
        rows: list[Row] = []
        for unique2 in range(n):
            u1 = int(unique1[unique2])
            one_percent = u1 % 100
            if self.materialize_strings:
                strings = (_unique_string(u1), _unique_string(unique2),
                           _STRING4_PATTERNS[unique2 % 4].ljust(
                               WISCONSIN_STRING_WIDTH, "x"))
            else:
                strings = ("", "", "")
            rows.append((
                u1, unique2, u1 % 2, u1 % 4, u1 % 10, u1 % 20,
                one_percent, u1 % 10, u1 % 5, u1 % 2, u1,
                one_percent * 2, normal_values[unique2],
            ) + strings)
        return rows

    def sample_rows(self, rows: typing.Sequence[Row], k: int
                    ) -> typing.Sequence[Row]:
        """``k`` rows sampled without replacement — how the paper built
        the 10 000-tuple relation of §4.4 ("randomly selecting 10,000
        tuples from the 100,000 tuple relation")."""
        if k > len(rows):
            raise ValueError(
                f"cannot sample {k} rows from {len(rows)}")
        indices = self._rng.choice(len(rows), size=k, replace=False)
        keep = sorted(int(i) for i in indices)
        if isinstance(rows, ColumnPage):
            return rows.take(keep)
        return [rows[i] for i in keep]
