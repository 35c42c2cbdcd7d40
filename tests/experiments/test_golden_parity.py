"""Golden parity: the optimized kernel reproduces the seed's numbers.

The kernel fast paths (grant-and-hold events, urgent lane, page-level
routing — see DESIGN.md) are pure constant-factor work: every simulated
``response_time`` must stay bit-identical to the values the unoptimized
implementation produced.  Two independent anchors enforce that:

* ``benchmarks/results/golden_scale0.1.json`` — full-precision
  ``repr()`` of every figure-5/7/14 response time, recorded before the
  fast paths existed;
* ``benchmarks/results/figure5.txt`` / ``figure7.txt`` — the rendered
  reports checked in with the seed, compared at their 2-decimal
  precision.

Both are checked with the fast paths on (default) and off
(``REPRO_FASTPATH=0``, the classic request→grant→timeout→release
kernel), so the switch itself is also covered.

The vectorized page-batch data plane (``REPRO_VECTOR`` — see
``repro.core.kernels``) and the columnar relation storage
(``REPRO_COLUMNAR`` — see ``repro.catalog.pages``) make the same
bit-parity promise: figure 5 runs the full FASTPATH × VECTOR ×
COLUMNAR cube against the goldens; figures 7 and 14 (the slower
sweeps) run a subset, each with a tuple-list (``REPRO_COLUMNAR=0``)
spot check.

Every combination runs with ``REPRO_PROFILE=gamma-1989`` and
``REPRO_TOPOLOGY=token-ring`` pinned *explicitly*: the hardware
profile registry and pluggable interconnects (DESIGN.md §14) must
resolve those names to the exact cost model and transport the seed
hard-wired, so the goldens double as parity anchors for the registry
path itself (the unset-env default is covered everywhere else in the
suite).
"""

from __future__ import annotations

import json
import pathlib
import re

import pytest

from repro.experiments import figures
from repro.experiments.config import ExperimentConfig

RESULTS = pathlib.Path(__file__).parents[2] / "benchmarks" / "results"
CONFIG = ExperimentConfig(scale=0.1, seed=1)

#: (figure, REPRO_FASTPATH, REPRO_VECTOR, REPRO_COLUMNAR)
#: combinations under test.  (0, 0, 0) is the seed code path; figure
#: 5 covers the full fastpath × vector × columnar cube; figures 7 and
#: 14 (the slower sweeps — figure14 is 36 remote points) run a
#: subset, each anchored by one tuple-list (columnar=0) combo.
SCENARIOS = [
    ("figure5", fastpath, vector, columnar)
    for fastpath in ("1", "0")
    for vector in ("1", "0")
    for columnar in ("1", "0")
] + [
    ("figure7", "1", "1", "1"),
    ("figure7", "0", "1", "1"),
    ("figure7", "1", "0", "1"),
    ("figure7", "0", "0", "1"),
    ("figure7", "1", "1", "0"),
    ("figure14", "1", "1", "1"),
    ("figure14", "0", "1", "1"),
    ("figure14", "1", "1", "0"),
]

_CACHE: dict = {}


def sweep(name: str, fastpath: str, vector: str,
          columnar: str, monkeypatch) -> figures.Figure:
    key = (name, fastpath, vector, columnar)
    if key not in _CACHE:
        monkeypatch.setenv("REPRO_PROFILE", "gamma-1989")
        monkeypatch.setenv("REPRO_TOPOLOGY", "token-ring")
        monkeypatch.setenv("REPRO_FASTPATH", fastpath)
        monkeypatch.setenv("REPRO_VECTOR", vector)
        monkeypatch.setenv("REPRO_COLUMNAR", columnar)
        _CACHE[key] = getattr(figures, name)(CONFIG)
    return _CACHE[key]


@pytest.fixture(scope="session")
def golden() -> dict:
    with open(RESULTS / "golden_scale0.1.json") as fh:
        return json.load(fh)["figures"]


@pytest.mark.parametrize("name,fastpath,vector,columnar", SCENARIOS)
def test_bit_identical_to_golden(name, fastpath, vector, columnar,
                                 golden, monkeypatch):
    figure = sweep(name, fastpath, vector, columnar, monkeypatch)
    expected = golden[name]
    assert {s.label for s in figure.series} == set(expected)
    for series in figure.series:
        want = expected[series.label]
        assert len(series.points) == len(want)
        for point in series.points:
            assert repr(point.response_time) == want[repr(point.x)], (
                f"{name}/{series.label} diverged at x={point.x} "
                f"(REPRO_FASTPATH={fastpath}, "
                f"REPRO_VECTOR={vector}, REPRO_COLUMNAR={columnar})")


def _parse_rendered(path: pathlib.Path) -> dict[str, list[float]]:
    """Series label -> row of 2-decimal response times, column order."""
    rows: dict[str, list[float]] = {}
    n_columns = None
    for line in path.read_text().splitlines():
        if line.startswith("series"):
            n_columns = len(line.split()) - 1
            continue
        if n_columns is None or not line.strip():
            if rows:
                break
            continue
        parts = re.split(r"\s{2,}", line.strip())
        if len(parts) != n_columns + 1:
            continue
        try:
            rows[parts[0]] = [float(v) for v in parts[1:]]
        except ValueError:
            continue
    assert rows, f"no series rows parsed from {path}"
    return rows


@pytest.mark.parametrize("name,fastpath,vector,columnar",
                         [s for s in SCENARIOS if s[0] != "figure14"])
def test_matches_rendered_report(name, fastpath, vector, columnar,
                                 monkeypatch):
    figure = sweep(name, fastpath, vector, columnar, monkeypatch)
    stored = _parse_rendered(RESULTS / f"{name}.txt")
    for series in figure.series:
        row = stored[series.label]
        assert len(row) == len(series.points)
        for point, value in zip(series.points, row):
            assert f"{point.response_time:.2f}" == f"{value:.2f}", (
                f"{name}/{series.label} at x={point.x}")
