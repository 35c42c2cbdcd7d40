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

The vectorized page-batch data plane (see ``repro.core.kernels``)
makes the same promise against the same anchors.  The columnar
relation storage (``REPRO_COLUMNAR`` — see ``repro.catalog.pages``)
is a pure representation choice, so every figure runs under both
representations.  The kernel backend's two engines (DESIGN.md §15)
are bit-identical too: the cells run the engine the host picks, and
figure 5 runs once more pinned to the numpy fallback.  So are the two
event kernels (DESIGN.md §7): the cells run the one the host picks
(compiled where it builds), and figure 5 runs once more pinned to the
Python kernel.

Every combination runs with ``REPRO_PROFILE=gamma-1989`` and
``REPRO_TOPOLOGY=token-ring`` pinned *explicitly*: the hardware
profile registry and pluggable interconnects (DESIGN.md §14) must
resolve those names to the exact cost model and transport the seed
hard-wired, so the goldens double as parity anchors for the registry
path itself (the unset-env default is covered everywhere else in the
suite).
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
import re

import pytest

from repro.core import backend
from repro.experiments import figures
from repro.experiments.config import ExperimentConfig
from repro.sim import kernel as sim_kernel

RESULTS = pathlib.Path(__file__).parents[2] / "benchmarks" / "results"
CONFIG = ExperimentConfig(scale=0.1, seed=1)

#: (figure, REPRO_COLUMNAR) combinations under test.
SCENARIOS = [
    (name, columnar)
    for name in ("figure5", "figure7", "figure14")
    for columnar in ("1", "0")
]


def scenario_ids(scenarios: list[tuple[str, str]]) -> list[str]:
    """``figure-1-1-columnar``: the two middle positions once named
    kernel and data-plane modes that are now the only ones, and stay
    so each cell keeps its id."""
    return [f"{name}-1-1-{columnar}" for name, columnar in scenarios]


_CACHE: dict = {}


def sweep(name: str, columnar: str, monkeypatch) -> figures.Figure:
    key = (name, columnar)
    if key not in _CACHE:
        monkeypatch.setenv("REPRO_PROFILE", "gamma-1989")
        monkeypatch.setenv("REPRO_TOPOLOGY", "token-ring")
        monkeypatch.setenv("REPRO_COLUMNAR", columnar)
        _CACHE[key] = getattr(figures, name)(CONFIG)
    return _CACHE[key]


@pytest.fixture(scope="session")
def golden() -> dict:
    with open(RESULTS / "golden_scale0.1.json") as fh:
        return json.load(fh)["figures"]


def assert_golden(figure: figures.Figure, expected: dict, how: str) -> None:
    assert {s.label for s in figure.series} == set(expected)
    for series in figure.series:
        want = expected[series.label]
        assert len(series.points) == len(want)
        for point in series.points:
            assert repr(point.response_time) == want[repr(point.x)], (
                f"{series.label} diverged at x={point.x} ({how})")


@pytest.mark.parametrize("name,columnar", SCENARIOS,
                         ids=scenario_ids(SCENARIOS))
def test_bit_identical_to_golden(name, columnar, golden, monkeypatch):
    figure = sweep(name, columnar, monkeypatch)
    assert_golden(figure, golden[name],
                  f"{name}, REPRO_COLUMNAR={columnar}")


@pytest.fixture
def fallback_engine():
    """Pin the numpy kernel engine, then let the host choose again."""
    backend.activate("fallback")
    backend.reset_counters()
    yield
    backend.activate()


def test_fallback_engine_bit_identical_to_golden(golden, monkeypatch,
                                                 fallback_engine):
    """The other cells run the engine the host picks (``cext`` where it
    loads); this one holds the numpy fallback to the same anchor."""
    monkeypatch.setenv("REPRO_PROFILE", "gamma-1989")
    monkeypatch.setenv("REPRO_TOPOLOGY", "token-ring")
    figure = figures.figure5(CONFIG)
    counts = backend.counters()
    assert counts["be_fallback_calls"] > 0
    assert counts["be_compiled_calls"] == 0
    assert_golden(figure, golden["figure5"], "figure5, fallback engine")


@pytest.fixture
def python_kernel():
    """Pin the Python event kernel, then let the host choose again."""
    sim_kernel.activate("python")
    yield
    sim_kernel.activate()


def test_python_kernel_bit_identical_to_golden(golden, monkeypatch,
                                               python_kernel):
    """The other cells run the event kernel the host picks (compiled
    where it builds); this one holds the Python kernel to the same
    anchor."""
    monkeypatch.setenv("REPRO_PROFILE", "gamma-1989")
    monkeypatch.setenv("REPRO_TOPOLOGY", "token-ring")
    figure = figures.figure5(dataclasses.replace(CONFIG, profile=True))
    engines = {point.kernel_counters["sim_engine"]
               for series in figure.series for point in series.points}
    assert engines == {"python"}
    assert_golden(figure, golden["figure5"], "figure5, Python kernel")


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


RENDERED = [s for s in SCENARIOS if s[0] != "figure14"]


@pytest.mark.parametrize("name,columnar", RENDERED,
                         ids=scenario_ids(RENDERED))
def test_matches_rendered_report(name, columnar, monkeypatch):
    figure = sweep(name, columnar, monkeypatch)
    stored = _parse_rendered(RESULTS / f"{name}.txt")
    for series in figure.series:
        row = stored[series.label]
        assert len(row) == len(series.points)
        for point, value in zip(series.points, row):
            assert f"{point.response_time:.2f}" == f"{value:.2f}", (
                f"{name}/{series.label} at x={point.x}")
