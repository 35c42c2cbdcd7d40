"""Determinism analysis suite.

The whole reproduction rests on the simulator being bit-deterministic:
the golden bit-parity tests and the merged ``--jobs`` sweeps are only
meaningful if no code path depends on wall-clock time, unseeded
randomness, hash/iteration order, or heap tie-breaks.  This package
enforces that mechanically with a static **simulation-purity linter**
(:mod:`repro.analysis.lint`, run as ``python -m repro.analysis.lint``)
whose AST rules ban the hazard patterns outright (see
:mod:`repro.analysis.rules` for the REPRO001… catalog).  How much the
simulated times rest on the heap's insertion-order tie-break is
measured by a test, not at run time: ``tests/sim/test_tie_order.py``
runs figures 5, 7 and 14 with same-instant ties fired in reversed
order and holds every cell within 0.2 % of its golden.

DESIGN.md §8 catalogs the invariants the suite protects.
"""

from repro.analysis.config import LintConfig, load_lint_config
from repro.analysis.linter import (
    Finding,
    StaleSuppression,
    lint_file,
    lint_paths,
    stale_suppressions,
    strip_stale_suppressions,
)
from repro.analysis.rules import RULES

__all__ = [
    "Finding",
    "LintConfig",
    "RULES",
    "StaleSuppression",
    "lint_file",
    "lint_paths",
    "load_lint_config",
    "stale_suppressions",
    "strip_stale_suppressions",
]
