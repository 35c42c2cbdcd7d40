"""Experiment configuration shared by every figure/table reproduction."""

from __future__ import annotations

import dataclasses
import os

#: The exact memory ratios of the paper's sweeps: each corresponds to
#: an integral Grace/Hybrid bucket count (1..6) — "we chose to plot
#: response times when the available memory ratio corresponded to an
#: integral number of buckets" (§4.1).
PAPER_MEMORY_RATIOS = (1.0, 1 / 2, 1 / 3, 1 / 4, 1 / 5, 1 / 6)

#: Finer grid used by Figure 7's intermediate-point study.
FIGURE7_RATIOS = (0.5, 0.6, 0.7, 0.8, 0.9, 1.0)


@dataclasses.dataclass(frozen=True)
class ExperimentConfig:
    """Knobs shared across the harness.

    ``scale`` multiplies the Wisconsin cardinalities (1.0 = the
    paper's 100 000 × 10 000 joinABprime); benchmarks default to a
    reduced scale via the ``REPRO_SCALE`` environment variable so the
    suites stay fast, while the ``gamma-joins`` CLI defaults to full
    scale.
    """

    scale: float = 1.0
    seed: int = 1
    num_disk_nodes: int = 8
    num_remote_join_nodes: int = 8
    memory_ratios: tuple = PAPER_MEMORY_RATIOS
    #: §4.4 experiments size hash tables with this slack (sampled,
    #: non-consecutive keys need binomial headroom; genuine skew still
    #: overflows) — see DESIGN.md §"Invariants".
    skew_capacity_slack: float = 1.06
    #: Verify every join's result rows against the reference join.
    #: Exhaustive but slower; the CLI enables it with --verify.
    verify_results: bool = False
    #: Worker processes for independent sweep points (1 = in-process).
    #: Simulated times are identical at any job count — each point is
    #: a self-contained deterministic simulation; parallelism only
    #: changes which OS process runs it.  Set via ``REPRO_JOBS`` or
    #: the CLI's ``--jobs``.
    jobs: int = 1
    #: Collect per-point kernel counters and emit cProfile output
    #: (the CLI's ``--profile``).
    profile: bool = False
    #: Named hardware profile for every machine the sweep builds
    #: (``repro.costs.PROFILES``); None defers to ``REPRO_PROFILE``
    #: (default ``gamma-1989``).  Distinct from ``profile``, the
    #: cProfile switch above.
    hardware_profile: "str | None" = None
    #: Interconnect topology for every machine the sweep builds
    #: (``repro.network.topology.TOPOLOGIES``); None defers to
    #: ``REPRO_TOPOLOGY`` (default ``token-ring``).
    topology: "str | None" = None

    @classmethod
    def from_environment(cls, default_scale: float = 1.0
                         ) -> "ExperimentConfig":
        """Build a config honouring ``REPRO_SCALE`` / ``REPRO_SEED`` /
        ``REPRO_JOBS``."""
        scale = float(os.environ.get("REPRO_SCALE", default_scale))
        seed = int(os.environ.get("REPRO_SEED", 1))
        jobs = int(os.environ.get("REPRO_JOBS", 1))
        return cls(scale=scale, seed=seed, jobs=jobs)
