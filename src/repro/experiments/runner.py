"""Sweep execution and result containers.

A figure is a set of :class:`Series` (one line each) over the memory
ratio x-axis; a table is a :class:`Table` of labelled cells.  Each
data point is produced by :func:`run_sweep_point`, which builds a
fresh machine (response times are measured from simulated t = 0),
runs the join, optionally verifies the result rows against the
reference join, and keeps the full :class:`~repro.core.joins.base
.JoinResult` for inspection.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import multiprocessing
import os
import typing

from repro.catalog.pages import columnar_enabled
from repro.core.joins import JoinResult, run_join
from repro.core.joins.reference import assert_same_result
from repro.costs import resolve_profile_name
from repro.engine.machine import GammaMachine
from repro.experiments.config import ExperimentConfig
from repro.network.topology import resolve_topology_name
from repro.wisconsin.database import WisconsinDatabase


@dataclasses.dataclass
class SweepPoint:
    """One (x, y) measurement plus its full join result."""

    x: float
    response_time: float
    result: JoinResult | None = None
    #: Simulation-kernel diagnostics for this point (events fired,
    #: fast-path holds, heap peak) — collected when the config's
    #: ``profile`` flag is on.
    kernel_counters: dict | None = None
    #: Conformance payload ({"invariants": monitor ledger,
    #: "analytic": per-phase analytic-vs-simulated report or None}) —
    #: collected whenever ``REPRO_VERIFY`` is on (see repro.verify);
    #: plain data so ``--jobs`` workers can ship it home.
    verify: dict | None = None

    def __iter__(self):
        return iter((self.x, self.response_time))


@dataclasses.dataclass
class Series:
    """One labelled line of a figure."""

    label: str
    points: list[SweepPoint] = dataclasses.field(default_factory=list)

    def add(self, point: SweepPoint) -> None:
        self.points.append(point)

    @property
    def xs(self) -> list[float]:
        return [p.x for p in self.points]

    @property
    def ys(self) -> list[float]:
        return [p.response_time for p in self.points]

    def y_at(self, x: float, tolerance: float = 1e-6) -> float:
        for point in self.points:
            if abs(point.x - x) <= tolerance:
                return point.response_time
        raise KeyError(f"series {self.label!r} has no point at x={x}")


@dataclasses.dataclass
class Table:
    """A labelled grid of measurements (Tables 2-4 of the paper)."""

    title: str
    row_labels: list[str]
    column_labels: list[str]
    cells: dict = dataclasses.field(default_factory=dict)

    def set(self, row: str, column: str, value: float) -> None:
        self.cells[(row, column)] = value

    def get(self, row: str, column: str) -> float:
        return self.cells[(row, column)]

    def has(self, row: str, column: str) -> bool:
        return (row, column) in self.cells


def build_machine(config: ExperimentConfig, configuration: str
                  ) -> GammaMachine:
    """A fresh machine of the requested §4 configuration."""
    if configuration == "remote":
        return GammaMachine.remote(config.num_disk_nodes,
                                   config.num_remote_join_nodes,
                                   costs=config.hardware_profile,
                                   topology=config.topology)
    return GammaMachine.local(config.num_disk_nodes,
                              costs=config.hardware_profile,
                              topology=config.topology)


def auto_capacity_slack(inner_tuples: int, memory_ratio: float,
                        num_disks: int) -> float:
    """Scale-aware hash-table sizing headroom.

    Hash quantisation noise is a near-constant handful of tuples per
    (bucket, site) cell, so the *relative* slack a reduced-scale run
    needs grows as cells shrink.  At the paper's scale (cells of
    ~200+ tuples) this evaluates to the library default (~1.10); at
    bench scales it widens just enough that the uniform experiments
    stay overflow-free, exactly as Gamma's were (§4).
    """
    expected_cell = max(1.0, inner_tuples * memory_ratio / num_disks)
    return max(1.10, 1.06 + 7.0 / expected_cell)


def run_sweep_point(config: ExperimentConfig, db: WisconsinDatabase,
                    algorithm: str, memory_ratio: float,
                    configuration: str = "local",
                    keep_result: bool = True,
                    **spec_kwargs: typing.Any) -> SweepPoint:
    """Run one join at one memory ratio on a fresh machine."""
    machine = build_machine(config, configuration)
    if "capacity_slack" not in spec_kwargs:
        spec_kwargs["capacity_slack"] = auto_capacity_slack(
            db.inner.cardinality, memory_ratio,
            config.num_disk_nodes)
    result = run_join(
        algorithm, machine, db.outer, db.inner,
        inner_attribute=db.inner_attribute,
        outer_attribute=db.outer_attribute,
        memory_ratio=memory_ratio,
        configuration=configuration,
        collect_result=config.verify_results,
        **spec_kwargs)
    if config.verify_results:
        assert_same_result(result.result_rows, db.expected_result_rows)
    verify = None
    if machine.monitor is not None:
        from repro.verify.analytic import assess
        verify = {"invariants": machine.monitor.summary(),
                  "analytic": assess(machine, db, result)}
    return SweepPoint(x=memory_ratio,
                      response_time=result.response_time,
                      result=result if keep_result else None,
                      kernel_counters=({**machine.sim.kernel_counters(),
                                        **machine.dataplane_counters(),
                                        "net_control_messages":
                                            result.network.control_messages,
                                        "net_eos_messages":
                                            result.network.eos_messages}
                                       if config.profile else None),
                      verify=verify)


# ---------------------------------------------------------------------------
# Parallel sweep execution
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class SweepJob:
    """A picklable description of one sweep point.

    Carries everything a worker process needs to reproduce the point
    from scratch: the database is *not* shipped — workers rebuild the
    Wisconsin relations from ``(num_disk_nodes, scale, seed, hpja)``,
    which is deterministic, and cache them per process.  ``spec_kwargs``
    is a tuple of (name, value) pairs so the job hashes and pickles.
    """

    algorithm: str
    memory_ratio: float
    configuration: str = "local"
    hpja: bool = True
    keep_result: bool = True
    spec_kwargs: tuple = ()


#: Per-process cache of generated databases, keyed by the parameters
#: that determine their content.  Populated lazily in each worker (and
#: in the parent for in-process runs); entries are immutable inputs so
#: sharing across sweeps is safe.
_DB_CACHE: dict = {}


def sweep_database(config: ExperimentConfig, hpja: bool
                   ) -> WisconsinDatabase:
    """The (cached) joinABprime database for this config.

    ``REPRO_COLUMNAR`` is part of the key: the gate is honored at
    generation time (fragments are built columnar or tuple-list), so
    harnesses that flip the environment between runs must not be
    handed a database of the other representation.  The resolved
    hardware profile and interconnect topology are part of the key
    for the same defensive reason: relation content is independent of
    both *today*, but a sweep that interleaves profiles (the scale-out
    A/B driver does, including under ``--jobs``) must never be able to
    observe a database primed under the other hardware model.
    """
    key = (config.num_disk_nodes, config.scale, config.seed, hpja,
           columnar_enabled(),
           resolve_profile_name(config.hardware_profile),
           resolve_topology_name(config.topology))
    db = _DB_CACHE.get(key)
    if db is None:
        db = WisconsinDatabase.joinabprime(
            config.num_disk_nodes, scale=config.scale,
            seed=config.seed, hpja=hpja)
        _DB_CACHE[key] = db
    return db


def _run_job(config: ExperimentConfig, job: SweepJob) -> SweepPoint:
    """Worker entry point: rebuild inputs, run one point."""
    db = sweep_database(config, job.hpja)
    return run_sweep_point(
        config, db, job.algorithm, job.memory_ratio,
        configuration=job.configuration,
        keep_result=job.keep_result,
        **dict(job.spec_kwargs))


def _fork_context() -> typing.Any:
    """The ``fork`` multiprocessing context, or None where unsupported.

    Forked workers inherit the parent's ``_DB_CACHE`` copy-on-write,
    which is what makes the parent-side prefill in
    :func:`run_sweep_points` a *shared-memory database cache*: the
    Wisconsin relations are built once and never pickled nor rebuilt.
    On spawn-only platforms workers fall back to rebuilding their own
    cached copy (deterministic, so results are identical — just
    slower on the first point per worker).
    """
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - spawn-only platform
        return None


def run_sweep_points(config: ExperimentConfig,
                     jobs: typing.Sequence[SweepJob]
                     ) -> list[SweepPoint]:
    """Run independent sweep points, optionally across processes.

    With ``config.jobs > 1`` the points are farmed to a
    ``ProcessPoolExecutor`` and results are returned in job order,
    bit-identical to the sequential run (each point is a
    self-contained simulation).  Two provisions keep ``--jobs`` an
    actual optimisation (see EXPERIMENTS.md):

    * on a single-core host — or for a single job — the pool is
      skipped entirely: interpreter startup plus result pickling can
      only lose when nothing runs concurrently;
    * where ``fork`` is available, every distinct database the jobs
      need is built *before* the pool starts, so workers inherit the
      built relations through copy-on-write pages instead of each
      rebuilding them from the generators.
    """
    n_workers = min(config.jobs, len(jobs))
    if n_workers > 1 and (os.cpu_count() or 1) <= 1:
        n_workers = 1
    if n_workers <= 1:
        return [_run_job(config, job) for job in jobs]
    mp_context = _fork_context()
    if mp_context is not None:
        # Shared-memory database cache: prefill before forking.
        # (dict.fromkeys, not a set: deterministic build order.)
        for hpja in dict.fromkeys(job.hpja for job in jobs):
            sweep_database(config, hpja)
    with concurrent.futures.ProcessPoolExecutor(
            max_workers=n_workers, mp_context=mp_context) as pool:
        return list(pool.map(_run_job, [config] * len(jobs), jobs))
