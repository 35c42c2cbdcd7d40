"""One fresh interpreter of the ledger: set up, run passes, report.

``run.py`` starts this file once per child with a scrubbed environment
and reads one JSON object from the last line of its standard output.
Modes:

* ``setup``    — timed set-up only (a ``setup_s`` sample).
* ``measure``  — set-up, one discarded warm-up pass, timed passes with
  tracing off, the reference-join cardinality check; with ``--traced``
  one more pass under ``cProfile`` with kernel counters on.
* ``validate`` — started with ``REPRO_VERIFY=1``: one pass with the
  conformance monitor on and every result compared row by row with
  the reference join.
* ``micro``    — the frozen layer micro-drivers.
* ``cold``     — first backend activation against the (empty)
  ``REPRO_CEXT_CACHE`` the parent points at.

Only ``repro``'s public API is used; the seed reaches the program only
through ``ExperimentConfig.seed`` and the Wisconsin constructors.
"""

import time

T0 = time.perf_counter()  # set-up is timed from before ``import repro``

import argparse  # noqa: E402
import contextlib  # noqa: E402
import cProfile  # noqa: E402
import dataclasses  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import pstats  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402

import attribution  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

#: Never loop longer than this many timed passes.
MAX_PASSES = 64
PHASE_FAMILIES = (("form", (".form", ".part")), ("build", (".build",)),
                  ("probe", (".probe",)), ("sort", (".sort",)),
                  ("merge", (".merge",)))


class Session:
    """A set-up workload: databases loaded, backend active."""

    def __init__(self, args: argparse.Namespace) -> None:
        self.args = args
        self.workload = workloads.get(args.workload, quick=args.quick)
        self.log = spans.SpanLog(f"{args.mode}-{os.getpid()}",
                                 self.workload.name)
        with self.log.span("setup"):
            with self.log.span("experiments.import_s"):
                import repro
                from repro.core import backend
                from repro.experiments.config import ExperimentConfig
                from repro.experiments.runner import run_sweep_point
                from repro.wisconsin.database import WisconsinDatabase
            self.package_root = os.path.dirname(repro.__file__)
            self.run_sweep_point = run_sweep_point
            workload = self.workload
            self.config = ExperimentConfig(
                scale=workload.scale, seed=args.seed,
                num_disk_nodes=workload.num_disk_nodes,
                hardware_profile=workload.hardware_profile,
                topology=workload.topology,
                verify_results=args.mode == "validate")
            self.databases = {}
            with self.log.span("wisconsin.generate_load_s"):
                for database, hpja in workload.databases():
                    if database == "joinabprime":
                        db = WisconsinDatabase.joinabprime(
                            workload.num_disk_nodes, scale=workload.scale,
                            seed=args.seed, hpja=hpja)
                    else:
                        db = WisconsinDatabase.skewed(
                            workload.num_disk_nodes,
                            database.split(":", 1)[1],
                            scale=workload.scale, seed=args.seed)
                    self.databases[database, hpja] = db
            with self.log.span("core.backend_activate_s"):
                self.engine = backend.activate()
        self.setup_s = time.perf_counter() - T0
        #: ``{(pass tag, job index): reason}`` — one entry per failed join.
        self.failures: dict = {}
        #: Tags of the passes run so far.
        self.passes: list = []
        #: Per job, the first pass's record: what later passes repeat.
        self.first: list | None = None

    # -- passes -------------------------------------------------------------

    def run_pass(self, tag: str, config=None, keep_points: bool = False
                 ) -> tuple[float, list]:
        """One pass over the job list: ``(wall seconds, points)``.

        A join that raises is recorded as failed and the pass goes on;
        simulated times and cardinalities are checked against the
        first pass of this process.  The sweep points (results, kernel
        counters) are dropped join by join unless ``keep_points``,
        which also brackets every join with a span: the timed passes
        hold nothing and trace nothing.
        """
        config = config or self.config
        inject = self.args.inject_failure
        records = []
        points = []
        gc.collect()
        start = time.perf_counter()
        for index, job in enumerate(self.workload.jobs):
            algorithm = ("injected-failure" if index == inject
                         else job.algorithm)
            span = (self.log.span(f"run_sweep_point {job.label}")
                    if keep_points else contextlib.nullcontext())
            try:
                with span:
                    point = self.run_sweep_point(
                        config, self.databases[job.database, job.hpja],
                        algorithm, job.memory_ratio,
                        configuration=job.configuration,
                        **dict(job.spec))
            except Exception as exc:  # a failed join, not a crash
                records.append({"label": job.label, "error":
                                f"{type(exc).__name__}: {exc}"[:300]})
                continue
            records.append({
                "label": job.label,
                "response_time": repr(point.response_time),
                "result_tuples": point.result.result_tuples})
            if keep_points:
                points.append(point)
        wall = time.perf_counter() - start
        if self.first is None:
            self.first = records
        self.passes.append(tag)
        for index, (record, first) in enumerate(zip(records, self.first)):
            if "error" in record:
                self.failures[tag, index] = record["error"]
            elif record != first:
                self.failures[tag, index] = (
                    f"differs from the first pass: {first}")
        return wall, points

    def check_against_references(self) -> None:
        """Every join's cardinality against the reference join, and
        with ``--frozen`` its simulated time against ``expected.json``.

        The first pass stands for all of them (the others were checked
        equal to it), so a wrong value fails every pass run.
        """
        with self.log.span("verify.reference_join_s"):
            reference = {key: db.expected_result_tuples
                         for key, db in self.databases.items()}
        frozen = None
        if self.args.frozen:
            with open(self.args.frozen) as handle:
                frozen = json.load(handle)["workloads"][self.workload.name]
        for index, (job, record) in enumerate(
                zip(self.workload.jobs, self.first or ())):
            if "error" in record:
                continue
            record["reference_tuples"] = reference[job.database, job.hpja]
            reasons = []
            if record["result_tuples"] != record["reference_tuples"]:
                reasons.append(f"{record['result_tuples']} result tuples, "
                               f"reference join has "
                               f"{record['reference_tuples']}")
            if frozen is not None:
                want = frozen[index]
                if want["label"] != job.label:
                    reasons.append(f"job list moved: expected.json has "
                                   f"{want['label']!r}")
                if want["result_tuples"] != record["result_tuples"]:
                    reasons.append(f"frozen cardinality is "
                                   f"{want['result_tuples']}")
                if (self.workload.frozen_times and
                        want["response_time"] != record["response_time"]):
                    reasons.append(f"simulated {record['response_time']} s"
                                   f", frozen {want['response_time']} s")
            if reasons:
                for tag in self.passes:
                    self.failures.setdefault((tag, index),
                                             "; ".join(reasons))

    def report(self, **extra) -> dict:
        labels = [job.label for job in self.workload.jobs]
        return {
            "mode": self.args.mode,
            "setup_s": self.setup_s,
            "be_engine": self.engine,
            "rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "attempted": len(self.passes) * len(labels),
            "failed": len(self.failures),
            "failures": [
                {"pass": tag, "job": labels[index], "reason": reason}
                for (tag, index), reason in self.failures.items()][:50],
            "joins": self.first,
            "sim_response_s": sum(float(join.get("response_time", 0.0))
                                  for join in self.first or ()),
            "spans": self.log.export(),
            **extra,
        }


# -- modes ------------------------------------------------------------------

def measure(args: argparse.Namespace) -> dict:
    session = Session(args)
    warm_wall, _ = session.run_pass("warm-up")
    samples: list = []
    while len(samples) < MAX_PASSES:
        wall, _ = session.run_pass(f"timed-{len(samples)}")
        samples.append(wall)
        if sum(samples) >= args.seconds:
            break
    extra = {"warm_wall_s": warm_wall, "wall_s": samples}
    if args.traced:
        extra["traced"] = traced_pass(session, statistics.median(samples))
    session.check_against_references()
    return session.report(**extra)


def traced_pass(session: Session, wall_median: float) -> dict:
    """One pass under cProfile with kernel counters on."""
    config = dataclasses.replace(session.config, profile=True)
    profiler = cProfile.Profile()
    # Timed around the profiler, not around the pass: the package
    # self-times must add up to this.
    start = time.perf_counter()
    profiler.enable()
    _, points = session.run_pass("traced", config, keep_points=True)
    profiler.disable()
    wall = time.perf_counter() - start
    by_file = attribution.self_time_by_file(
        pstats.Stats(profiler).stats, session.package_root)
    metrics = {f"{package}.self_s": seconds for package, seconds in
               attribution.by_package(by_file, workloads.PACKAGES).items()}
    metrics.update(
        (f"{stem}.self_s", seconds) for stem, seconds in
        attribution.by_module(by_file, workloads.MODULE_SPLITS).items())
    metrics["trace.overhead_ratio"] = wall / wall_median
    metrics.update(exact_counts(session, points))
    events = metrics["sim.events_fired"]
    rows = metrics["core.dp_rows_batched"]
    metrics["sim.host_us_per_event"] = (
        wall_median / events * 1e6 if events else 0.0)
    metrics["core.host_us_per_row"] = (
        wall_median / rows * 1e6 if rows else 0.0)
    return {"wall_s": wall, "metrics": metrics}


def exact_counts(session: Session, points: list) -> dict:
    """Counts that repeat exactly, summed over the pass's joins."""
    def total(key: str) -> int:
        return sum(p.kernel_counters.get(key, 0) for p in points)

    results = [p.result for p in points]
    network = [r.network for r in results]
    data_tuples = sum(n.data_tuples for n in network)
    writes = [r.bucket_forming_writes for r in results]
    received = sum(w.tuples_received for w in writes)
    lookups = total("dp_hash_cache_hits") + total("dp_hash_cache_misses")
    utilisation = [statistics.fmean(r.cpu_utilisation.values())
                   for r in results if r.cpu_utilisation]
    counts = {
        "sim.events_fired": total("events_fired"),
        "sim.fastpath_holds": total("fastpath_holds"),
        "sim.heap_peak": max((p.kernel_counters["heap_peak"]
                              for p in points), default=0),
        "sim.sched_cohorts": total("sched_cohorts"),
        "sim.sched_sequenced_cohorts": total("sched_sequenced_cohorts"),
        "sim.sched_calendar_engages": total("sched_calendar_engages"),
        "core.dp_pages_batched": total("dp_pages_batched"),
        "core.dp_rows_batched": total("dp_rows_batched"),
        "core.dp_pages_scalar": total("dp_pages_scalar"),
        "core.dp_packets_batched": total("dp_packets_batched"),
        "core.dp_hash_cache_hit_ratio": (
            total("dp_hash_cache_hits") / lookups if lookups else 0.0),
        "core.be_compiled_calls": total("be_compiled_calls"),
        "core.be_fallback_calls": total("be_fallback_calls"),
        "core.overflow_events": sum(r.overflow_events for r in results),
        "core.filter_eliminated": sum(
            r.counters.get("filter_eliminated", 0) for r in results),
        "network.data_packets": sum(n.data_packets for n in network),
        "network.control_messages": sum(n.control_messages
                                        for n in network),
        "network.data_bytes": sum(n.data_bytes for n in network),
        "network.shortcircuit_fraction": (
            sum(n.data_tuples_shortcircuited for n in network)
            / data_tuples if data_tuples else 0.0),
        "storage.disk_page_reads": sum(r.disk_page_reads
                                       for r in results),
        "storage.disk_page_writes": sum(r.disk_page_writes
                                        for r in results),
        "storage.local_write_fraction": (
            sum(w.tuples_local for w in writes) / received
            if received else 0.0),
        "engine.cpu_utilisation_mean": (
            statistics.fmean(utilisation) if utilisation else 0.0),
        "catalog.rows_loaded": sum(
            db.outer.cardinality + db.inner.cardinality
            for db in session.databases.values()),
    }
    model = dict.fromkeys(
        [family for family, _ in PHASE_FAMILIES] + ["other"], 0.0)
    for result in results:
        for phase in result.phases:
            family = next((family for family, endings in PHASE_FAMILIES
                           if any(ending in phase.name
                                  for ending in endings)), "other")
            model[family] += phase.duration
    counts.update((f"model.{family}_s", seconds)
                  for family, seconds in model.items())
    return counts


def validate(args: argparse.Namespace) -> dict:
    if not os.environ.get("REPRO_VERIFY"):
        raise SystemExit("validate mode needs REPRO_VERIFY=1")
    session = Session(args)
    wall, points = session.run_pass("validation", keep_points=True)
    session.check_against_references()
    reports = [point.verify for point in points if point.verify]
    phases = [phase for report in reports if report["analytic"]
              for phase in report["analytic"]["phases"]]
    return session.report(
        wall_s=wall,
        metrics={
            "verify.checks_passed": sum(
                len(report["invariants"]["checks_passed"])
                for report in reports),
            "verify.analytic_phases_in_band": sum(
                1 for phase in phases if phase["within"]),
            "verify.analytic_worst_rel_err": max(
                (abs(phase["relative"]) for phase in phases
                 if "relative" in phase), default=0.0),
        })


def micro_drivers(args: argparse.Namespace) -> dict:
    import micro
    medians, unstable = micro.run_all(reps=1 if args.quick else 5)
    return {"mode": "micro", "metrics": medians, "unstable": unstable}


def cold_compile(args: argparse.Namespace) -> dict:
    from repro.core import backend
    start = time.perf_counter()
    engine = backend.activate()
    return {"mode": "cold", "be_engine": engine,
            "core.backend_cold_compile_s": time.perf_counter() - start}


MODES = {"setup": lambda args: Session(args).report(),
         "measure": measure, "validate": validate,
         "micro": micro_drivers, "cold": cold_compile}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("mode", choices=sorted(MODES))
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--frozen", metavar="EXPECTED_JSON")
    parser.add_argument("--inject-failure", type=int, default=None)
    args = parser.parse_args()
    print(json.dumps(MODES[args.mode](args)))


if __name__ == "__main__":
    main()
