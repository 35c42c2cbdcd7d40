#!/usr/bin/env python3
"""The performance ledger: one command, every metric by name.

    python benchmarks/ledger/run.py [--seed 1]         # all five workloads
    python benchmarks/ledger/run.py --compare A.json B.json
    python benchmarks/ledger/run.py --quick            # smoke sizes
    python benchmarks/ledger/run.py --workload NAME --seed N \\
        --seconds S --trace 0|1                        # one PR-driver run

Closed loop, one client: this process starts one fresh child
interpreter at a time (``child.py``) with ``PYTHONHASHSEED=0``, every
``REPRO_*`` variable scrubbed and ``REPRO_CEXT_CACHE`` pointed at a
directory the ledger owns, so the *default* configuration is what is
measured and parent and change commits start equally warm.  It prints
every metric with its unit and sample count, checks every join, writes
the result (and the spans, as Chrome-trace JSON) under ``.work/`` and
exits non-zero when a check failed.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile

LEDGER = pathlib.Path(__file__).resolve().parent
ROOT = LEDGER.parents[1]
SRC = ROOT / "src"
WORK = LEDGER / ".work"
EXPECTED = LEDGER / "expected.json"
CHILD_TIMEOUT_S = 170

sys.path.insert(0, str(LEDGER))

import compare  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


UNITS = {metric.name: metric.unit for metric in workloads.END_TO_END}


class ChildError(RuntimeError):
    """A child interpreter crashed, hung or printed no result."""


def child_env(**extra: str) -> dict:
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(LEDGER)] + ([inherited] if inherited else []))
    env["PYTHONHASHSEED"] = "0"
    env["REPRO_CEXT_CACHE"] = str(WORK / "cext_cache")
    # The C compiler's intermediate files stay in the checkout too.
    env["TMPDIR"] = str(WORK / "tmp")
    (WORK / "tmp").mkdir(parents=True, exist_ok=True)
    env.update(extra)
    return env


def run_child(mode: str, options: argparse.Namespace | None = None,
              workload: str | None = None, traced: bool = False,
              seconds: float = 0.0, **env: str) -> dict:
    command = [sys.executable, str(LEDGER / "child.py"), mode]
    if workload is not None:
        command += ["--workload", workload, "--seed", str(options.seed),
                    "--seconds", repr(seconds)]
        if options.inject_failure is not None:
            command += ["--inject-failure", str(options.inject_failure)]
        if options.seed == 1 and not (options.quick or options.freeze):
            command += ["--frozen", str(EXPECTED)]
    if options is not None and options.quick:
        command.append("--quick")
    if traced:
        command.append("--traced")
    try:
        done = subprocess.run(command, env=child_env(**env), cwd=ROOT,
                              capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise ChildError(f"{mode} child exceeded {CHILD_TIMEOUT_S} s: "
                         f"{' '.join(command)}") from None
    if done.returncode != 0 or not done.stdout.strip():
        raise ChildError(f"{mode} child exited {done.returncode}: "
                         f"{' '.join(command)}\n{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


# -- one workload -------------------------------------------------------------

def summarise(samples: list, unit: str, value: float | None = None
              ) -> dict:
    """Median (or ``value``), quartiles, min and count of ``samples``."""
    q1, _, q3 = (statistics.quantiles(samples, n=4, method="inclusive")
                 if len(samples) > 1 else samples * 3)
    return {"value": statistics.median(samples) if value is None
            else value, "unit": unit, "n": len(samples), "q1": q1,
            "q3": q3, "min": min(samples), "samples": samples}


class Tally:
    """Joins attempted and failed over a workload's children, and
    whether the children agree with each other."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list = []
        self.joins: list | None = None
        self.engine: str | None = None
        self.spans: list = []

    @staticmethod
    def _observed(joins: list) -> list:
        return [(join["label"], join.get("response_time"),
                 join.get("result_tuples")) for join in joins]

    def add(self, report: dict) -> None:
        self.attempted += report["attempted"]
        self.failed += report["failed"]
        self.failures += report["failures"]
        self.spans.append(report["spans"])
        self.engine = self.engine or report["be_engine"]
        if not report["attempted"]:
            return
        if self.joins is None:
            self.joins = report["joins"]
        moved = sum(a != b for a, b in zip(
            self._observed(report["joins"]), self._observed(self.joins)))
        if moved:
            self.failed += moved
            self.failures.append({
                "pass": report["mode"], "job": "*",
                "reason": f"{moved} joins differ between two child "
                          f"interpreters"})

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


def end_to_end(name: str, options: argparse.Namespace) -> dict:
    """The five end-to-end metrics of one workload, tracing off."""
    tally = Tally()
    walls: list = []
    setups: list = []
    rss: list = []
    sim_response_s = None
    for _ in range(options.setups):
        report = run_child("setup", options, name)
        tally.add(report)
        setups.append(report["setup_s"])
    for _ in range(options.children):
        report = run_child("measure", options, name,
                           seconds=options.seconds / options.children)
        tally.add(report)
        walls += report["wall_s"]
        setups.append(report["setup_s"])
        rss.append(report["rss_mb"])
        sim_response_s = report["sim_response_s"]
    metrics = {
        "wall_s": summarise(walls, UNITS["wall_s"]),
        "sim_response_s": {"value": sim_response_s,
                           "unit": UNITS["sim_response_s"], "n": 1},
        "setup_s": summarise(setups, UNITS["setup_s"]),
        "peak_rss_mb": summarise(rss, UNITS["peak_rss_mb"],
                                 value=max(rss)),
        "error_rate": {"value": tally.error_rate,
                       "unit": UNITS["error_rate"], "n": tally.attempted},
    }
    return {"metrics": metrics, "tally": tally}


def per_layer(name: str, options: argparse.Namespace) -> dict:
    """Every per-layer metric of one workload: a traced pass after a
    few untraced ones, a validation child, the micro-drivers and a
    cold backend build."""
    tally = Tally()
    measured = run_child("measure", options, name, traced=True,
                         seconds=options.seconds / 2)
    tally.add(measured)
    validated = run_child("validate", options, name, REPRO_VERIFY="1")
    tally.add(validated)
    micro = run_child("micro", options)
    cold_cache = tempfile.mkdtemp(prefix="cold_cache_", dir=WORK)
    try:
        cold = run_child("cold", REPRO_CEXT_CACHE=cold_cache)
    finally:
        shutil.rmtree(cold_cache, ignore_errors=True)
    if micro["unstable"]:
        tally.failed += len(micro["unstable"])
        tally.failures.append({
            "pass": "micro", "job": ", ".join(micro["unstable"]),
            "reason": "micro-driver digest moved between repetitions"})
    tally.attempted += len(micro["metrics"])

    wall = statistics.median(measured["wall_s"])
    values = dict(measured["traced"]["metrics"])
    values.update(validated["metrics"])
    values.update(micro["metrics"])
    values["core.first_pass_penalty_s"] = measured["warm_wall_s"] - wall
    values["verify.monitor_overhead_ratio"] = validated["wall_s"] / wall
    values["core.backend_cold_compile_s"] = (
        cold["core.backend_cold_compile_s"])
    children = (measured["spans"], validated["spans"])
    for span in ("experiments.import_s", "wisconsin.generate_load_s"):
        values[span] = statistics.median(
            spans.duration(export, span) for export in children)
    values["verify.reference_join_s"] = spans.duration(
        measured["spans"], "verify.reference_join_s")
    values["sim_response_s"] = measured["sim_response_s"]
    values["error_rate"] = tally.error_rate
    counts = {"experiments.import_s": 2, "wisconsin.generate_load_s": 2,
              "error_rate": tally.attempted,
              **dict.fromkeys(micro["metrics"], 1 if options.quick else 5)}
    metrics = {
        metric.name: {"value": values[metric.name], "unit": metric.unit,
                      "n": counts.get(metric.name, 1)}
        for metric in workloads.PER_LAYER}
    return {"metrics": metrics, "tally": tally,
            "traced_wall_s": measured["traced"]["wall_s"]}


# -- printing -----------------------------------------------------------------

def print_metrics(workload: str, metrics: dict) -> None:
    for name, metric in metrics.items():
        line = (f"{workload:<20} {name:<34} {metric['value']:>14.6g} "
                f"{metric['unit']:<9} n={metric['n']}")
        if "q1" in metric:
            line += (f"  q1={metric['q1']:.6g} q3={metric['q3']:.6g} "
                     f"min={metric['min']:.6g}")
        print(line)


def print_failures(tally: Tally) -> None:
    for failure in tally.failures[:20]:
        print(f"FAILED {failure['pass']} {failure['job']}: "
              f"{failure['reason']}", file=sys.stderr)


def stamp(options: argparse.Namespace, engine: str | None) -> dict:
    try:
        revision = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        revision = "unknown"
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "missing"
    return {"git": revision, "python": platform.python_version(),
            "numpy": numpy_version, "nproc": os.cpu_count(),
            "be_engine": engine, "seed": options.seed,
            "quick": options.quick, "seconds": options.seconds}


# -- commands -----------------------------------------------------------------

def run_for_driver(options: argparse.Namespace) -> int:
    """One workload, one kind of metric, one JSON line last."""
    name = options.workload
    part = (per_layer if options.trace else end_to_end)(name, options)
    tally = part["tally"]
    print_metrics(name, part["metrics"])
    print_failures(tally)
    write_trace(f"trace-{name}-seed{options.seed}.json", tally.spans)
    listed = ([m.name for m in workloads.PER_LAYER] if options.trace else
              [m.name for m in workloads.END_TO_END if m.driver])
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {key: {"value": part["metrics"][key]["value"],
                          "unit": part["metrics"][key]["unit"]}
                    for key in listed}}))
    return 0 if tally.failed == 0 else 1


def run_ledger(options: argparse.Namespace) -> int:
    """All workloads, every metric; the result file ``--compare``
    reads."""
    result: dict = {"schema": 1, "workloads": {}}
    exports: list = []
    failed = 0
    engine = None
    for workload in workloads.WORKLOADS:
        outer = end_to_end(workload.name, options)
        inner = per_layer(workload.name, options)
        tallies = (outer["tally"], inner["tally"])
        attempted = sum(t.attempted for t in tallies)
        errors = sum(t.failed for t in tallies)
        outer["metrics"]["error_rate"] = {
            "value": errors / attempted, "unit": UNITS["error_rate"],
            "n": attempted}
        layer = {key: value for key, value in inner["metrics"].items()
                 if key not in outer["metrics"]}
        print_metrics(workload.name, outer["metrics"])
        print_metrics(workload.name, layer)
        for tally in tallies:
            print_failures(tally)
            exports += tally.spans
        failed += errors
        engine = engine or outer["tally"].engine
        result["workloads"][workload.name] = {
            "end_to_end": outer["metrics"], "per_layer": layer,
            "attempted": attempted, "failed": errors,
            "failures": [f for t in tallies for f in t.failures],
            "joins": outer["tally"].joins,
            "traced_wall_s": inner["traced_wall_s"]}
    result["stamp"] = stamp(options, engine)
    if options.freeze:
        freeze(result)
    out = pathlib.Path(options.out or WORK / (
        f"ledger-seed{options.seed}{'-quick' if options.quick else ''}"
        f".json"))
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(result, indent=1) + "\n")
    write_trace(out.with_suffix(".trace.json").name, exports,
                directory=out.parent)
    print(f"result: {out}   failed joins: {failed}")
    return 0 if failed == 0 else 1


def write_trace(filename: str, exports: list,
                directory: pathlib.Path = WORK) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    spans.write_chrome_trace(str(directory / filename), exports)


def freeze(result: dict) -> None:
    """Write ``expected.json`` from a seed-1 run of this commit."""
    frozen = {}
    for workload in workloads.WORKLOADS:
        frozen[workload.name] = [
            {"label": join["label"],
             "response_time": (join["response_time"]
                               if workload.frozen_times else None),
             "result_tuples": join["reference_tuples"]}
            for join in result["workloads"][workload.name]["joins"]]
    EXPECTED.write_text(json.dumps(
        {"seed": 1, "git": result["stamp"]["git"], "workloads": frozen},
        indent=1) + "\n")
    print(f"froze {EXPECTED}")


def main(argv: list | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", help="one workload (PR-driver run)",
                        choices=[w.name for w in workloads.WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed passes per workload, in total "
                             "(default 30; PR-driver runs pass 15)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: 0 = end-to-end metrics, "
                             "1 = per-layer metrics")
    parser.add_argument("--quick", action="store_true",
                        help="scale <= 0.05, <= 16 nodes, one pass")
    parser.add_argument("--out", help="result file (default under .work/)")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--freeze", action="store_true",
                        help="rewrite expected.json from this run "
                             "(seed 1, full size only)")
    parser.add_argument("--inject-failure", type=int, default=None,
                        metavar="JOB", help="make job JOB of every pass "
                                            "fail (tests the checks)")
    options = parser.parse_args(argv)
    if options.compare:
        return compare.main(*options.compare)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {SRC / 'repro'} is missing",
              file=sys.stderr)
        return 2
    if options.freeze and (options.seed != 1 or options.quick
                           or options.workload):
        parser.error("--freeze needs a full run at seed 1")
    # (measuring interpreters, extra set-up-only interpreters, seconds)
    if options.quick:
        options.children, options.setups, options.seconds = 1, 1, 0.0
    elif options.workload:
        options.children, options.setups = 1, 4
    else:
        options.children, options.setups = 2, 3
    if options.seconds is None:
        options.seconds = 30.0
    try:
        if options.workload:
            return run_for_driver(options)
        return run_ledger(options)
    except ChildError as error:
        print(f"ledger failed: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
