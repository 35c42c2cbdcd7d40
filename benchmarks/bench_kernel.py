"""Record kernel/suite timings into the BENCH_kernel.json trajectory.

Appends one sample per invocation to ``BENCH_kernel.json`` at the repo
root: wall-clock times for the figure-5 sweep (the
``test_fig05_hpja_local.py`` workload) at each requested ``--jobs``
level, plus the pure-kernel microbenchmark from
``test_kernel_microbench.py``.  Every PR that touches the kernel should
append a sample so the perf trajectory stays judgeable.

The script runs against whatever ``repro`` is importable, so a
baseline for an older revision can be recorded by pointing
``PYTHONPATH`` at that revision's ``src`` (configs without the ``jobs``
field simply skip the multi-job measurements)::

    PYTHONPATH=src python benchmarks/bench_kernel.py --label after
    PYTHONPATH=/path/to/seed/src python benchmarks/bench_kernel.py \\
        --label seed

Timings are wall-clock on a possibly noisy machine; compare medians
across interleaved runs before drawing conclusions.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import pathlib
import platform
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]
DEFAULT_OUT = ROOT / "BENCH_kernel.json"

# Make ``benchmarks.*`` importable when run as a script, and fall back
# to this repo's ``src`` for ``repro`` unless PYTHONPATH already
# points somewhere (e.g. an older revision being baselined).
sys.path.insert(0, str(ROOT))
sys.path.append(str(ROOT / "src"))


def _git_revision() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def _summary(times: list) -> dict:
    return {
        "times_s": [round(t, 4) for t in times],
        "min_s": round(min(times), 4),
        "mean_s": round(sum(times) / len(times), 4),
    }


def time_figure5(scale: float, jobs: int, reps: int) -> dict | None:
    from repro.experiments import figures
    from repro.experiments.config import ExperimentConfig

    fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
    kwargs = {"scale": scale, "seed": 1}
    if "jobs" in fields:
        kwargs["jobs"] = jobs
    elif jobs != 1:
        return None  # revision predates the parallel runner
    config = ExperimentConfig(**kwargs)
    times = []
    for _ in range(reps):
        started = time.perf_counter()
        figures.figure5(config)
        times.append(time.perf_counter() - started)
    return _summary(times)


def time_microbench(reps: int) -> dict:
    from benchmarks.test_kernel_microbench import run_kernel_workload

    times = []
    for _ in range(reps):
        started = time.perf_counter()
        run_kernel_workload()
        times.append(time.perf_counter() - started)
    return _summary(times)


def time_dataplane(reps: int) -> dict | None:
    """Data-plane microbench (hash/filter/build/probe, no simulator).

    Runs the vector arm when ``repro.core.kernels`` is importable,
    else the scalar arm — so a pre-kernels revision baselined via
    PYTHONPATH records the scalar numbers the vector plane replaced.
    """
    try:
        from benchmarks.test_kernel_microbench import run_dataplane_workload
    except ImportError:
        return None  # revision predates the data-plane microbench
    run_dataplane_workload()  # warm-up (imports, allocator)
    times = []
    for _ in range(reps):
        started = time.perf_counter()
        run_dataplane_workload()
        times.append(time.perf_counter() - started)
    return _summary(times)


def time_columnar(reps: int, scale: float = 1.0) -> dict | None:
    """Interleaved A/B of the columnar relation storage
    (``REPRO_COLUMNAR``).

    The bulk data-plane workload — Wisconsin generation, declustered
    load, a full sort of every fragment, key-column extraction —
    under numpy pages and under tuple lists, reps interleaved
    arm-by-arm so clock drift and cache warmth hit both arms alike.
    The digests must match exactly; ``speedup_min`` is the tuple
    arm's best wall time over the columnar arm's.
    """
    try:
        from benchmarks.test_kernel_microbench import run_columnar_workload
    except ImportError:
        return None  # revision predates the columnar storage
    arms = {"columnar": True, "tuple": False}
    times: dict = {arm: [] for arm in arms}
    digests: dict = {}
    run_columnar_workload(columnar=True, scale=min(scale, 0.1))  # warm-up
    for _ in range(reps):
        for arm, flag in arms.items():
            started = time.perf_counter()
            digest = run_columnar_workload(columnar=flag, scale=scale)
            times[arm].append(time.perf_counter() - started)
            digest.pop("columnar")
            digests[arm] = digest
    if digests["columnar"] != digests["tuple"]:
        raise AssertionError(
            f"columnar digest diverged from the tuple arm: "
            f"{digests['columnar']} != {digests['tuple']}")
    out = {arm: _summary(arm_times) for arm, arm_times in times.items()}
    out["scale"] = scale
    out["speedup_min"] = round(
        out["tuple"]["min_s"] / out["columnar"]["min_s"], 2)
    return out


_FIG5_POINT_CHILD = """\
import json, resource, time
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_sweep_point, sweep_database
config = ExperimentConfig(scale={scale}, seed=1)
started = time.perf_counter()
db = sweep_database(config, hpja=True)
generated = time.perf_counter()
point = run_sweep_point(config, db, "hybrid", 1.0)
finished = time.perf_counter()
print(json.dumps({{
    "generate_s": round(generated - started, 3),
    "join_s": round(finished - generated, 3),
    "peak_rss_mb": round(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
    "response_time": repr(point.response_time),
}}))
"""


def time_columnar_fig5_point(scale: float) -> dict:
    """One figure-5 point (hybrid, full memory) at ``scale`` with the
    invariant monitor armed (``REPRO_VERIFY=1``), under both
    representations.

    Each arm runs in its own subprocess so the peak-RSS readings are
    honest per-arm numbers; the simulated response time must be
    bit-identical across arms.
    """
    import os

    out = {}
    for arm, flag in (("columnar", "1"), ("tuple", "0")):
        env = dict(os.environ,
                   REPRO_COLUMNAR=flag, REPRO_VERIFY="1",
                   PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.run(
            [sys.executable, "-c",
             _FIG5_POINT_CHILD.format(scale=scale)],
            capture_output=True, text=True, check=True, env=env)
        out[arm] = json.loads(proc.stdout)
    if out["columnar"]["response_time"] != out["tuple"]["response_time"]:
        raise AssertionError(
            f"scale-{scale} figure-5 point diverged: "
            f"{out['columnar']['response_time']} != "
            f"{out['tuple']['response_time']}")
    out["scale"] = scale
    return out


def time_compiled(reps: int, scale: float) -> dict | None:
    """Interleaved A/B of the compiled kernel backend
    (``REPRO_COMPILED``, DESIGN.md §15).

    Three workloads under the compiled engine and the numpy fallback,
    reps interleaved arm-by-arm so clock drift and cache warmth hit
    both arms alike:

    * raw dispatched kernels at 1M elements — the route-plan chain
      (hash/remix/filter/marks/split) where the compiled engines'
      single-pass loops and counting sort separate hardest from the
      fallback's chained numpy temporaries, plus ``arena_ranges``
      recorded separately because it is an honest near-parity case
      (both sides lean on a real sort);
    * the figure-5 sweep at ``--scale``;
    * one 256-node scale-out point (hybrid, modern-2018 + fabric) —
      the large-N control plane the flattened EOS fan-out targets.

    Every simulated output must be bit-identical across arms — only
    wall-clock may differ.  Engine activation (including the one-time
    warmup/compile) happens before the timed region of each arm, the
    same steady state a long sweep runs in.
    """
    try:
        from repro.core import backend
    except ImportError:
        return None  # revision predates the compiled backend
    import numpy as np

    probes = backend.available_engines()
    out: dict = {"engines": probes}
    if not any(status == "ok" for status in probes.values()):
        out["note"] = "no compiled engine loadable; A/B arms skipped"
        return out

    arms = {"compiled": "1", "fallback": "0"}
    rng = np.random.default_rng(7)
    n = 1 << 20
    values = rng.integers(0, 2**64, n, dtype=np.uint64)
    groups = rng.integers(0, 64, n).astype(np.int64)
    hashes = rng.integers(0, 2**32, n).astype(np.int64)

    def route_plan() -> tuple:
        codes = backend.hash_avalanche(values, 2654435761)
        mixed = backend.remix(codes)
        slots = backend.filter_slots(mixed, 1 << 16)
        word = backend.marks_word_bytes(slots[:4096], 1 << 16)
        order, starts, ends, segs = backend.split_groups(groups, 64)
        return (int(codes[-1]), int(slots[-1]), len(word),
                int(order[-1]), len(starts), int(segs[-1]))

    def arena() -> tuple:
        order, starts, ends, keys, max_chain = backend.arena_ranges(
            hashes)
        return (int(order[-1]), len(starts), int(keys[0]), max_chain)

    def figure5() -> list:
        from repro.experiments import figures
        from repro.experiments.config import ExperimentConfig
        outcome = figures.figure5(ExperimentConfig(scale=scale, seed=1))
        return [(series.label,
                 [(point.x, repr(point.response_time))
                  for point in series.points])
                for series in outcome.series]

    def scaleout_256() -> list:
        from repro.experiments.scaleout import (
            ScaleoutConfig,
            run_scaleout,
        )
        sample = run_scaleout(ScaleoutConfig(
            profile="modern-2018", topology="fabric", nodes=(256,),
            base_scale=0.1, sweeps=("speedup",),
            algorithms=("hybrid",)))
        return [(entry["nodes"], repr(entry["response_time"]))
                for entry in sample["curves"]["speedup"]["hybrid"]]

    workloads = {"route_plan_1m": route_plan, "arena_ranges_1m": arena,
                 "figure5": figure5, "scaleout_256": scaleout_256}
    times: dict = {name: {arm: [] for arm in arms}
                   for name in workloads}
    digests: dict = {name: {} for name in workloads}
    try:
        out["engine"] = backend.activate("1")
        for workload in workloads.values():
            workload()  # warm once: imports, allocator, jit cache
        for _ in range(reps):
            for arm, mode in arms.items():
                backend.activate(mode)
                for name, workload in workloads.items():
                    started = time.perf_counter()
                    digest = workload()
                    times[name][arm].append(
                        time.perf_counter() - started)
                    if name in digests and arm in digests[name] \
                            and digests[name][arm] != digest:
                        raise AssertionError(
                            f"{name}/{arm} digest drifted across reps")
                    digests[name][arm] = digest
    finally:
        backend.activate()  # restore the ambient REPRO_COMPILED choice
    for name in workloads:
        if digests[name]["compiled"] != digests[name]["fallback"]:
            raise AssertionError(
                f"compiled arm diverged from fallback on {name}: "
                f"{digests[name]['compiled']} != "
                f"{digests[name]['fallback']}")
        entry = {arm: _summary(times[name][arm]) for arm in arms}
        entry["speedup_min"] = round(
            entry["fallback"]["min_s"] / entry["compiled"]["min_s"], 2)
        out[name] = entry
    return out


def time_scaleout(reps: int) -> dict | None:
    """Interleaved A/B of the scale-out sweep driver across hardware
    models: a small speedup sweep (hybrid, 8 -> 16 nodes) on
    ``gamma-1989`` + token ring versus ``modern-2018`` + switched
    fabric, reps interleaved arm-by-arm so clock drift and cache
    warmth hit both arms alike.  Simulated response times must be
    bit-stable across reps; the recorded curves document how each
    hardware model actually scales at this operating point.
    """
    try:
        from repro.experiments.scaleout import (
            ScaleoutConfig,
            run_scaleout,
        )
    except ImportError:
        return None  # revision predates the scale-out driver
    arms = {"gamma-ring": ("gamma-1989", "token-ring"),
            "modern-fabric": ("modern-2018", "fabric")}
    times: dict = {arm: [] for arm in arms}
    curves: dict = {}
    for _ in range(reps):
        for arm, (profile, topology) in arms.items():
            config = ScaleoutConfig(
                profile=profile, topology=topology, nodes=(8, 16),
                base_scale=0.1, sweeps=("speedup",),
                algorithms=("hybrid",))
            started = time.perf_counter()
            sample = run_scaleout(config)
            times[arm].append(time.perf_counter() - started)
            curve = {
                str(entry["nodes"]): {
                    "response_time": repr(entry["response_time"]),
                    "speedup": round(entry["speedup"], 3)}
                for entry in sample["curves"]["speedup"]["hybrid"]}
            if arm in curves and curves[arm] != curve:
                raise AssertionError(
                    f"{arm} scale-out curve drifted across reps: "
                    f"{curves[arm]} != {curve}")
            curves[arm] = curve
    out = {arm: {**_summary(arm_times), "speedup_curve": curves[arm]}
           for arm, arm_times in times.items()}
    return out


def main(argv: list | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Append a kernel-perf sample to BENCH_kernel.json")
    parser.add_argument("--scale", type=float, default=0.1)
    parser.add_argument("--reps", type=int, default=3)
    parser.add_argument("--jobs", type=int, nargs="*", default=[1, 2],
                        help="jobs levels to time (default: 1 2)")
    parser.add_argument("--label", default=None,
                        help="sample label (default: git revision)")
    parser.add_argument("--notes", default=None,
                        help="free-form context recorded with the sample")
    parser.add_argument("--columnar-scale", type=float, default=1.0,
                        help="scale for the columnar A/B microbench "
                             "(default 1.0)")
    parser.add_argument("--columnar-fig5-scale", type=float, default=None,
                        help="also record one hybrid figure-5 point at "
                             "this scale, invariants armed, columnar vs "
                             "tuple in separate subprocesses")
    parser.add_argument("--out", type=pathlib.Path, default=DEFAULT_OUT)
    args = parser.parse_args(argv)

    revision = _git_revision()
    sample = {
        "label": args.label or revision,
        "revision": revision,
        "recorded": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "python": platform.python_version(),
        "scale": args.scale,
        "reps": args.reps,
        "figure5_sweep": {},
        "kernel_microbench": time_microbench(args.reps),
    }
    if args.notes is not None:
        sample["notes"] = args.notes
    dataplane = time_dataplane(args.reps)
    if dataplane is not None:
        sample["dataplane_microbench"] = dataplane
    columnar = time_columnar(args.reps, scale=args.columnar_scale)
    if columnar is not None:
        sample["columnar_microbench"] = columnar
    if args.columnar_fig5_scale is not None:
        sample["columnar_fig5_point"] = time_columnar_fig5_point(
            args.columnar_fig5_scale)
    scaleout = time_scaleout(args.reps)
    if scaleout is not None:
        sample["scaleout_microbench"] = scaleout
    compiled = time_compiled(args.reps, args.scale)
    if compiled is not None:
        sample["compiled_microbench"] = compiled
    for jobs in args.jobs:
        timing = time_figure5(args.scale, jobs, args.reps)
        if timing is not None:
            sample["figure5_sweep"][f"jobs{jobs}"] = timing

    if args.out.exists():
        document = json.loads(args.out.read_text())
    else:
        document = {"description":
                    "Kernel performance trajectory; one sample per "
                    "recorded revision (see benchmarks/bench_kernel.py)",
                    "samples": []}
    document["samples"].append(sample)
    args.out.write_text(json.dumps(document, indent=1) + "\n")
    print(json.dumps(sample, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
