"""``gamma-joins`` — the command-line experiment harness.

.. code-block:: console

    $ gamma-joins list
    $ gamma-joins figure5
    $ gamma-joins table3 --scale 0.1 --seed 7
    $ gamma-joins all --scale 0.1 --out results/
"""

from __future__ import annotations

import argparse
import os
import pathlib
import sys
import time

from repro.costs import resolve_profile_name
from repro.experiments.config import ExperimentConfig
from repro.experiments.registry import EXPERIMENTS
from repro.experiments.report import render
from repro.network.topology import resolve_topology_name


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gamma-joins",
        description="Reproduce the figures and tables of Schneider & "
                    "DeWitt (SIGMOD 1989) on the simulated Gamma "
                    "machine.")
    parser.add_argument(
        "experiment",
        help="experiment name (see 'gamma-joins list'), or 'list', "
             "or 'all'")
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="Wisconsin cardinality multiplier (1.0 = the paper's "
             "100k x 10k joinABprime; default 1.0)")
    parser.add_argument(
        "--seed", type=int, default=1,
        help="workload generator seed (default 1)")
    parser.add_argument(
        "--verify", action="store_true",
        help="verify every join's result rows against a reference "
             "join (slower)")
    parser.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="run independent sweep points in N worker processes "
             "(default: REPRO_JOBS or 1; simulated results are "
             "identical at any job count)")
    parser.add_argument(
        "--profile", action="store_true",
        help="profile each experiment (cProfile hot spots + "
             "simulation-kernel counters)")
    parser.add_argument(
        "--hardware-profile", default=None, metavar="NAME",
        help="hardware cost profile for every machine "
             "(repro.costs.PROFILES, e.g. gamma-1989, modern-2018; "
             "default: REPRO_PROFILE or gamma-1989)")
    parser.add_argument(
        "--topology", default=None, metavar="NAME",
        help="interconnect topology (token-ring, fabric, hypercube; "
             "default: REPRO_TOPOLOGY or token-ring)")
    parser.add_argument(
        "--out", type=pathlib.Path, default=None,
        help="also write each report to <out>/<experiment>.txt")
    return parser


def _iter_sweep_points(outcome):
    """Every SweepPoint reachable from an experiment outcome."""
    if isinstance(outcome, (list, tuple)):
        for item in outcome:
            yield from _iter_sweep_points(item)
        return
    for series in getattr(outcome, "series", ()):
        yield from series.points


def _kernel_summary(outcome) -> str | None:
    """Aggregate per-point kernel counters (profile mode only)."""
    totals: dict[str, int] = {}
    labels: dict[str, set] = {}
    points = 0
    for point in _iter_sweep_points(outcome):
        if point.kernel_counters is None:
            continue
        points += 1
        for key, value in point.kernel_counters.items():
            if key.startswith(("dp_", "net_")):
                continue  # reported by the data-plane / network lines
            if isinstance(value, str):
                # Mode labels (e.g. be_engine) aggregate as
                # the set of distinct values, not a sum.
                labels.setdefault(key, set()).add(value)
            elif key == "heap_peak":
                # A peak, not a total: report the largest.
                totals[key] = max(totals.get(key, 0), value)
            else:
                totals[key] = totals.get(key, 0) + value
    if not points:
        return None
    merged: dict[str, object] = dict(totals)
    merged.update((k, "/".join(sorted(v))) for k, v in labels.items())
    body = "  ".join(f"{k}={v}" for k, v in sorted(merged.items()))
    return f"## kernel ({points} points): {body}"


def _dataplane_summary(outcome) -> str | None:
    """Aggregate the vectorized data-plane counters (profile mode).

    Shown alongside the kernel block so a profile run answers, at a
    glance, how much of the tuple traffic rode the page-batch plane
    versus the input-selected scalar fallbacks, and how often the
    per-relation key-hash memo spared a rehash.
    """
    totals: dict[str, int] = {}
    points = 0
    for point in _iter_sweep_points(outcome):
        if point.kernel_counters is None:
            continue
        points += 1
        for key, value in point.kernel_counters.items():
            if key.startswith("dp_"):
                totals[key] = totals.get(key, 0) + value
    if not points or not totals:
        return None

    def rate(hit: int, miss: int) -> str:
        total = hit + miss
        return f"{hit / total:.1%}" if total else "n/a"

    pages = totals.get("dp_pages_batched", 0)
    scalar_pages = totals.get("dp_pages_scalar", 0)
    packets = totals.get("dp_packets_batched", 0)
    scalar_packets = totals.get("dp_packets_scalar", 0)
    hits = totals.get("dp_hash_cache_hits", 0)
    misses = totals.get("dp_hash_cache_misses", 0)
    return (f"## data plane ({points} points): "
            f"pages batched={pages} (scalar fallback={scalar_pages}, "
            f"rows={totals.get('dp_rows_batched', 0)})  "
            f"packets batched={packets} "
            f"(scalar fallback={scalar_packets}, "
            f"arena probes={totals.get('dp_probe_arena_packets', 0)})  "
            f"hash-cache hit rate={rate(hits, misses)} "
            f"({hits}/{hits + misses})")


def _network_summary(outcome) -> str | None:
    """Control traffic and the end-of-stream share of it (profile
    mode): the O(N^2) flat fan-out versus the O(N) combining tree is
    read off this line."""
    control = eos = points = 0
    for point in _iter_sweep_points(outcome):
        if point.kernel_counters is None:
            continue
        points += 1
        control += point.kernel_counters["net_control_messages"]
        eos += point.kernel_counters["net_eos_messages"]
    if not points:
        return None
    share = f"{eos / control:.1%}" if control else "n/a"
    return (f"## network ({points} points): control messages={control}  "
            f"end-of-stream={eos} ({share})")


def _verify_summary(outcome) -> str | None:
    """Aggregate per-point conformance reports (``REPRO_VERIFY=1``).

    One line of ledger totals, then the analytic-vs-simulated
    per-phase agreement: every in-scope point's worst phase delta,
    flagged when it escapes the documented tolerance band.
    """
    points = 0
    checks: dict[str, int] = {}
    in_scope = 0
    out_of_band: list[str] = []
    worst_rel = 0.0
    for point in _iter_sweep_points(outcome):
        if point.verify is None:
            continue
        points += 1
        for name in point.verify["invariants"]["checks_passed"]:
            checks[name] = checks.get(name, 0) + 1
        analytic = point.verify.get("analytic")
        if analytic is None:
            continue
        in_scope += 1
        for row in analytic["phases"]:
            rel = abs(row.get("relative") or 0.0)
            worst_rel = max(worst_rel, rel)
            if not row["within"]:
                out_of_band.append(
                    f"  OUT-OF-BAND {analytic['algorithm']} "
                    f"{row['phase']}: simulated={row['simulated']:.3f}s "
                    f"predicted={row['predicted']:.3f}s")
    if not points:
        return None
    passed = "  ".join(f"{name}={count}"
                       for name, count in sorted(checks.items()))
    lines = [f"## conformance ({points} points): {passed}",
             f"## analytic model: {in_scope} in-scope point(s), "
             f"worst phase delta {worst_rel:.1%}, "
             f"{len(out_of_band)} out-of-band"]
    lines.extend(out_of_band)
    return "\n".join(lines)


def run_experiment(name: str, config: ExperimentConfig,
                   out_dir: pathlib.Path | None) -> None:
    entry = EXPERIMENTS[name]
    started = time.perf_counter()
    if config.profile:
        import cProfile
        import io
        import pstats
        profiler = cProfile.Profile()
        profiler.enable()
        outcome = entry.run(config)
        profiler.disable()
    else:
        outcome = entry.run(config)
    elapsed = time.perf_counter() - started
    text = render(outcome)
    conformance = _verify_summary(outcome)
    if conformance:
        text += "\n\n" + conformance
    if config.profile:
        summary = _kernel_summary(outcome)
        if summary:
            text += "\n\n" + summary
        for summarize in (_dataplane_summary, _network_summary):
            line = summarize(outcome)
            if line:
                text += "\n\n" + line
        stream = io.StringIO()
        pstats.Stats(profiler, stream=stream).sort_stats(
            "tottime").print_stats(15)
        text += "\n\n## cProfile hot spots\n" + stream.getvalue()
    banner = (f"## {entry.name} — {entry.description}\n"
              f"## scale={config.scale} seed={config.seed} "
              f"(wall {elapsed:.1f}s)\n")
    print(banner)
    print(text)
    print()
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        safe = entry.name.replace("/", "_")
        (out_dir / f"{safe}.txt").write_text(banner + text + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.experiment == "list":
        width = max(len(name) for name in EXPERIMENTS)
        for name, entry in EXPERIMENTS.items():
            print(f"{name:<{width}}  {entry.description}")
        return 0
    jobs = args.jobs
    if jobs is None:
        raw = os.environ.get("REPRO_JOBS", "1")
        try:
            jobs = int(raw)
        except ValueError:
            parser.error(f"REPRO_JOBS must be an integer, got {raw!r}")
    if jobs < 1:
        parser.error(f"--jobs must be >= 1, got {jobs}")
    try:
        resolve_profile_name(args.hardware_profile)
        resolve_topology_name(args.topology)
    except ValueError as error:
        parser.error(str(error))
    config = ExperimentConfig(scale=args.scale, seed=args.seed,
                              verify_results=args.verify,
                              jobs=jobs, profile=args.profile,
                              hardware_profile=args.hardware_profile,
                              topology=args.topology)
    if args.experiment == "all":
        names = list(EXPERIMENTS)
    elif args.experiment in EXPERIMENTS:
        names = [args.experiment]
    else:
        parser.error(
            f"unknown experiment {args.experiment!r}; try "
            "'gamma-joins list'")
        return 2  # pragma: no cover - parser.error raises
    for name in names:
        run_experiment(name, config, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
