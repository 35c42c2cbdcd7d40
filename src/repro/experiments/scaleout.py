"""Scale-out sweeps: speedup, scaleup and sizeup curves (ROADMAP 1).

The paper stops at 17 VAX nodes on one 80 Mbit/s token ring; this
driver runs the four join algorithms across cluster sizes and relation
scales on any registered hardware profile (``repro.costs.PROFILES``)
and interconnect topology (``repro.network.topology.TOPOLOGIES``), and
reports the three classic scalability curves:

* **speedup** — fixed problem, growing cluster:
  ``T(N0, s0) / T(N, s0)`` (ideal: ``N / N0``);
* **scaleup** — problem grows with the cluster:
  ``T(N0, s0) / T(N, s0 * N / N0)`` (ideal: flat 1.0);
* **sizeup** — fixed cluster, growing problem:
  ``T(N0, k * s0) / T(N0, s0)`` (ideal: ``k``).

Memory follows the hardware: by default each configuration gets
``num_nodes * CostModel.memory_per_node`` bytes of joining memory
(capped at the memory ratio 1.0 a fully resident inner relation
needs), so sizeup sweeps genuinely run out of memory and grow bucket
counts the way a real cluster would.  ``--memory-ratio`` pins the
paper-style relative ratio instead.

Every (nodes, scale) pair is simulated once per algorithm and shared
across the sweeps that need it; per-phase breakdowns ride along so a
curve's shape can be attributed (startup overhead vs ring saturation
vs genuine parallel work).  Results append to ``BENCH_scaleout.json``
and render as a markdown report:

.. code-block:: console

    $ python -m repro.experiments.scaleout \\
          --profile modern-2018 --topology fabric --nodes 8,64,256

The headline finding this instrument exists to measure: on
``gamma-1989`` + ``token-ring`` the shared medium and per-node
scheduler rounds erase speedup well before 64 nodes (the 1989
conclusion), and by 256 nodes Gamma's flat O(N^2) end-of-stream rule
is most of the response time; ``modern-2018`` + ``fabric`` closes wide
streams through a combining tree (O(N) messages), so what caps it is
the scheduler's serial per-operator start/done round.
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime
import json
import pathlib
import platform
import re
import sys
import typing

from repro.costs import resolve_profile, resolve_profile_name
from repro.experiments.config import ExperimentConfig
from repro.experiments.figures import ALL_ALGORITHMS, Figure
from repro.experiments.runner import (
    Series,
    SweepJob,
    SweepPoint,
    run_sweep_points,
    sweep_database,
)
from repro.network.topology import resolve_topology_name

#: Cluster sizes of the default sweep.  256 is where the flat O(N^2)
#: end-of-stream rule (``gamma-1989``) dominates everything else; 1024
#: is opt-in via ``--nodes`` — seconds per join on a profile with a
#: combining tree, minutes on the flat rule.
DEFAULT_NODES = (8, 64, 256)
#: Relation-scale multipliers of the default sizeup sweep (1-100x the
#: base scale).
DEFAULT_FACTORS = (1.0, 10.0, 100.0)
SWEEP_KINDS = ("speedup", "scaleup", "sizeup")


@dataclasses.dataclass(frozen=True)
class ScaleoutConfig:
    """One scale-out study: the grid and the hardware under test."""

    profile: "str | None" = None
    topology: "str | None" = None
    nodes: tuple = DEFAULT_NODES
    #: Wisconsin scale of the base point (nodes[0]); the speedup sweep
    #: holds it fixed, scaleup multiplies it by ``N / nodes[0]``,
    #: sizeup by each factor.
    base_scale: float = 0.1
    size_factors: tuple = DEFAULT_FACTORS
    algorithms: tuple = ALL_ALGORITHMS
    sweeps: tuple = SWEEP_KINDS
    seed: int = 1
    jobs: int = 1
    hpja: bool = True
    #: None = physical memory from the profile (see module docstring);
    #: a float pins the paper-style ratio for every point.
    memory_ratio: "float | None" = None

    def __post_init__(self) -> None:
        if not self.nodes:
            raise ValueError("need at least one cluster size")
        if any(n < 1 for n in self.nodes):
            raise ValueError(f"cluster sizes must be >= 1: {self.nodes}")
        if self.base_scale <= 0:
            raise ValueError(
                f"base scale must be positive: {self.base_scale}")
        unknown = set(self.sweeps) - set(SWEEP_KINDS)
        if unknown:
            raise ValueError(
                f"unknown sweep kind(s) {sorted(unknown)}; choose from "
                f"{SWEEP_KINDS}")


_BUCKET_SEGMENT = re.compile(r"b\d+")


def phase_family(name: str) -> str:
    """Collapse a per-bucket phase name to its family, so breakdowns
    stay bounded when bucket counts grow: ``grace.b17.probe`` ->
    ``grace.probe``; names without a bucket segment pass through."""
    parts = [part for part in name.split(".")
             if not _BUCKET_SEGMENT.fullmatch(part)]
    return ".".join(parts)


def _phase_breakdown(point: SweepPoint) -> dict:
    families: dict[str, float] = {}
    if point.result is None:
        return families
    for stat in point.result.phases:
        family = phase_family(stat.name)
        families[family] = families.get(family, 0.0) + stat.duration
    return families


def effective_memory_ratio(config: ScaleoutConfig, num_nodes: int,
                           inner_total_bytes: int) -> float:
    """The memory ratio one configuration runs at.

    Physical sizing: the cluster's aggregate joining memory over the
    inner relation's bytes, capped at 1.0 (more memory than the inner
    relation cannot change a plan — every bucket planner treats ratio
    1.0 as "fully resident")."""
    if config.memory_ratio is not None:
        return config.memory_ratio
    costs = resolve_profile(resolve_profile_name(config.profile))
    physical = num_nodes * costs.memory_per_node / max(1, inner_total_bytes)
    return min(1.0, physical)


def _run_grid(config: ScaleoutConfig
              ) -> "dict[tuple[int, float], dict[str, dict]]":
    """Simulate every distinct (nodes, scale) pair the sweeps need.

    Returns ``(nodes, scale) -> algorithm -> point record``.  Within a
    pair the per-algorithm jobs run through :func:`run_sweep_points`,
    so ``--jobs`` parallelism applies.
    """
    base_nodes = config.nodes[0]
    pairs: dict[tuple[int, float], None] = {}
    if "speedup" in config.sweeps:
        for n in config.nodes:
            pairs[(n, config.base_scale)] = None
    if "scaleup" in config.sweeps:
        for n in config.nodes:
            pairs[(n, config.base_scale * n / base_nodes)] = None
    if "sizeup" in config.sweeps:
        for factor in config.size_factors:
            pairs[(base_nodes, config.base_scale * factor)] = None
    grid: dict[tuple[int, float], dict[str, dict]] = {}
    for num_nodes, scale in pairs:
        experiment = ExperimentConfig(
            scale=scale, seed=config.seed, num_disk_nodes=num_nodes,
            jobs=config.jobs,
            hardware_profile=resolve_profile_name(config.profile),
            topology=resolve_topology_name(config.topology))
        db = sweep_database(experiment, config.hpja)
        ratio = effective_memory_ratio(config, num_nodes,
                                       db.inner.total_bytes)
        jobs = [SweepJob(algorithm=algorithm, memory_ratio=ratio,
                         hpja=config.hpja)
                for algorithm in config.algorithms]
        points = run_sweep_points(experiment, jobs)
        grid[(num_nodes, scale)] = {
            algorithm: {
                "nodes": num_nodes,
                "scale": scale,
                "algorithm": algorithm,
                "memory_ratio": ratio,
                "response_time": point.response_time,
                "phases": _phase_breakdown(point),
                # Control traffic, and how much of it is stream
                # termination (flat rule: grows as N^2; tree: as N).
                "control_messages": point.result.network.control_messages,
                "eos_messages": point.result.network.eos_messages,
            }
            for algorithm, point in zip(config.algorithms, points)}
    return grid


def run_scaleout(config: ScaleoutConfig) -> dict:
    """Run the study; returns the (picklable) result sample."""
    base_nodes = config.nodes[0]
    grid = _run_grid(config)
    curves: dict[str, dict] = {kind: {} for kind in config.sweeps}
    for algorithm in config.algorithms:
        base = grid[(base_nodes, config.base_scale)][algorithm]
        t_base = base["response_time"]
        if "speedup" in config.sweeps:
            curves["speedup"][algorithm] = [
                {**grid[(n, config.base_scale)][algorithm],
                 "speedup": t_base
                 / grid[(n, config.base_scale)][algorithm]
                 ["response_time"],
                 "ideal": n / base_nodes}
                for n in config.nodes]
        if "scaleup" in config.sweeps:
            curves["scaleup"][algorithm] = [
                {**grid[(n, config.base_scale * n / base_nodes)]
                 [algorithm],
                 "scaleup": t_base
                 / grid[(n, config.base_scale * n / base_nodes)]
                 [algorithm]["response_time"],
                 "ideal": 1.0}
                for n in config.nodes]
        if "sizeup" in config.sweeps:
            curves["sizeup"][algorithm] = [
                {**grid[(base_nodes, config.base_scale * factor)]
                 [algorithm],
                 "factor": factor,
                 "sizeup": grid[(base_nodes, config.base_scale * factor)]
                 [algorithm]["response_time"] / t_base,
                 "ideal": factor}
                for factor in config.size_factors]
    # The kernel backend never changes a simulated result, but the
    # wall-clock recorded alongside a sample is only comparable
    # against samples that ran the same engine — stamp it.
    from repro.core import backend
    return {
        "profile": resolve_profile_name(config.profile),
        "topology": resolve_topology_name(config.topology),
        "kernel_backend": backend.engine_name(),
        "nodes": list(config.nodes),
        "base_scale": config.base_scale,
        "size_factors": list(config.size_factors),
        "algorithms": list(config.algorithms),
        "seed": config.seed,
        "hpja": config.hpja,
        "memory_model": ("physical" if config.memory_ratio is None
                         else config.memory_ratio),
        "points": [record for group in grid.values()
                   for record in group.values()],
        "curves": curves,
    }


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------

def render_markdown(sample: dict) -> str:
    """The sample as a markdown report (one table per sweep kind)."""
    lines = [
        f"# Scale-out study: {sample['profile']} / {sample['topology']}",
        "",
        f"Cluster sizes {sample['nodes']}, base scale "
        f"{sample['base_scale']}, seed {sample['seed']}, "
        f"memory model `{sample['memory_model']}`.",
    ]
    curves = sample["curves"]
    headers = {
        "speedup": ("speedup  T(N0)/T(N)", "N={nodes}"),
        "scaleup": ("scaleup  T(N0,s0)/T(N,s0*N/N0)", "N={nodes}"),
        "sizeup": ("sizeup  T(N0,k*s0)/T(N0,s0)", "k={factor:g}"),
    }
    for kind in ("speedup", "scaleup", "sizeup"):
        if kind not in curves:
            continue
        title, col_format = headers[kind]
        rows = curves[kind]
        first = next(iter(rows.values()))
        columns = [col_format.format(**entry) for entry in first]
        lines.append("")
        lines.append(f"## {title}")
        lines.append("")
        lines.append("| algorithm | " + " | ".join(columns) + " |")
        lines.append("|" + "---|" * (len(columns) + 1))
        for algorithm, entries in rows.items():
            cells = [f"{entry[kind]:.2f} ({entry['response_time']:.3f}s)"
                     for entry in entries]
            lines.append(f"| {algorithm} | " + " | ".join(cells) + " |")
        lines.append("")
        lines.append("ideal: " + ", ".join(
            f"{entry['ideal']:g}" for entry in first))
    lines.append("")
    lines.append("## per-phase breakdown (seconds, bucket rounds "
                 "collapsed per family)")
    lines.append("")
    for record in sample["points"]:
        phases = "  ".join(f"{name}={seconds:.3f}"
                           for name, seconds in record["phases"].items())
        lines.append(
            f"- {record['algorithm']} N={record['nodes']} "
            f"scale={record['scale']:g} ratio="
            f"{record['memory_ratio']:.3f} "
            f"T={record['response_time']:.3f}s: {phases}")
        if "eos_messages" in record:
            control = record["control_messages"]
            eos = record["eos_messages"]
            lines.append(
                f"  control messages={control}  end-of-stream={eos} "
                f"({eos / control if control else 0.0:.1%})")
    return "\n".join(lines) + "\n"


def check_monotone_speedup(sample: dict) -> "list[str]":
    """Violation messages for any algorithm whose speedup curve dips."""
    problems = []
    for algorithm, entries in sample["curves"].get("speedup", {}).items():
        values = [entry["speedup"] for entry in entries]
        for earlier, later in zip(values, values[1:]):
            if later < earlier:
                problems.append(
                    f"{algorithm}: speedup falls from {earlier:.3f} to "
                    f"{later:.3f} across {[e['nodes'] for e in entries]}"
                )
                break
    return problems


def append_sample(path: pathlib.Path, sample: dict, label: str) -> None:
    """Append one labelled sample to the BENCH_scaleout.json series."""
    if path.exists():
        data = json.loads(path.read_text())
    else:
        data = {
            "description": ("Scale-out speedup/scaleup/sizeup curves; "
                            "one sample per recorded study (see "
                            "repro.experiments.scaleout)"),
            "samples": [],
        }
    stamped = {
        "label": label,
        "recorded": datetime.datetime.now().isoformat(
            timespec="seconds"),
        "python": platform.python_version(),
        **sample,
    }
    data["samples"].append(stamped)
    path.write_text(json.dumps(data, indent=1) + "\n")


# ---------------------------------------------------------------------------
# gamma-joins registry adapter
# ---------------------------------------------------------------------------

def scaleout_figure(config: ExperimentConfig,
                    nodes: tuple = DEFAULT_NODES) -> Figure:
    """A speedup-curve figure for the ``gamma-joins`` CLI: response
    time against cluster size at the config's scale, honouring
    ``REPRO_PROFILE``/``REPRO_TOPOLOGY``."""
    study = ScaleoutConfig(
        profile=config.hardware_profile, topology=config.topology,
        nodes=nodes, base_scale=config.scale, sweeps=("speedup",),
        seed=config.seed, jobs=config.jobs)
    sample = run_scaleout(study)
    series = []
    for algorithm, entries in sample["curves"]["speedup"].items():
        line = Series(label=algorithm)
        for entry in entries:
            line.add(SweepPoint(x=entry["nodes"],
                                response_time=entry["response_time"]))
        series.append(line)
    return Figure(
        name="scaleout",
        title=(f"Scale-out speedup — {sample['profile']} / "
               f"{sample['topology']} (scale {config.scale:g})"),
        xlabel="cluster size (disk nodes)",
        series=series,
        notes="speedup sweep only; the standalone CLI "
              "(python -m repro.experiments.scaleout) adds scaleup/"
              "sizeup and JSON/markdown output")


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def _csv(kind: typing.Callable, what: str) -> typing.Callable:
    def parse(text: str) -> tuple:
        try:
            values = tuple(kind(part) for part in text.split(",") if part)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid {what} list: {text!r}") from None
        if not values:
            raise argparse.ArgumentTypeError(f"empty {what} list")
        return values
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.scaleout",
        description="Speedup/scaleup/sizeup sweeps of the four "
                    "parallel join algorithms across hardware "
                    "profiles and interconnect topologies.")
    parser.add_argument("--profile", default=None,
                        help="hardware profile (repro.costs.PROFILES; "
                             "default: REPRO_PROFILE or gamma-1989)")
    parser.add_argument("--topology", default=None,
                        help="interconnect topology (token-ring, "
                             "fabric, hypercube; default: "
                             "REPRO_TOPOLOGY or token-ring)")
    parser.add_argument("--nodes", type=_csv(int, "node-count"),
                        default=DEFAULT_NODES, metavar="N0,N1,...",
                        help="cluster sizes, smallest first "
                             "(default 8,64,256)")
    parser.add_argument("--scale", type=float, default=0.1,
                        help="Wisconsin scale of the base point "
                             "(default 0.1)")
    parser.add_argument("--factors", type=_csv(float, "factor"),
                        default=DEFAULT_FACTORS, metavar="K0,K1,...",
                        help="sizeup relation-scale multipliers "
                             "(default 1,10,100)")
    parser.add_argument("--sweeps", type=_csv(str, "sweep"),
                        default=SWEEP_KINDS, metavar="KIND,...",
                        help="subset of speedup,scaleup,sizeup "
                             "(default all three)")
    parser.add_argument("--algorithms", type=_csv(str, "algorithm"),
                        default=ALL_ALGORITHMS, metavar="A0,A1,...",
                        help="join algorithms (default all four)")
    parser.add_argument("--memory-ratio", type=float, default=None,
                        help="pin the paper-style memory ratio "
                             "(default: physical sizing from the "
                             "profile's memory_per_node)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes per (nodes, scale) "
                             "group (results are bit-identical at any "
                             "job count)")
    parser.add_argument("--label", default=None,
                        help="sample label in the JSON series "
                             "(default scaleout-<profile>-<topology>)")
    parser.add_argument("--out", type=pathlib.Path,
                        default=pathlib.Path("BENCH_scaleout.json"),
                        help="JSON series to append to "
                             "(default BENCH_scaleout.json)")
    parser.add_argument("--report", type=pathlib.Path, default=None,
                        help="also write the markdown report here")
    parser.add_argument("--assert-monotone-speedup",
                        action="store_true",
                        help="exit non-zero unless every algorithm's "
                             "speedup curve is non-decreasing in N")
    return parser


def main(argv: "list[str] | None" = None) -> int:
    args = build_parser().parse_args(argv)
    config = ScaleoutConfig(
        profile=args.profile, topology=args.topology,
        nodes=args.nodes, base_scale=args.scale,
        size_factors=args.factors, sweeps=args.sweeps,
        algorithms=args.algorithms, memory_ratio=args.memory_ratio,
        seed=args.seed, jobs=args.jobs)
    sample = run_scaleout(config)
    label = args.label or (f"scaleout-{sample['profile']}-"
                           f"{sample['topology']}")
    append_sample(args.out, sample, label)
    report = render_markdown(sample)
    print(report)
    print(f"appended sample {label!r} to {args.out}")
    if args.report is not None:
        args.report.parent.mkdir(parents=True, exist_ok=True)
        args.report.write_text(report)
        print(f"wrote {args.report}")
    if args.assert_monotone_speedup:
        problems = check_monotone_speedup(sample)
        if problems:
            for problem in problems:
                print(f"MONOTONE-SPEEDUP VIOLATION: {problem}",
                      file=sys.stderr)
            return 1
        print("monotone speedup: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
