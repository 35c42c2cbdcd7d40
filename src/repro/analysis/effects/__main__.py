"""CLI for the effect analyzer and certificate table.

Usage::

    python -m repro.analysis.effects                 # summary + suspects
    python -m repro.analysis.effects --emit-certs    # table JSON to stdout
    python -m repro.analysis.effects --write         # refresh baseline.json
    python -m repro.analysis.effects --check         # CI gate
    python -m repro.analysis.effects --summaries     # per-callable effects
    python -m repro.analysis.effects path/a.py ...   # explicit file set

``--check`` regenerates the analysis tree-wide and fails when a *new*
suspect appeared — a kernel-unsafe callable, an opaque site footprint,
or an unresolved spawn site not acknowledged in the committed
baseline.  Suspects disappearing is fine (and reported, so the baseline
can be tightened).
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import typing

from repro.analysis.effects.analyzer import (
    ProgramAnalysis,
    analyse_paths,
    analyse_tree,
)
from repro.analysis.effects.certificates import (
    BASELINE_PATH,
    build_baseline,
    build_table,
)


def _find_root(start: pathlib.Path) -> pathlib.Path:
    for candidate in (start, *start.parents):
        if (candidate / "pyproject.toml").is_file():
            return candidate
    return start


def _analyse(args: argparse.Namespace) -> ProgramAnalysis:
    if args.paths:
        return analyse_paths([pathlib.Path(p) for p in args.paths])
    return analyse_tree(_find_root(pathlib.Path.cwd()))


def _dump(data: dict[str, typing.Any]) -> str:
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def _print_summary(analysis: ProgramAnalysis,
                   table: dict[str, typing.Any]) -> None:
    stats = table["stats"]
    print(f"callables analysed : {len(analysis.callables)}")
    print(f"site patterns      : {stats['patterns']} "
          f"({stats['kernel_safe_patterns']} kernel-safe, "
          f"{stats['opaque_patterns']} opaque)")
    print(f"pattern pairs      : {stats['commuting_pairs']} commute, "
          f"{stats['serialized_pairs']} serialized, "
          f"{stats['conflicting_pairs']} conflict")
    print(f"kernel-safe closure: {analysis.sites_kernel_safe}")
    suspects = analysis.suspects()
    print(f"suspects           : {len(suspects)}")
    for suspect in suspects:
        print(f"  - {suspect}")


def _print_summaries(analysis: ProgramAnalysis) -> None:
    for qualname in sorted(analysis.summaries):
        summary = analysis.summaries[qualname]
        flags = [flag for flag in ("schedules", "rng", "opaque")
                 if getattr(summary, flag)]
        if summary.unsafe:
            flags.append("UNSAFE")
        print(f"{qualname}  [{', '.join(flags) or 'pure'}]")
        for kind, values in (("reads", summary.reads),
                             ("writes", summary.writes),
                             ("queues", summary.queues)):
            if values:
                print(f"    {kind}: {', '.join(sorted(values))}")
        for reason in summary.unsafe:
            print(f"    unsafe: {reason}")


def _check(analysis: ProgramAnalysis) -> int:
    table = build_table(analysis)
    failures: list[str] = []
    try:
        baseline = json.loads(
            BASELINE_PATH.read_text(encoding="utf-8"))
        known = set(baseline.get("suspects", ()))
    except FileNotFoundError:
        known = set()
        failures.append(f"missing committed baseline "
                        f"{BASELINE_PATH.name}")
    suspects = analysis.suspects()
    new = [s for s in suspects if s not in known]
    gone = sorted(known - set(suspects))
    for suspect in new:
        failures.append(f"new suspect not in baseline: {suspect}")
    for suspect in gone:
        print(f"note: baseline suspect no longer present "
              f"(baseline can be tightened): {suspect}")
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print(f"effects check OK: {len(analysis.callables)} callables, "
          f"{table['stats']['patterns']} site patterns, "
          f"{len(suspects)} acknowledged suspects")
    return 0


def main(argv: typing.Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.effects",
        description="Whole-program effect analysis and commutativity "
                    "certificates for the sim packages.")
    parser.add_argument("paths", nargs="*",
                        help="explicit files to analyse (default: the "
                             "sim-scoped packages of the tree)")
    parser.add_argument("--emit-certs", action="store_true",
                        help="emit the certificate table JSON")
    parser.add_argument("--out", metavar="FILE",
                        help="write --emit-certs output to FILE")
    parser.add_argument("--write", action="store_true",
                        help="refresh the committed baseline.json")
    parser.add_argument("--check", action="store_true",
                        help="fail when a suspect not in the "
                             "committed baseline appeared")
    parser.add_argument("--summaries", action="store_true",
                        help="print per-callable effect summaries")
    args = parser.parse_args(argv)

    if args.check:
        if args.paths:
            parser.error("--check analyses the whole tree; explicit "
                         "paths are not supported")
        return _check(_analyse(args))

    analysis = _analyse(args)
    if args.summaries:
        _print_summaries(analysis)
        return 0
    if args.write:
        BASELINE_PATH.write_text(_dump(build_baseline(analysis)),
                                 encoding="utf-8")
        print(f"wrote {BASELINE_PATH}")
        return 0
    table = build_table(analysis)
    if args.emit_certs:
        text = _dump(table)
        if args.out:
            pathlib.Path(args.out).write_text(text, encoding="utf-8")
        else:
            sys.stdout.write(text)
        return 0
    _print_summary(analysis, table)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
