"""Differential mode-matrix harness (``repro.verify.matrix``).

The relation storage has two representations that must not change
any simulated result: numpy column pages and tuple lists
(``REPRO_COLUMNAR``).  This module runs one workload under both —
each on a fresh machine, with the conformance monitor
(``REPRO_VERIFY=1``) active — and asserts that they produce
**bit-identical** response times and per-phase timings.  Any
invariant violation inside a combo surfaces as a
:class:`~repro.verify.ConformanceError` from that run; any divergence
*between* combos raises one from the harness itself.

Run as a CLI over the Figure 5 workload::

    REPRO_VERIFY=1 python -m repro.verify.matrix --scale 0.05 --out out/verify

which also writes ``analytic_deltas.json`` — the per-phase
analytic-vs-simulated comparison from :mod:`repro.verify.analytic` —
as a machine-readable conformance artifact (published by the CI
``verify`` job).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import pathlib
import typing

from repro.verify import ConformanceError

#: (columnar,) combinations, the default reference combo first.
MODES: tuple[tuple[int], ...] = ((1,), (0,))


@contextlib.contextmanager
def mode_env(verify: bool = True,
             columnar: int | None = None) -> typing.Iterator[None]:
    """Pin the verify/storage environment for one run.

    The flags are read at machine- and driver-construction time, so a
    fresh machine built inside this context runs fully in the
    requested mode.  ``columnar`` pins ``REPRO_COLUMNAR`` — note the
    relation *representation* is decided
    when a database is generated, so harnesses convert the database
    per combo (:meth:`WisconsinDatabase.with_representation`) rather
    than relying on the flag alone.
    """
    desired = {"REPRO_VERIFY": "1" if verify else "0"}
    if columnar is not None:
        desired["REPRO_COLUMNAR"] = str(columnar)
    saved = {key: os.environ.get(key) for key in desired}
    os.environ.update(desired)
    try:
        yield
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value


def _phase_signature(result: typing.Any) -> list[tuple[str, str, str]]:
    """Bit-exact phase timings (repr preserves every float bit)."""
    return [(stat.name, repr(stat.start), repr(stat.end))
            for stat in result.phases]


def run_mode_matrix(config: typing.Any, db: typing.Any, algorithm: str,
                    memory_ratio: float, configuration: str = "local",
                    **spec_kwargs: typing.Any) -> dict:
    """One workload under both relation representations.

    Every combo runs on a fresh machine with the conformance monitor
    enabled — the columnar combo against the database converted to
    page fragments, the other against tuple-list fragments — and the
    harness then asserts bit-identical response times and phase
    timings across them. Returns a picklable report with the
    reference result attached under ``"result"``.
    """
    from repro.experiments.runner import run_sweep_point

    runs = []
    for mode in MODES:
        (columnar,) = mode
        mode_db = (db if db is None
                   else db.with_representation(bool(columnar)))
        with mode_env(verify=True, columnar=columnar):
            point = run_sweep_point(config, mode_db, algorithm,
                                    memory_ratio,
                                    configuration=configuration,
                                    **spec_kwargs)
        runs.append((mode, point))

    (_, reference), *rest = runs
    ref_sig = _phase_signature(reference.result)
    ref_time = repr(reference.result.response_time)
    for mode, point in rest:
        time = repr(point.result.response_time)
        if time != ref_time:
            raise ConformanceError(
                f"{algorithm} response time diverges across modes: "
                f"columnar={mode[0]} "
                f"produced {time}, reference {ref_time}",
                invariant="mode-matrix",
                deltas={"mode": list(mode),
                        "response_time": time,
                        "reference": ref_time})
        sig = _phase_signature(point.result)
        if sig != ref_sig:
            diverging = [
                (a, b) for a, b in zip(ref_sig, sig) if a != b
            ] or [(ref_sig[len(sig):], sig[len(ref_sig):])]
            raise ConformanceError(
                f"{algorithm} phase timings diverge across modes "
                f"(columnar={mode[0]})",
                invariant="mode-matrix",
                deltas={"mode": list(mode),
                        "diverging_phases": diverging[:4]})
    return {
        "algorithm": algorithm,
        "memory_ratio": memory_ratio,
        "configuration": configuration,
        "response_time": reference.result.response_time,
        "modes": [list(mode) for mode, _ in runs],
        "result": reference.result,
    }


# --------------------------------------------------------------------------
# CLI: Figure 5 workload across the matrix, analytic deltas as artifact
# --------------------------------------------------------------------------

def run_figure5_matrix(scale: float,
                       ratios: typing.Sequence[float] | None = None,
                       algorithms: typing.Sequence[str] | None = None,
                       ) -> list[dict]:
    """The Figure 5 workload (local HPJA joinABprime) through the
    matrix: every algorithm × memory ratio, both mode combos,
    all invariants, plus the analytic assessment of the reference
    run."""
    from repro.experiments.config import (
        PAPER_MEMORY_RATIOS,
        ExperimentConfig,
    )
    from repro.experiments.runner import build_machine, sweep_database
    from repro.verify.analytic import assess

    config = ExperimentConfig(scale=scale)
    db = sweep_database(config, hpja=True)
    rows: list[dict] = []
    for algorithm in (algorithms
                      or ("simple", "grace", "hybrid", "sort-merge")):
        for ratio in (ratios or PAPER_MEMORY_RATIOS):
            if algorithm == "simple" and ratio < 1.0:
                # Figure 5 runs Simple only at full memory; reduced
                # ratios recurse through overflow resolution and are
                # exercised by the hypothesis suite instead.
                continue
            outcome = run_mode_matrix(config, db, algorithm, ratio)
            result = outcome.pop("result")
            analytic = assess(build_machine(config, "local"), db, result,
                              check=True)
            outcome["analytic"] = analytic
            outcome["invariants"] = "pass"
            rows.append(outcome)
    return rows


def main(argv: typing.Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.verify.matrix",
        description="Differential REPRO_COLUMNAR conformance matrix "
                    "over the Figure 5 workload.")
    parser.add_argument("--scale", type=float, default=0.05,
                        help="Wisconsin scale factor (default 0.05)")
    parser.add_argument("--out", type=pathlib.Path, default=None,
                        help="directory for analytic_deltas.json")
    parser.add_argument("--ratios", type=float, nargs="*", default=None,
                        help="memory ratios (default: the paper's)")
    parser.add_argument("--algorithms", nargs="*", default=None,
                        help="algorithms (default: all four)")
    args = parser.parse_args(argv)

    rows = run_figure5_matrix(args.scale, ratios=args.ratios,
                              algorithms=args.algorithms)
    for row in rows:
        analytic = row["analytic"]
        band = ("n/a (out of model scope)" if analytic is None else
                f"within {analytic['rel_tol']:.0%}+{analytic['abs_tol']}s")
        print(f"{row['algorithm']:>10} ratio={row['memory_ratio']:.3f} "
              f"t={row['response_time']:10.3f}s modes={len(row['modes'])}"
              f" invariants=pass analytic={band}")
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        artifact = args.out / "analytic_deltas.json"
        artifact.write_text(json.dumps(
            {"scale": args.scale, "modes": [list(m) for m in MODES],
             "points": rows}, indent=2, sort_keys=True))
        print(f"wrote {artifact}")
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI entry
    raise SystemExit(main())
