"""``run.py --compare A.json B.json``: is B (the change) worse than A?

One row per (workload, end-to-end metric) with both medians, both
interquartile ranges and a verdict:

* ``ok``         — B's median is no worse than A's by more than the
  metric's bound (or by less than its absolute floor), or every run
  of B reads at least as well as every run of A.
* ``regressed``  — worse by more than the bound.  For the exact
  metrics: ``error_rate`` rose, or ``sim_response_s`` rose (moved at
  all on a ``gamma-1989`` workload, whose times are frozen).
* ``unresolved`` — the run-to-run spread (interquartile range over
  median, the wider of the two sides) exceeds the bound and the runs
  overlap: the runs cannot tell, which is not the same as unchanged.

Then every exact count that differs is listed.  Exit status 1 when
any row regressed, 2 when the two results cannot be compared.
"""

from __future__ import annotations

import json
import sys

import workloads

EXACT = {metric.name for metric in workloads.PER_LAYER if metric.exact}


def spread(metric: dict) -> float:
    """Interquartile range as a share of the median."""
    if "q1" not in metric or not metric["value"]:
        return 0.0
    return (metric["q3"] - metric["q1"]) / abs(metric["value"])


def verdict(metric: workloads.EndToEnd, frozen_times: bool,
            a: dict, b: dict) -> str:
    sign = 1.0 if metric.better == "lower" else -1.0
    worse_by = sign * (b["value"] - a["value"])
    if metric.bound == 0.0:
        if metric.name == "sim_response_s" and frozen_times:
            return "ok" if b["value"] == a["value"] else "regressed"
        return "ok" if worse_by <= 0.0 else "regressed"
    if worse_by <= metric.floor:
        within = True
    else:
        within = worse_by <= metric.bound * abs(a["value"])
    # Runs as "badness": larger is worse whichever way the metric points.
    runs_a = [sign * v for v in a.get("samples") or [a["value"]]]
    runs_b = [sign * v for v in b.get("samples") or [b["value"]]]
    if max(runs_b) <= min(runs_a):
        return "ok"  # every run of B at least as good as every run of A
    if not within and min(runs_b) > max(runs_a):
        return "regressed"  # every run of B worse than every run of A
    if max(spread(a), spread(b)) > metric.bound:
        return "unresolved"
    return "ok" if within else "regressed"


def compare(a: dict, b: dict) -> tuple[list, list]:
    """``(rows, moved exact counts)`` for two ledger results."""
    rows = []
    moved = []
    for workload in workloads.WORKLOADS:
        side_a = a["workloads"].get(workload.name)
        side_b = b["workloads"].get(workload.name)
        if side_a is None or side_b is None:
            continue
        for metric in workloads.END_TO_END:
            one = side_a["end_to_end"][metric.name]
            two = side_b["end_to_end"][metric.name]
            rows.append((workload.name, metric, one, two,
                         verdict(metric, workload.frozen_times, one, two)))
        for name in sorted(EXACT & set(side_a["per_layer"])
                           & set(side_b["per_layer"])):
            one = side_a["per_layer"][name]["value"]
            two = side_b["per_layer"][name]["value"]
            if one != two:
                moved.append((workload.name, name, one, two))
    return rows, moved


def main(path_a: str, path_b: str) -> int:
    with open(path_a) as handle:
        a = json.load(handle)
    with open(path_b) as handle:
        b = json.load(handle)
    engines = a["stamp"]["be_engine"], b["stamp"]["be_engine"]
    if engines[0] != engines[1]:
        print(f"refusing to compare: A ran the {engines[0]!r} kernel "
              f"backend, B ran {engines[1]!r}", file=sys.stderr)
        return 2
    for key in ("seed", "quick"):
        if a["stamp"][key] != b["stamp"][key]:
            print(f"refusing to compare: {key} differs "
                  f"({a['stamp'][key]} vs {b['stamp'][key]})",
                  file=sys.stderr)
            return 2
    rows, moved = compare(a, b)
    print(f"A {a['stamp']['git'][:12]}  B {b['stamp']['git'][:12]}  "
          f"backend {engines[0]}  seed {a['stamp']['seed']}")
    print(f"{'workload':<20} {'metric':<15} {'A median':>12} "
          f"{'A iqr':>9} {'B median':>12} {'B iqr':>9} {'B vs A':>8} "
          f"{'bound':>6}  verdict")
    for workload, metric, one, two, outcome in rows:
        change = ((two["value"] - one["value"]) / abs(one["value"])
                  if one["value"] else 0.0)
        print(f"{workload:<20} {metric.name:<15} {one['value']:>12.6g} "
              f"{spread(one):>8.1%} {two['value']:>12.6g} "
              f"{spread(two):>8.1%} {change:>+8.1%} "
              f"{metric.bound:>6.0%}  {outcome}")
    for workload, name, one, two in moved:
        print(f"exact count moved: {workload} {name}: {one!r} -> {two!r}")
    if not moved:
        print("exact counts: all identical")
    regressed = [row for row in rows if row[4] == "regressed"]
    unresolved = [row for row in rows if row[4] == "unresolved"]
    print(f"{len(rows)} rows: {len(regressed)} regressed, "
          f"{len(unresolved)} unresolved")
    return 1 if regressed else 0
