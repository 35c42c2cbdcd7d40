"""The ledger checks itself, at smoke sizes (``run.py --quick``).

    PYTHONPATH=src python -m pytest benchmarks/ledger -q
"""

from __future__ import annotations

import copy
import json
import pathlib
import re
import shutil
import statistics
import subprocess
import sys

import pytest

LEDGER = pathlib.Path(__file__).resolve().parent
ROOT = LEDGER.parents[1]
sys.path.insert(0, str(LEDGER))

import attribution  # noqa: E402
import compare  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def ledger(*args: str, cwd: pathlib.Path = ROOT, script=LEDGER / "run.py"
           ) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


@pytest.fixture(scope="module")
def benchmark_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def quick(tmp_path_factory) -> dict:
    """One full ``--quick`` run; its result file, parsed."""
    out = tmp_path_factory.mktemp("ledger") / "quick.json"
    done = ledger("--quick", "--out", str(out))
    assert done.returncode == 0, done.stderr + done.stdout[-2000:]
    result = json.loads(out.read_text())
    result["stdout"] = done.stdout
    return result


def test_benchmark_json_repeats_the_ledger(benchmark_json):
    assert benchmark_json["paths"] == ["benchmarks/ledger"]
    assert ([(w["name"], w["why"]) for w in benchmark_json["workloads"]]
            == [(w.name, w.why) for w in workloads.WORKLOADS])
    assert ([(m["name"], m["unit"], m["better"], m["bound"])
             for m in benchmark_json["end_to_end"]]
            == [(m.name, m.unit, m.better, m.bound)
                for m in workloads.END_TO_END if m.driver])
    assert ([(m["name"], m["unit"], m["better"])
             for m in benchmark_json["per_layer"]]
            == [(m.name, m.unit, m.better) for m in workloads.PER_LAYER])
    assert all(len(w["why"]) <= 200 for w in benchmark_json["workloads"])


def test_every_metric_is_named_in_benchmark_json(quick, benchmark_json):
    listed = {m["name"] for kind in ("end_to_end", "per_layer")
              for m in benchmark_json[kind]}
    assert set(quick["workloads"]) == {w.name for w in workloads.WORKLOADS}
    for name, side in quick["workloads"].items():
        assert list(side["end_to_end"]) == [
            m.name for m in workloads.END_TO_END]
        printed = set(side["end_to_end"]) | set(side["per_layer"])
        assert printed == listed, name
        for metric in printed:
            assert NAME.fullmatch(metric)
            assert f"{name:<20} {metric:<34}" in quick["stdout"]
        assert side["end_to_end"]["error_rate"]["value"] == 0.0
        assert side["failed"] == 0 and side["attempted"] > 0


def test_package_self_times_sum_to_the_traced_pass(quick):
    for name, side in quick["workloads"].items():
        packages = sum(side["per_layer"][f"{package}.self_s"]["value"]
                       for package in workloads.PACKAGES)
        assert packages == pytest.approx(side["traced_wall_s"], rel=0.02)
        assert side["per_layer"]["trace.overhead_ratio"]["value"] > 1.0


def test_result_is_stamped(quick):
    stamp = quick["stamp"]
    assert stamp["be_engine"] in ("cext", "numba", "fallback")
    assert stamp["seed"] == 1 and stamp["quick"] is True
    assert {"git", "python", "numpy", "nproc"} <= set(stamp)


def test_injected_failing_join_moves_error_rate():
    done = ledger("--quick", "--workload", "paper_local_s1",
                  "--inject-failure", "0")
    assert done.returncode == 1
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert line["correct"] is False
    # Job 0 of 4 fails in the warm-up and in the one timed pass.
    assert (line["failed"], line["attempted"]) == (2, 8)
    assert re.search(r"error_rate\s+0\.25 ", done.stdout)


def test_driver_line_has_exactly_the_declared_metrics(benchmark_json):
    for trace, kind in (("0", "end_to_end"), ("1", "per_layer")):
        done = ledger("--quick", "--workload", "scaleout_fabric_256",
                      "--seed", "5", "--seconds", "1", "--trace", trace)
        assert done.returncode == 0, done.stderr
        line = json.loads(done.stdout.strip().splitlines()[-1])
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["failed"] == 0
        assert ({name: m["unit"] for name, m in line["metrics"].items()}
                == {m["name"]: m["unit"] for m in benchmark_json[kind]})


def synthetic(result: dict, factor: float = 1.0) -> dict:
    """``result`` with steady made-up ``wall_s`` samples, scaled."""
    result = copy.deepcopy(result)
    for side in result["workloads"].values():
        samples = [factor * v for v in (0.98, 0.99, 1.0, 1.01, 1.02)]
        side["end_to_end"]["wall_s"].update(
            value=factor, q1=samples[1], q3=samples[3], min=samples[0],
            samples=samples, n=5)
    return result


def test_compare_flags_a_slower_wall_and_passes_itself(quick, tmp_path):
    base = tmp_path / "a.json"
    slow = tmp_path / "b.json"
    other_engine = tmp_path / "c.json"
    base.write_text(json.dumps(synthetic(quick)))
    slow.write_text(json.dumps(synthetic(quick, 1.3)))  # bound: 25 %
    foreign = synthetic(quick)
    foreign["stamp"]["be_engine"] = "some-other-engine"
    foreign["workloads"]["regimes_s1"]["per_layer"][
        "sim.events_fired"]["value"] += 1
    other_engine.write_text(json.dumps(foreign))

    same = ledger("--compare", str(base), str(base))
    assert same.returncode == 0, same.stdout
    assert "0 regressed" in same.stdout
    assert "exact counts: all identical" in same.stdout

    worse = ledger("--compare", str(base), str(slow))
    assert worse.returncode == 1
    rows = [row for row in worse.stdout.splitlines()
            if " wall_s " in row]
    assert len(rows) == 5 and all(row.endswith("regressed")
                                  for row in rows)
    # The faster side is not a regression.
    assert ledger("--compare", str(slow), str(base)).returncode == 0

    refused = ledger("--compare", str(base), str(other_engine))
    assert refused.returncode == 2 and "refusing" in refused.stderr
    _, moved = compare.compare(synthetic(quick), foreign)
    assert [(w, name) for w, name, _, _ in moved] == [
        ("regimes_s1", "sim.events_fired")]


def test_compare_verdicts():
    wall = next(m for m in workloads.END_TO_END if m.name == "wall_s")
    sim = next(m for m in workloads.END_TO_END
               if m.name == "sim_response_s")

    def runs(*samples: float) -> dict:
        q1, median, q3 = statistics.quantiles(samples, n=4)
        return {"value": median, "q1": q1, "q3": q3,
                "samples": list(samples)}

    steady = runs(1.0, 1.01, 0.99, 1.02, 0.98)
    noisy = runs(1.0, 1.6, 0.7, 1.3, 0.8)
    assert compare.verdict(wall, True, steady, steady) == "ok"
    assert compare.verdict(wall, True, noisy, runs(
        1.1, 1.7, 0.8, 1.4, 0.9)) == "unresolved"
    assert compare.verdict(wall, True, noisy, runs(
        0.5, 0.6, 0.55, 0.65, 0.7)) == "ok"
    assert compare.verdict(wall, True, noisy, runs(
        2.5, 2.6, 2.55, 2.65, 2.7)) == "regressed"
    moved = {"value": 10.0}, {"value": 9.0}
    assert compare.verdict(sim, True, *moved) == "regressed"
    assert compare.verdict(sim, False, *moved) == "ok"
    assert compare.verdict(sim, False, *reversed(moved)) == "regressed"


def test_foreign_time_goes_to_the_calling_package(tmp_path):
    root = str(tmp_path / "repro")
    engine = (f"{root}/sim/engine.py", 1, "run")
    pages = (f"{root}/catalog/pages.py", 1, "take")
    hashing = (f"{root}/hashing.py", 1, "hash_int")
    wrapper = ("/usr/lib/python3/numpy/core.py", 1, "concatenate")
    builtin = ("~", 0, "<built-in method numpy.concatenate>")
    loop = ("/somewhere/child.py", 1, "run_pass")
    stats = {
        loop: (1, 1, 0.5, 10.0, {}),
        engine: (1, 1, 4.0, 9.0, {loop: (1, 1, 4.0, 9.0)}),
        pages: (1, 1, 2.0, 4.0, {engine: (1, 1, 2.0, 4.0)}),
        hashing: (1, 1, 0.5, 0.5, {engine: (1, 1, 0.5, 0.5)}),
        wrapper: (4, 4, 1.0, 3.0, {pages: (3, 3, 0.75, 2.25),
                                   engine: (1, 1, 0.25, 0.75)}),
        builtin: (4, 4, 2.0, 2.0, {wrapper: (4, 4, 2.0, 2.0)}),
    }
    by_file = attribution.self_time_by_file(stats, root)
    assert sum(by_file.values()) == pytest.approx(10.0)
    assert by_file["catalog/pages.py"] == pytest.approx(2.0 + 0.75 + 1.5)
    assert by_file["sim/engine.py"] == pytest.approx(4.0 + 0.25 + 0.5)
    packages = attribution.by_package(by_file, workloads.PACKAGES)
    assert packages["other"] == pytest.approx(0.5 + 0.5)  # loop, hashing
    assert packages["catalog"] == pytest.approx(4.25)
    modules = attribution.by_module(by_file, workloads.MODULE_SPLITS)
    assert modules["catalog.pages"] == pytest.approx(4.25)
    assert modules["sim.engine"] == pytest.approx(4.75)
    assert modules["core.joins"] == 0.0


def test_frozen_figure5_times_are_the_golden_ones():
    golden_path = ROOT / "benchmarks" / "results" / "golden_scale0.1.json"
    if not golden_path.is_file():
        pytest.skip("no golden figure-5 file in this checkout")
    golden = json.loads(golden_path.read_text())["figures"]["figure5"]
    frozen = json.loads((LEDGER / "expected.json").read_text())
    jobs = workloads.get("fig5_sweep_s01").jobs
    entries = frozen["workloads"]["fig5_sweep_s01"]
    assert len(entries) == len(jobs) == 24
    for job, entry in zip(jobs, entries):
        assert entry["label"] == job.label
        assert entry["response_time"] == golden[job.algorithm][
            repr(job.memory_ratio)]
    for workload in workloads.WORKLOADS:
        entries = frozen["workloads"][workload.name]
        assert [e["label"] for e in entries] == [
            job.label for job in workload.jobs]
        assert all((e["response_time"] is not None)
                   == workload.frozen_times for e in entries)


def test_no_program_no_result(tmp_path):
    """In a directory holding only BENCHMARK.json and the ledger the
    command fails without printing a result line."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(LEDGER, tmp_path / "benchmarks" / "ledger",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    done = ledger("--workload", "fig5_sweep_s01", "--seed", "1",
                  "--seconds", "1", "--trace", "0", cwd=tmp_path,
                  script=tmp_path / "benchmarks" / "ledger" / "run.py")
    assert done.returncode != 0
    assert "correct" not in done.stdout
