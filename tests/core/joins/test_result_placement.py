"""Where each result row is stored, and how.

The result store router deals rows round-robin by count (row ``t`` of a
producer's stream to disk node ``t mod C``), the arena probe and the
sort-merge merge hand it joined pages, and the scalar chain probe hands
it tuples.  None of that may move a row: each disk node's result rows,
in stored order, must be those of the row-at-a-time router, recorded
here as digests; and a chained join over the stored result must take
the recorded simulated time.  The stored result itself is int32 column
pages — 104 bytes a row for the paper's 26 integers.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.catalog import HashPartitioning, load_relation
from repro.catalog.pages import ColumnPage
from repro.core.joins import run_join
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import build_machine
from repro.wisconsin.database import WisconsinDatabase
from repro.wisconsin.generator import WisconsinGenerator
from repro.wisconsin.queries import join_csel_asel_b

ALGORITHMS = ("hybrid", "grace", "simple", "sort-merge")
SCALE = 0.05

#: (configuration, HPJA?) — gamma-1989's 9-tuple packets drop every
#: probe to the scalar chains; modern-2018's 39-tuple packets take the
#: arena probe, with chain-probed tails.
CASES = {
    "gamma-1989 HPJA": (
        ExperimentConfig(scale=SCALE, seed=5, num_disk_nodes=4,
                         hardware_profile="gamma-1989",
                         topology="token-ring"), True),
    "modern-2018 non-HPJA": (
        ExperimentConfig(scale=SCALE, seed=5, num_disk_nodes=4,
                         hardware_profile="modern-2018", topology="fabric"),
        False),
}

#: Per disk node, the first 16 hex digits of the SHA-256 of ``repr``
#: of its result rows in stored order, as the row-at-a-time round-robin
#: router stored them.
DIGESTS = {
    ("gamma-1989 HPJA", "hybrid", 0.5): [
        "1797580c036ae138", "3d769387273b8d56", "f7e36880ac54053d",
        "00ee10267e4d7ae3"],
    ("gamma-1989 HPJA", "hybrid", 0.15): [
        "6e06f5849f575f86", "da138a0e3eec5dd4", "1c57acc25041b987",
        "f05b719b29826014"],
    ("gamma-1989 HPJA", "grace", 0.5): [
        "e36802d611a94f20", "718359a02c2de6af", "a8688949e10847b3",
        "8f1bd97c2da12540"],
    ("gamma-1989 HPJA", "grace", 0.15): [
        "6e06f5849f575f86", "da138a0e3eec5dd4", "5527d08c79f1d389",
        "f05b719b29826014"],
    ("gamma-1989 HPJA", "simple", 0.5): [
        "0ec1b6fedcbcede4", "cae05ede1d2fff3f", "7a028f24497cde95",
        "c7ef284bce4650e2"],
    ("gamma-1989 HPJA", "simple", 0.15): [
        "145d9b4923904979", "977cb7aed7b84321", "fd57c8d1f1dbeefe",
        "a807ec7dc9a8db39"],
    ("gamma-1989 HPJA", "sort-merge", 0.5): [
        "586e1536b8292a81", "eeebb85cc9df1e3f", "d744a2423c88411a",
        "56693bfb0331b26d"],
    ("gamma-1989 HPJA", "sort-merge", 0.15): [
        "586e1536b8292a81", "eeebb85cc9df1e3f", "d744a2423c88411a",
        "56693bfb0331b26d"],
    ("modern-2018 non-HPJA", "hybrid", 0.5): [
        "6769d4772a61d8ff", "54bb9f5156f7ea01", "b5112fc419f0ccee",
        "8162f7c5335b005d"],
    ("modern-2018 non-HPJA", "hybrid", 0.15): [
        "ad35a345a888e7c9", "c3984bc87600ef90", "84c0328104fd39d3",
        "e7232d72c2e5179a"],
    ("modern-2018 non-HPJA", "grace", 0.5): [
        "adfadc0d8476943d", "9b6c012a3efa6a2a", "51b0746481afa18c",
        "eb155001280c3bf7"],
    ("modern-2018 non-HPJA", "grace", 0.15): [
        "0e528a9a188d4df6", "20cd394bf715ad99", "a138c06508ab9a00",
        "f878421ac0c5fbc4"],
    ("modern-2018 non-HPJA", "simple", 0.5): [
        "330f5a02dae65cde", "783c8db66c2e08e1", "8bed4fe0cafbed9d",
        "54151dde7fc4d149"],
    ("modern-2018 non-HPJA", "simple", 0.15): [
        "1b66b7ed44909710", "ad140af36795f69d", "7f78575ea822120c",
        "144c54abf65ba04c"],
    ("modern-2018 non-HPJA", "sort-merge", 0.5): [
        "5b95a872240c48ac", "9a3fa19cc8b3c45e", "57e3ec8e96be04ab",
        "711e90c6d5aa703d"],
    ("modern-2018 non-HPJA", "sort-merge", 0.15): [
        "5b95a872240c48ac", "9a3fa19cc8b3c45e", "57e3ec8e96be04ab",
        "711e90c6d5aa703d"],
}

#: The chained joinCselAselB plan: stage 1's time, then stage 2's per
#: algorithm, with stage 2's per-node digests.
CHAINED_TIMES = {
    "stage 1": "11.736023599999957",
    "hybrid": "19.801405600000024",
    "grace": "22.108734400000042",
    "simple": "21.318339200000008",
    "sort-merge": "19.668644800000074",
}
CHAINED_DIGESTS = {
    "hybrid": ["4ef6949cbb771c3d", "a0aa52cee8bd905e", "c39b82d670eba838",
               "8b7f3d04169bcbd4"],
    "grace": ["4ef6949cbb771c3d", "0bc1a6dc2cd37f43", "6d42c80e752a9026",
              "0af45166e751eb43"],
    "simple": ["eba8115ad13f1e14", "07490a5fbcb21df7", "4d68567701925756",
               "d1b70cabbce070f8"],
    "sort-merge": ["0fc4ae45fde806a6", "d47b280653b62e47",
                   "da956cd20054fbd8", "d9bad4293e2d0c94"],
}


def digests(result) -> list[str]:
    return [hashlib.sha256(repr([tuple(row) for row in fragment])
                           .encode()).hexdigest()[:16]
            for fragment in result.result_fragments]


@pytest.fixture(scope="module")
def databases() -> dict:
    return {case: WisconsinDatabase.joinabprime(4, scale=SCALE, seed=5,
                                                hpja=hpja)
            for case, (_config, hpja) in CASES.items()}


def run(case: str, db, algorithm: str, ratio: float):
    config = CASES[case][0]
    return run_join(algorithm, build_machine(config, "local"), db.outer,
                    db.inner, inner_attribute=db.inner_attribute,
                    outer_attribute=db.outer_attribute,
                    memory_ratio=ratio, collect_result=False)


@pytest.mark.parametrize("case, algorithm, ratio", list(DIGESTS))
def test_each_node_stores_the_recorded_rows(databases, case, algorithm,
                                            ratio):
    result = run(case, databases[case], algorithm, ratio)
    assert digests(result) == DIGESTS[case, algorithm, ratio]


@pytest.mark.parametrize("case", list(CASES))
def test_result_fragments_are_int32_pages(databases, case):
    """Every stored result row is 26 four-byte integers in a page —
    whether the arena probe, the merge or the scalar chain probe
    built it."""
    for algorithm in ALGORITHMS:
        result = run(case, databases[case], algorithm, 0.5)
        assert result.result_tuples == databases[case].inner.cardinality
        for fragment in result.result_fragments:
            assert isinstance(fragment, ColumnPage), algorithm
            assert fragment._block.dtype == np.int32, algorithm
            assert fragment._block.nbytes == 4 * 26 * len(fragment)


def test_chained_plan_keeps_its_times_and_placement():
    """joinCselAselB as two chained joins: stage 2 scans stage 1's
    stored result pages, and takes the recorded time with each node's
    recorded rows."""
    config = CASES["gamma-1989 HPJA"][0]
    db = WisconsinDatabase.joinabprime(4, scale=SCALE, seed=5)
    query = join_csel_asel_b(outer_cardinality=db.outer.cardinality,
                             inner_cardinality=db.inner.cardinality)
    stage1 = run_join("hybrid", build_machine(config, "local"), db.outer,
                      db.inner, memory_ratio=0.5, **query.spec_kwargs())
    assert repr(stage1.response_time) == CHAINED_TIMES["stage 1"]
    intermediate = stage1.as_relation(
        "AselBsel", db.inner.schema.concat(db.outer.schema,
                                           name="AselBsel"))
    generator = WisconsinGenerator(seed=77)
    relation_c = load_relation(
        "C", generator.schema,
        generator.relation_rows(db.outer.cardinality),
        HashPartitioning("unique1"), 4)
    for algorithm in ALGORITHMS:
        stage2 = run_join(algorithm, build_machine(config, "local"),
                          relation_c, intermediate,
                          inner_attribute="unique1",
                          outer_attribute="unique1", memory_ratio=0.5)
        assert repr(stage2.response_time) == CHAINED_TIMES[algorithm]
        assert digests(stage2) == CHAINED_DIGESTS[algorithm]
