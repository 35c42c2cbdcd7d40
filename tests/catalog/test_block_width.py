"""Block width is invisible: int32 pages run exactly as int64 pages do.

Wisconsin relations are stored as int32 blocks (the paper's 4-byte
integers); only values that need them get int64 blocks.  Every value
leaves a page as a Python int and every numpy consumer widens before
arithmetic, so the width must not show anywhere.  This oracle builds
each database twice — as generated, and with every fragment block
widened to int64 through ``ColumnPage.from_block`` — and requires the
four join algorithms to report identical simulated times, phases,
network statistics, counters and result multisets on both.
"""

from __future__ import annotations

import collections
import dataclasses

import numpy as np
import pytest

from repro.catalog.pages import ColumnPage, ConstColumn
from repro.catalog.relation import Relation
from repro.core.joins import run_join
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import build_machine
from repro.wisconsin.database import WisconsinDatabase

ALGORITHMS = ("hybrid", "grace", "simple", "sort-merge")


def widened(relation: Relation) -> Relation:
    """``relation`` with every fragment block copied to int64."""
    fragments = []
    for fragment in relation.fragments:
        assert fragment._block.dtype == np.int32
        fragments.append(ColumnPage.from_block(
            fragment._block.astype(np.int64), (ConstColumn(""),) * 3))
    return Relation(relation.name, relation.schema, fragments,
                    partitioning=relation.partitioning)


def measurements(config: ExperimentConfig, db: WisconsinDatabase,
                 algorithm: str, memory_ratio: float,
                 **spec_kwargs) -> tuple:
    result = run_join(
        algorithm, build_machine(config, "local"), db.outer, db.inner,
        inner_attribute=db.inner_attribute,
        outer_attribute=db.outer_attribute, memory_ratio=memory_ratio,
        collect_result=True, **spec_kwargs)
    return (repr(result.response_time),
            [repr(dataclasses.astuple(phase)) for phase in result.phases],
            result.network, result.counters, result.overflow_events,
            result.disk_page_reads, result.disk_page_writes,
            collections.Counter(result.result_rows))


CASES = {
    "gamma-1989/token-ring, HPJA": (
        ExperimentConfig(scale=0.02, seed=3, num_disk_nodes=4,
                         hardware_profile="gamma-1989",
                         topology="token-ring"),
        lambda: WisconsinDatabase.joinabprime(4, scale=0.02, seed=3),
        0.5, {}),
    "modern-2018/fabric, non-HPJA": (
        ExperimentConfig(scale=0.02, seed=3, num_disk_nodes=4,
                         hardware_profile="modern-2018", topology="fabric"),
        lambda: WisconsinDatabase.joinabprime(4, scale=0.02, seed=3,
                                              hpja=False),
        0.5, {}),
    "NU skew, bit filters": (
        ExperimentConfig(scale=0.05, seed=3, num_disk_nodes=4),
        lambda: WisconsinDatabase.skewed(4, "NU", scale=0.05, seed=3),
        1.0, {"bit_filters": True, "capacity_slack": 1.06}),
}


@pytest.mark.parametrize("case", list(CASES))
def test_joins_are_width_blind(case):
    config, make_db, memory_ratio, spec_kwargs = CASES[case]
    narrow = make_db()
    wide = dataclasses.replace(narrow, outer=widened(narrow.outer),
                               inner=widened(narrow.inner))
    for algorithm in ALGORITHMS:
        expected = measurements(config, narrow, algorithm, memory_ratio,
                                **spec_kwargs)
        assert expected[-1], algorithm
        assert measurements(config, wide, algorithm, memory_ratio,
                            **spec_kwargs) == expected, algorithm


def test_wisconsin_fragments_hold_four_byte_integers():
    db = WisconsinDatabase.joinabprime(8, scale=0.1)
    for relation in (db.outer, db.inner):
        for fragment in relation.fragments:
            block = fragment._block
            assert block.dtype == np.int32
            assert block.nbytes == 4 * 13 * len(fragment)
