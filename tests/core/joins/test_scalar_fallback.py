"""Oracle for the scalar route fallback.

Every base scan of a plain integer key column takes the vectorized
data plane.  The per-row scalar routes stay as the fallback the
*input* selects: a selection predicate at the scan site, a forming
filter, or a key column the kernels cannot hash.  A predicate that
passes every row sends each base scan down that fallback while
selecting exactly the same tuples, so no simulated time may move.
"""

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_sweep_point

CONFIG = ExperimentConfig(scale=0.02, num_disk_nodes=4,
                          num_remote_join_nodes=4, profile=True,
                          verify_results=True)

#: (algorithm, memory ratio, configuration, bit filters, HPJA) — each
#: algorithm at full and reduced memory, with remote joins, filters
#: and non-HPJA data spread across the set (sort-merge is local-only).
CASES = [
    ("simple", 1.0, "local", False, True),
    ("simple", 0.3, "remote", True, False),
    ("grace", 1.0, "remote", True, True),
    ("grace", 0.3, "local", False, False),
    ("hybrid", 1.0, "local", True, False),
    ("hybrid", 0.3, "remote", False, True),
    ("sort-merge", 1.0, "local", True, True),
    ("sort-merge", 0.3, "local", False, False),
]


def keep_every_row(row):
    return True


def signature(point):
    result = point.result
    return (repr(result.response_time),
            [(s.name, repr(s.start), repr(s.end)) for s in result.phases],
            result.result_tuples)


@pytest.mark.parametrize("algorithm,ratio,configuration,filters,hpja",
                         CASES)
def test_all_pass_predicate_matches_the_vector_plane(
        algorithm, ratio, configuration, filters, hpja, tiny_db,
        tiny_db_nonhpja):
    db = tiny_db if hpja else tiny_db_nonhpja
    runs = {}
    for predicate in (None, keep_every_row):
        runs[predicate] = run_sweep_point(
            CONFIG, db, algorithm, ratio, configuration=configuration,
            bit_filters=filters, inner_predicate=predicate,
            outer_predicate=predicate)
    vector, scalar = runs[None], runs[keep_every_row]
    assert vector.kernel_counters["dp_pages_scalar"] == 0
    assert scalar.kernel_counters["dp_pages_scalar"] > 0
    assert signature(scalar) == signature(vector)
