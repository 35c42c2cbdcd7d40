"""Certificate derivation, table classification, and soundness.

The soundness property (ISSUE acceptance): cohorts the table certifies
*commutative* can be fired in either order with bit-identical traces,
and the known-conflicting fixture pair is provably NOT certified.
Order is forced by spawning the workloads in both orders — heap tie
order is scheduling order, so the spawn order IS the same-instant
firing order.
"""

from __future__ import annotations

import collections
import pathlib

import pytest

from repro.analysis.effects import CertificateTable, build_table
from repro.analysis.effects.analyzer import analyse_paths, analyse_tree
from repro.analysis.effects.certificates import build_baseline

from tests.analysis import workloads
from tests.sim.tie_order import SEPARATOR, drive

WORKLOADS = pathlib.Path(workloads.__file__)
ROOT = pathlib.Path(__file__).parents[2]


@pytest.fixture(scope="module")
def table():
    analysis = analyse_paths([WORKLOADS])
    return CertificateTable(build_table(analysis), source="fixture")


class TestTableDerivation:
    def test_table_is_deterministic(self):
        analysis = analyse_paths([WORKLOADS])
        assert build_table(analysis) == build_table(
            analyse_paths([WORKLOADS]))

    def test_disjoint_pair_is_certified_commutative(self, table):
        assert table.classify(
            ["process:alpha", "process:beta"]) == (True, True)
        assert table.verdict("process:alpha",
                             "process:beta") == "commutes"

    def test_conflicting_pair_is_not_certified(self, table):
        """The known-conflicting site pair must NOT be certified."""
        batchable, commutative = table.classify(
            ["process:noisy-put", "process:noisy-get"])
        assert batchable and not commutative
        assert table.verdict("process:noisy-put",
                             "process:noisy-get") == "conflicts"

    def test_self_pair_of_a_writer_is_not_commutative(self, table):
        assert table.classify(
            ["process:alpha", "process:alpha"]) == (True, False)

    def test_unmatched_label_is_uncertified(self, table):
        assert table.classify(["mystery:thing"]) == (False, False)
        assert table.classify(
            ["process:alpha", "mystery:thing"]) == (False, False)

    def test_opaque_site_blocks_commutativity_only(self, table):
        batchable, commutative = table.classify(["done:alpha",
                                                 "done:beta"])
        assert batchable and not commutative

    def test_baseline_lists_suspects(self):
        analysis = analyse_paths([WORKLOADS])
        baseline = build_baseline(analysis)
        assert baseline["suspects"] == analysis.suspects()


@pytest.fixture(scope="module")
def tree_table():
    """The table of the repository's own sim packages, built in
    memory (nothing is committed or loaded at run time)."""
    return CertificateTable(build_table(analyse_tree(ROOT)),
                            source="tree")


class TestCommittedTable:
    def test_loads_and_matches_runtime_labels(self, tree_table):
        assert len(tree_table) > 0
        # The paper workloads' own labels must be attributed.
        assert tree_table.match("process:grace.b#.build[#]")
        assert tree_table.match("resource:disk#.arm")

    def test_certifies_all_observed_benign_signatures(self, tree_table,
                                                      monkeypatch):
        """Acceptance: every tie signature observed on a real sweep
        point is statically batchable — which also rules out labels
        the table cannot attribute."""
        from repro.experiments.config import ExperimentConfig
        from repro.experiments.runner import run_sweep_point
        from repro.sim import Simulator
        from repro.wisconsin.database import WisconsinDatabase
        ties: collections.Counter = collections.Counter()
        monkeypatch.setattr(Simulator, "run",
                            lambda sim: drive(sim, ties=ties))
        config = ExperimentConfig(scale=0.01, seed=3, num_disk_nodes=4,
                                  num_remote_join_nodes=4)
        db = WisconsinDatabase.joinabprime(4, scale=0.01, seed=3)
        run_sweep_point(config, db, "hybrid", 1.0)
        assert ties, "no tie signatures observed"
        uncovered = [signature for signature in ties
                     if not tree_table.batchable(
                         signature.split(SEPARATOR))]
        assert uncovered == []


# -- order-swap soundness ---------------------------------------------------

def _run_disjoint(order):
    """Run Alpha+Beta with the given spawn order; the traces are the
    observable state."""
    from repro.sim import Simulator
    sim = Simulator()
    alpha = workloads.AlphaWorker(sim)
    beta = workloads.BetaWorker(sim)
    for worker in (alpha, beta) if order == "ab" else (beta, alpha):
        worker.start()
    sim.run()
    return alpha.trace, beta.trace, sim.now, sim.events_fired


def _run_noisy(order):
    from repro.sim import Simulator
    sim = Simulator()
    pair = workloads.NoisyPair(sim)
    if order == "pg":
        sim.process(pair.put_side(), name="noisy-put")
        sim.process(pair.get_side(), name="noisy-get")
    else:
        sim.process(pair.get_side(), name="noisy-get")
        sim.process(pair.put_side(), name="noisy-put")
    sim.run()
    return pair.log


class TestOrderSwapSoundness:
    def test_certified_commutative_cohorts_are_order_insensitive(
            self, table):
        assert table.commutative(["process:alpha", "process:beta"])
        first = _run_disjoint("ab")
        second = _run_disjoint("ba")
        # Bit-identical per-worker traces, clock, and event count.
        assert first == second
        assert first[0] == [(float(t), t) for t in range(1, 5)]

    def test_uncertified_pair_really_is_order_sensitive(
            self, table):
        """Negative control: the pair the table refuses to certify
        observably depends on cohort order, so the refusal is not
        vacuous conservatism."""
        assert not table.commutative(
            ["process:noisy-put", "process:noisy-get"])
        assert _run_noisy("pg") != _run_noisy("gp")
