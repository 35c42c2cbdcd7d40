"""Whole joins across the flat / combining-tree boundary.

``modern-2018`` closes a stream through the combining tree once it
fans out to more consumers than the profile's arity (DESIGN.md §14).
Every join here runs with the ``REPRO_VERIFY`` monitor armed, so tuple
conservation, mailbox drain and the reference-join result are checked
on each side of that boundary and well past it, on every topology.
"""

from __future__ import annotations

import pytest

from repro.core.joins import run_join
from repro.costs import get_profile
from repro.engine.machine import GammaMachine
from repro.network.combining import engages
from repro.wisconsin.database import WisconsinDatabase

MODERN = get_profile("modern-2018")
ARITY = MODERN.eos_tree_arity
ALGORITHMS = ("hybrid", "grace", "simple", "sort-merge")
FANOUTS = (ARITY, ARITY + 1, 24, 64)
TOPOLOGIES = ("token-ring", "fabric", "hypercube")


def verified_join(monkeypatch, db, algorithm, nodes, topology,
                  memory_ratio=0.5, **kwargs):
    monkeypatch.setenv("REPRO_VERIFY", "1")
    machine = GammaMachine.local(nodes, costs=MODERN, topology=topology)
    result = run_join(
        algorithm, machine, db.outer, db.inner,
        inner_attribute=db.inner_attribute,
        outer_attribute=db.outer_attribute,
        memory_ratio=memory_ratio, **kwargs)
    summary = machine.monitor.summary()
    for check in ("tuple-conservation", "mailbox-drain", "join-result"):
        assert check in summary["checks_passed"], (algorithm, check)
    return machine, result


@pytest.mark.parametrize("topology", TOPOLOGIES)
@pytest.mark.parametrize("nodes", FANOUTS)
def test_all_algorithms_verify_at_fanout(monkeypatch, nodes, topology):
    db = WisconsinDatabase.joinabprime(nodes, scale=0.05, seed=5)
    for algorithm in ALGORITHMS:
        machine, result = verified_join(monkeypatch, db, algorithm,
                                        nodes, topology)
        stats = result.network
        assert stats.eos_messages <= stats.control_messages
        # Every stream between the disk nodes is N wide, so the tree
        # is in use exactly when N is past the arity.
        assert bool(machine.stream_groups) == engages(ARITY, nodes)
        if machine.stream_groups:
            # O(N) per stream: far below one flat stream's N * N.
            per_stream = stats.eos_messages / len(machine.stream_groups)
            assert per_stream < 4 * nodes


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_skewed_join_with_overflow_verifies_on_the_tree(monkeypatch,
                                                        algorithm):
    """Inner-relation skew under scarce memory: join sites receive very
    different loads, hash tables overflow, and the overflow rounds run
    with fewer producers than consumers — the tree must hold every
    consumer open until the slowest producer has reported."""
    nodes = 24
    db = WisconsinDatabase.skewed(nodes, "NU", scale=0.2, seed=3)
    _machine, result = verified_join(
        monkeypatch, db, algorithm, nodes, "fabric",
        memory_ratio=0.3, capacity_slack=1.06)
    if algorithm != "sort-merge":
        assert result.overflow_events
        assert result.counters["outer_tuples_spooled"]


def test_remote_configuration_crosses_node_classes(monkeypatch):
    """Producers on the disk nodes, consumers on the diskless join
    nodes (and back for the result store): owners and the consumers
    they release are never co-located."""
    monkeypatch.setenv("REPRO_VERIFY", "1")
    db = WisconsinDatabase.joinabprime(12, scale=0.05, seed=5)
    for algorithm in ("hybrid", "grace", "simple"):
        machine = GammaMachine.remote(12, 20, costs=MODERN,
                                      topology="fabric")
        run_join(algorithm, machine, db.outer, db.inner,
                 inner_attribute=db.inner_attribute,
                 outer_attribute=db.outer_attribute,
                 memory_ratio=0.5, configuration="remote")
        assert machine.stream_groups
        assert "mailbox-drain" in machine.monitor.summary()[
            "checks_passed"]
