"""End-to-end invariant coverage (``REPRO_VERIFY=1`` joins).

Each algorithm runs a real reduced-scale join on a verify-enabled
machine; the monitor must have exercised every machine-wide invariant
and its independent ledger must reflect the workload.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

#: Invariants every drained single-query machine must have checked.
MACHINE_CHECKS = {
    "tuple-conservation",
    "scan-conservation",
    "mailbox-drain",
    "page-accounting",
    "network-conservation",
    "resource-sanity",
}

ALGORITHMS = ["simple", "grace", "hybrid", "sort-merge"]

#: (algorithm, memory_ratio, configuration, hpja).  Sort-merge is
#: local-only (the driver rejects the remote configuration); Simple at
#: reduced ratios recurses through overflow resolution — included
#: deliberately, the invariants must hold there too.
CASES = [
    (algorithm, ratio, configuration, hpja)
    for algorithm in ALGORITHMS
    for ratio in (1.0, 0.6, 0.35)
    for configuration in ("local", "remote")
    for hpja in (True, False)
    if not (algorithm == "sort-merge" and configuration == "remote")
]


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_all_invariants_checked(tiny_db, verified_join, algorithm):
    machine, result = verified_join(tiny_db, algorithm, 1.0)
    summary = machine.monitor.summary()
    passed = set(summary["checks_passed"])
    assert MACHINE_CHECKS <= passed
    assert "join-result" in passed
    assert result.result_tuples == tiny_db.expected_result_tuples


@pytest.mark.parametrize("algorithm", ["grace", "hybrid"])
def test_invariants_hold_under_bucket_partitioning(tiny_db,
                                                   verified_join,
                                                   algorithm):
    machine, result = verified_join(tiny_db, algorithm, 0.5)
    assert result.num_buckets > 1
    assert MACHINE_CHECKS <= set(machine.monitor.summary()["checks_passed"])


def test_invariants_hold_on_remote_configuration(tiny_db,
                                                 verified_join):
    machine, result = verified_join(tiny_db, "hybrid", 1.0,
                                    configuration="remote")
    assert MACHINE_CHECKS <= set(machine.monitor.summary()["checks_passed"])
    assert result.result_tuples == tiny_db.expected_result_tuples


# The REPRO_VERIFY gate the function-scoped fixture opens holds for
# every example, so sharing it across examples is sound.
@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=st.sampled_from(CASES))
def test_invariants_hold_across_cases(tiny_db, tiny_db_nonhpja,
                                      verified_join, case):
    algorithm, ratio, configuration, hpja = case
    db = tiny_db if hpja else tiny_db_nonhpja
    machine, result = verified_join(db, algorithm, ratio,
                                    configuration=configuration)
    passed = set(machine.monitor.summary()["checks_passed"])
    assert MACHINE_CHECKS | {"join-result"} <= passed
    assert result.result_tuples == db.expected_result_tuples


def test_invariants_hold_under_skew(tiny_skew_db, verified_join):
    machine, result = verified_join(tiny_skew_db, "hybrid", 0.5)
    passed = set(machine.monitor.summary()["checks_passed"])
    assert MACHINE_CHECKS | {"join-result"} <= passed
    assert result.result_tuples == tiny_skew_db.expected_result_tuples


def test_ledger_reflects_workload(tiny_db, verified_join):
    machine, result = verified_join(tiny_db, "hybrid", 1.0)
    summary = machine.monitor.summary()
    scanned = tiny_db.outer.cardinality + tiny_db.inner.cardinality
    assert summary["tuples_scanned"] == scanned
    assert summary["tuples_scan_routed"] == scanned
    assert summary["tuples_received"] > 0
    assert summary["packets_received"] > 0
    assert summary["routers"] > 0
    assert summary["split_tables_checked"] >= 1


def test_monitor_absent_by_default(monkeypatch):
    from repro.engine.machine import GammaMachine
    monkeypatch.delenv("REPRO_VERIFY", raising=False)
    assert GammaMachine.local(2).monitor is None


def test_gate_literal_zero_is_off(monkeypatch):
    from repro.engine.machine import GammaMachine
    monkeypatch.setenv("REPRO_VERIFY", "0")
    assert GammaMachine.local(2).monitor is None


def test_verify_mode_does_not_change_simulated_time(tiny_db,
                                                    verified_join,
                                                    tmp_path):
    """The monitor observes; it must never perturb the simulation."""
    from repro.core.joins import run_join
    from repro.engine.machine import GammaMachine
    machine, verified = verified_join(tiny_db, "hybrid", 0.5)
    import os
    saved = os.environ.pop("REPRO_VERIFY", None)
    try:
        plain_machine = GammaMachine.local(4)
        assert plain_machine.monitor is None
        plain = run_join("hybrid", plain_machine, tiny_db.outer,
                         tiny_db.inner, join_attribute="unique1",
                         memory_ratio=0.5)
    finally:
        if saved is not None:
            os.environ["REPRO_VERIFY"] = saved
    assert repr(plain.response_time) == repr(verified.response_time)
