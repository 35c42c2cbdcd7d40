"""Unit tests for the Simulator event loop."""

import os
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Simulator
from repro.sim.engine import SimulationError
from repro.sim.events import PRIORITY_URGENT
from repro.sim.resources import Resource, Store
from tests.sim.classic import classic_use


def test_clock_starts_at_zero(sim):
    assert sim.now == 0.0


def test_time_never_moves_backwards(sim):
    times = []

    def body():
        for delay in (1.0, 0.5, 2.0, 0.0):
            yield sim.timeout(delay)
            times.append(sim.now)

    sim.process(body())
    sim.run()
    assert times == sorted(times)
    assert times == [1.0, 1.5, 3.5, 3.5]


def test_cannot_schedule_into_past(sim):
    with pytest.raises(ValueError, match="past"):
        sim._schedule(sim.event(), delay=-0.1)


def test_run_drains_heap(sim):
    for delay in range(5):
        sim.timeout(float(delay))
    sim.run()
    assert sim.queued_events == 0


def test_step_fires_one_event(sim):
    first = sim.timeout(1.0)
    second = sim.timeout(2.0)
    sim.step()
    assert first.fired
    assert not second.fired
    assert sim.now == 1.0


def test_step_with_nothing_scheduled_raises(sim):
    with pytest.raises(SimulationError, match="nothing scheduled"):
        sim.step()


def test_step_empty_after_drain_raises(sim):
    sim.timeout(1.0)
    sim.step()
    with pytest.raises(SimulationError, match="nothing scheduled"):
        sim.step()


def test_urgent_events_must_be_immediate(sim):
    with pytest.raises(ValueError, match="URGENT"):
        sim._schedule(sim.event(), delay=1.0, priority=PRIORITY_URGENT)


def test_kernel_counters(sim):
    for delay in range(3):
        sim.timeout(float(delay))
    sim.run()
    counters = sim.kernel_counters()
    assert counters["events_fired"] == 3
    assert counters["heap_peak"] == 3
    assert counters["queued_events"] == 0


def test_determinism_bit_identical():
    """Two identical simulations produce identical event traces."""

    def build():
        sim = Simulator()
        trace = []

        def worker(name, period):
            for _ in range(10):
                yield sim.timeout(period)
                trace.append((round(sim.now, 9), name))

        sim.process(worker("a", 0.3))
        sim.process(worker("b", 0.7))
        sim.process(worker("c", 0.3))
        sim.run()
        return trace

    assert build() == build()


def test_run_until_between_events(sim):
    fired = []
    sim.timeout(1.0).callbacks.append(lambda e: fired.append(1))
    sim.timeout(3.0).callbacks.append(lambda e: fired.append(3))
    sim.run(until=2.0)
    assert fired == [1]
    assert sim.now == 2.0
    sim.run()
    assert fired == [1, 3]


@pytest.mark.parametrize("verify", ["0", "1"])
def test_run_until_rejects_a_bound_in_the_past(monkeypatch, verify):
    """Both run loops: a bound behind the clock must not rewind it."""
    monkeypatch.setenv("REPRO_VERIFY", verify)
    sim = Simulator()
    sim.timeout(10.0)
    sim.run(until=6.0)
    with pytest.raises(ValueError, match="past"):
        sim.run(until=2.0)
    assert sim.now == 6.0
    sim.run(until=6.0)  # until == now stays legal
    assert sim.now == 6.0
    sim.run()
    assert sim.now == 10.0


def test_large_heap_order():
    sim = Simulator()
    fired = []
    delays = [((i * 7919) % 1000) / 10.0 for i in range(500)]
    for delay in delays:
        sim.timeout(delay).callbacks.append(
            lambda e, d=delay: fired.append(d))
    sim.run()
    assert fired == sorted(delays) == sorted(fired)


# ---------------------------------------------------------------------------
# Kernel property: every way of driving the queue yields one trace
# ---------------------------------------------------------------------------

#: The inlined run() with every kernel switch at its default.
INLINED = {"REPRO_VERIFY": "0", "REPRO_AUDIT": "0"}


def run_traced(plan, env, bounds=(), classic=False):
    """Run one randomized workload, returning its full event trace.

    ``bounds`` drives the same plan through ``run(until=bound)`` once
    per bound before the final drain; ``classic`` spells every
    resource use out as the request→timeout→release chain.
    """
    # The kernel switches are read at construction (and monkeypatch
    # mixes badly with @given).
    with mock.patch.dict(os.environ, env):
        sim = Simulator()
    resources = [Resource(sim, capacity=1 + index % 2,
                          name=f"res-{index}") for index in range(2)]
    stores = [Store(sim, name=f"store-{index}") for index in range(2)]
    trace: list = []

    def body(pid, actions):
        for step, action in enumerate(actions):
            tag = action[0]
            if tag == "timeout":
                yield sim.timeout(action[1])
            elif tag == "use":
                resource = resources[action[1]]
                if classic:
                    yield from classic_use(sim, resource, action[2])
                else:
                    yield from resource.use(action[2])
            elif tag == "put":
                stores[action[1]].put((pid, step))
                yield sim.timeout(0.0)
            else:  # "get"
                item = yield stores[action[1]].get()
                trace.append((repr(sim.now), pid, step, "got", item))
            trace.append((repr(sim.now), pid, step))

    for pid, actions in enumerate(plan):
        sim.process(body(pid, actions), name=f"proc-{pid}")
    for bound in bounds:
        sim.run(until=bound)
    sim.run()
    return trace, repr(sim.now), sim.events_fired


action_strategy = st.one_of(
    st.tuples(st.just("timeout"), st.sampled_from((0.0, 0.5, 1.0, 2.0))),
    st.tuples(st.just("use"), st.sampled_from((0, 1)),
              st.sampled_from((0.25, 1.0))),
    st.tuples(st.just("put"), st.sampled_from((0, 1))),
    st.tuples(st.just("get"), st.sampled_from((0, 1))),
)

plan_strategy = st.lists(
    st.lists(action_strategy, min_size=1, max_size=6),
    min_size=1, max_size=6)


@settings(max_examples=60, deadline=None)
@given(plan=plan_strategy)
def test_every_run_loop_yields_the_step_loop_trace(plan):
    """The step() loop (``REPRO_VERIFY=1``) is the oracle; the inlined
    run(), the observe-only auditor and a bounded run in ten slices
    must reproduce its trace, clock and event count bit-for-bit.  The
    classic request→timeout→release chain fires two events per
    resource use where grant-and-hold fires one, so it is held to the
    trace and clock only."""
    oracle = run_traced(plan, dict(INLINED, REPRO_VERIFY="1"))
    assert run_traced(plan, INLINED) == oracle
    assert run_traced(plan, dict(INLINED, REPRO_AUDIT="1")) == oracle
    end = float(oracle[1])
    slices = [end * k / 10 for k in range(1, 10)] + [end]
    assert run_traced(plan, INLINED, bounds=slices) == oracle
    assert run_traced(plan, INLINED, classic=True)[:2] == oracle[:2]
