"""Unit tests for the Simulator event loop."""

import os
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sim import Simulator
from repro.sim.engine import SimulationError
from repro.sim.events import PRIORITY_URGENT
from repro.sim.resources import Resource, Store
from tests.sim.classic import classic_use
from tests.sim.tie_order import drive


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


def test_nan_delays_are_rejected(sim):
    nan = float("nan")
    with pytest.raises(ValueError, match="past"):
        sim._schedule(sim.event(), delay=nan)
    with pytest.raises(ValueError, match="NaN"):
        sim.timeout(nan)
    assert sim.queued_events == 0


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


def test_bounded_run_past_the_last_event_leaves_the_clock_at_the_bound(sim):
    """The clock stops at the bound even when the queue drains first,
    as it does when an event lies beyond the bound."""
    resource = Resource(sim, capacity=1)

    def worker():
        yield from resource.use(1.0)

    sim.process(worker())
    sim.run(until=4.0)
    assert sim.now == 4.0
    assert resource.utilisation() == 0.25


@pytest.mark.parametrize("verify", ["0", "1"])
def test_run_until_rejects_a_bound_in_the_past(monkeypatch, verify):
    """With the conformance switch off or on, a bound behind the clock
    must not rewind it."""
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

#: kernel_counters() entries every run loop must reproduce exactly
#: (the sync_* counters say which loop ran, so they differ by design).
EXACT_COUNTERS = ("events_fired", "fastpath_holds", "heap_peak",
                  "queued_events")


def step_loop(sim):
    """The oracle: fire one event at a time until the queue drains."""
    while sim.queued_events:
        sim.step()


def run_traced(plan, drain=Simulator.run, bounds=(), classic=False):
    """Run one randomized workload, draining the queue with ``drain``.

    Returns ``(observed, engaged)``: ``observed`` is the full event
    trace, the final clock, the exact kernel counters and every
    resource's conformance snapshot; ``engaged`` counts the holds and
    gets the synchronous fast paths completed.  ``bounds`` drives the
    same plan through ``run(until=bound)`` once per bound before the
    final drain; ``classic`` spells every resource use out as the
    request→timeout→release chain.
    """
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
            elif tag == "post":  # put and go on: a woken getter waits
                stores[action[1]].put((pid, step))
            elif tag == "get":
                item = yield stores[action[1]].get()
                trace.append((repr(sim.now), pid, step, "got", item))
            else:  # "fork": a child waited on by this process and an AllOf
                child = sim.process(body(f"{pid}/{step}", [action[1:]]))
                sim.process(watch(child, pid, step))
                yield child
            trace.append((repr(sim.now), pid, step))

    def watch(child, pid, step):
        # Starts after the parent has yielded the child, so the child's
        # completion has two callbacks, the parent's resume first: the
        # parent must not fast-forward before the AllOf observes it.
        yield sim.all_of([child])
        trace.append((repr(sim.now), pid, step, "joined"))

    for pid, actions in enumerate(plan):
        sim.process(body(pid, actions), name=f"proc-{pid}")
    for bound in bounds:
        sim.run(until=bound)
    drain(sim)
    counters = sim.kernel_counters()
    observed = (trace, repr(sim.now),
                {key: counters[key] for key in EXACT_COUNTERS},
                [resource.conformance_snapshot() for resource in resources])
    return observed, (sim.sync_holds, sim.sync_gets)


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

#: The family where the synchronous paths fire: one to three mostly
#: serial processes, exact-binary durations (so a hold's end often
#: equals the heap head's time, which must take the queue), posts that
#: leave a woken getter in the urgent lane (which must fire first),
#: and forks whose completion has two callbacks (which must not
#: fast-forward).
serial_action_strategy = st.one_of(
    st.tuples(st.just("timeout"), st.sampled_from((0.0, 0.25, 0.5, 1.0))),
    st.tuples(st.just("use"), st.sampled_from((0, 1)),
              st.sampled_from((0.25, 0.5, 1.0))),
    st.tuples(st.just("put"), st.sampled_from((0, 1))),
    st.tuples(st.just("post"), st.sampled_from((0, 1))),
    st.tuples(st.just("get"), st.sampled_from((0, 1))),
    st.tuples(st.just("fork"), st.just("use"), st.sampled_from((0, 1)),
              st.sampled_from((0.25, 0.5))),
)

serial_plan_strategy = st.lists(
    st.lists(serial_action_strategy, min_size=1, max_size=8),
    min_size=1, max_size=3)


def test_every_run_loop_yields_the_step_loop_trace(kernel):
    """A plain step() loop is the oracle, under either kernel.  The inlined run() with its
    synchronous fast paths, the same run under ``REPRO_VERIFY=1`` and a
    bounded run in ten slices must reproduce its trace, clock, exact
    kernel counters and resource snapshots bit-for-bit; the in-order
    tie driver too, bar ``heap_peak`` (it pops a tied batch at once).
    The classic request→timeout→release chain fires two events per
    resource use where grant-and-hold fires one, so it is held to the
    trace and clock only.  Across the examples the fast paths must
    engage, with and without ``REPRO_VERIFY``."""
    engaged = {"0": [0, 0], "1": [0, 0]}

    @settings(max_examples=100, deadline=None)
    @given(plan=st.one_of(plan_strategy, serial_plan_strategy))
    @example(plan=[[("use", 0, 0.25), ("put", 0), ("get", 0),
                    ("use", 0, 0.25)]])
    @example(plan=[[("use", 0, 0.25), ("use", 0, 0.25)],
                   [("timeout", 0.5), ("fork", "use", 1, 0.5),
                    ("use", 1, 0.25)]])
    @example(plan=[[("get", 1), ("get", 1)],
                   [("put", 0), ("post", 1), ("get", 0), ("post", 1),
                    ("use", 0, 0.25)]])
    def check(plan):
        oracle, _ = run_traced(plan, drain=step_loop)
        for verify, counts in engaged.items():
            # Set for the whole run (monkeypatch mixes badly with @given).
            with mock.patch.dict(os.environ, {"REPRO_VERIFY": verify}):
                inlined, (holds, gets) = run_traced(plan)
            assert inlined == oracle
            counts[0] += holds
            counts[1] += gets
        driven, _ = run_traced(plan, drain=drive)
        exact = dict(oracle[2])
        assert driven[2].pop("heap_peak") <= exact.pop("heap_peak")
        assert driven == (oracle[0], oracle[1], exact, oracle[3])
        end = float(oracle[1])
        slices = [end * k / 10 for k in range(1, 10)] + [end]
        assert run_traced(plan, bounds=slices)[0] == oracle
        classic, _ = run_traced(plan, classic=True)
        assert classic[:2] == oracle[:2]

    check()
    for sync_holds, sync_gets in engaged.values():
        assert sync_holds > 0 and sync_gets > 0


@pytest.mark.parametrize("env", [
    {"REPRO_VERIFY": "0"}, {"REPRO_VERIFY": "1"}, {"REPRO_AUDIT": "1"}])
def test_bounded_run_stops_before_a_hold_ends(env):
    """A bound between now and a hold's end stops the run before the
    hold fires, whatever the environment asks for (the kernel has one
    run loop, and a stale ``REPRO_AUDIT`` switch changes nothing); the
    clock never passes the bound and never moves back."""
    with mock.patch.dict(os.environ, env):
        sim = Simulator()
    resource = Resource(sim, capacity=1)
    seen = []

    def worker():
        yield from resource.use(0.25)
        seen.append(sim.now)

    sim.process(worker())
    sim.run(until=0.05)
    assert (seen, sim.now) == ([], 0.05)
    sim.run()
    assert (seen, sim.now) == ([0.25], 0.25)
