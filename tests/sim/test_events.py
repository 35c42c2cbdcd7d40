"""Unit tests for the event primitives."""

import pytest

from repro.sim import AllOf, AnyOf, Event, Simulator, Timeout
from repro.sim.resources import Resource


class TestEventLifecycle:
    def test_fresh_event_is_pending(self, sim):
        event = sim.event()
        assert not event.triggered
        assert not event.fired
        assert event.ok

    def test_succeed_marks_triggered_immediately(self, sim):
        event = sim.event()
        event.succeed(42)
        assert event.triggered
        assert not event.fired  # fires only when the loop runs

    def test_value_delivered_on_fire(self, sim):
        event = sim.event()
        event.succeed("payload")
        sim.run()
        assert event.fired
        assert event.value == "payload"

    def test_double_succeed_rejected(self, sim):
        event = sim.event()
        event.succeed()
        with pytest.raises(RuntimeError, match="already been triggered"):
            event.succeed()

    def test_succeed_after_fail_rejected(self, sim):
        event = sim.event()
        event.fail(ValueError("boom"))
        with pytest.raises(RuntimeError):
            event.succeed()

    def test_fail_requires_exception_instance(self, sim):
        event = sim.event()
        with pytest.raises(TypeError):
            event.fail("not an exception")

    def test_callbacks_run_in_registration_order(self, sim):
        event = sim.event()
        order = []
        event.callbacks.append(lambda e: order.append(1))
        event.callbacks.append(lambda e: order.append(2))
        event.callbacks.append(lambda e: order.append(3))
        event.succeed()
        sim.run()
        assert order == [1, 2, 3]


class TestTimeout:
    def test_fires_after_delay(self, sim):
        fired_at = []
        timeout = sim.timeout(2.5)
        timeout.callbacks.append(lambda e: fired_at.append(sim.now))
        sim.run()
        assert fired_at == [2.5]

    def test_zero_delay_fires_at_now(self, sim):
        timeout = sim.timeout(0.0)
        sim.run()
        assert timeout.fired
        assert sim.now == 0.0

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(ValueError, match="negative"):
            sim.timeout(-1.0)

    def test_carries_value(self, sim):
        timeout = sim.timeout(1.0, value="tick")
        sim.run()
        assert timeout.value == "tick"

    def test_timeouts_fire_in_time_order(self, sim):
        order = []
        for delay in (3.0, 1.0, 2.0):
            sim.timeout(delay).callbacks.append(
                lambda e, d=delay: order.append(d))
        sim.run()
        assert order == [1.0, 2.0, 3.0]

    def test_same_time_fires_in_scheduling_order(self, sim):
        order = []
        for tag in ("a", "b", "c"):
            sim.timeout(1.0).callbacks.append(
                lambda e, t=tag: order.append(t))
        sim.run()
        assert order == ["a", "b", "c"]


class TestAllOf:
    def test_fires_when_all_fire(self, sim):
        events = [sim.timeout(1.0, "a"), sim.timeout(3.0, "b")]
        combined = sim.all_of(events)
        fired_at = []
        combined.callbacks.append(lambda e: fired_at.append(sim.now))
        sim.run()
        assert fired_at == [3.0]
        assert combined.value == ["a", "b"]

    def test_empty_fires_immediately(self, sim):
        combined = sim.all_of([])
        sim.run()
        assert combined.fired
        assert combined.value == []

    def test_propagates_failure(self, sim):
        good = sim.timeout(1.0)
        bad = sim.event()
        bad.fail(RuntimeError("nope"), delay=0.5)
        combined = AllOf(sim, [good, bad])

        def proc():
            with pytest.raises(RuntimeError, match="nope"):
                yield combined

        sim.process(proc())
        sim.run()

    def test_rejects_foreign_events(self, sim):
        other = Simulator()
        with pytest.raises(ValueError, match="one simulator"):
            sim.all_of([other.timeout(1.0)])

    def test_already_fired_constituent(self, sim):
        early = sim.timeout(1.0, "early")
        sim.run()
        late = sim.timeout(1.0, "late")
        combined = sim.all_of([early, late])
        sim.run()
        assert combined.fired
        assert combined.value == ["early", "late"]


class TestAnyOf:
    def test_fires_on_first(self, sim):
        slow = sim.timeout(5.0, "slow")
        fast = sim.timeout(1.0, "fast")
        combined = sim.any_of([slow, fast])
        fired_at = []
        combined.callbacks.append(lambda e: fired_at.append(sim.now))
        sim.run()
        assert fired_at == [1.0]
        event, value = combined.value
        assert event is fast
        assert value == "fast"

    def test_single_event(self, sim):
        only = sim.timeout(2.0, "x")
        combined = sim.any_of([only])
        sim.run()
        assert combined.value == (only, "x")


def test_event_repr_shows_state(sim):
    event = sim.event()
    assert "pending" in repr(event)
    event.succeed()
    assert "triggered" in repr(event)
    sim.run()
    assert "fired" in repr(event)


def test_event_serials_are_per_engine_and_monotonic():
    sim = Simulator()
    first, second = sim.event(), sim.event()
    assert (first._serial, second._serial) == (1, 2)
    assert "#1" in repr(first) and "pending" in repr(first)
    assert Simulator().event()._serial == 1   # fresh engine restarts


def test_fastpath_use_events_carry_serials():
    sim = Simulator()
    cpu = Resource(sim, capacity=1, name="cpu")
    (event,) = cpu.use(1.0)
    assert isinstance(event._serial, int) and event._serial >= 1
    assert f"#{event._serial}" in repr(event)
    sim.run()
