"""Unit tests for generator-based processes."""

import pytest

from repro.sim import ProcessCrash, Simulator

#: The compiled kernel here; test_python_kernel.py runs these tests
#: again under the Python kernel.
pytestmark = pytest.mark.usefixtures("kernel")


class TestProcessBasics:
    def test_body_runs_at_time_zero(self, sim):
        log = []

        def body():
            log.append(sim.now)
            yield sim.timeout(1.0)
            log.append(sim.now)

        sim.process(body())
        sim.run()
        assert log == [0.0, 1.0]

    def test_process_is_event_fires_on_completion(self, sim):
        def child():
            yield sim.timeout(2.0)
            return "result"

        def parent():
            value = yield sim.process(child())
            assert value == "result"
            assert sim.now == 2.0

        sim.process(parent())
        sim.run()

    def test_requires_generator(self, sim):
        def not_a_generator():
            return 42

        with pytest.raises(TypeError, match="generator"):
            sim.process(not_a_generator())

    def test_alive_until_finished(self, sim):
        def body():
            yield sim.timeout(1.0)

        process = sim.process(body())
        assert process.alive
        sim.run()
        assert not process.alive

    def test_yielding_non_event_crashes(self, sim):
        def body():
            yield 42

        process = sim.process(body())
        with pytest.raises(ProcessCrash, match="may only yield Event"):
            sim.run()
        assert isinstance(process.crash_error.cause, TypeError)
        assert not hasattr(process, "_resume_cb")

    def test_resume_callback_names_its_process(self, sim):
        """The cached resume callback is bound to its process (the
        compiled run loop takes the process from its ``__self__`` to
        resume it inline) and is dropped when the generator finishes."""
        def body():
            yield sim.timeout(1.0)

        process = sim.process(body())
        assert process._resume_cb.__self__ is process
        sim.run()
        assert not hasattr(process, "_resume_cb")

    def test_waiting_on_already_fired_event_continues(self, sim):
        done = sim.timeout(0.5)

        def body():
            yield sim.timeout(1.0)
            value = yield done  # fired long ago
            assert sim.now == 1.0
            return value

        process = sim.process(body())
        sim.run()
        assert process.fired


class TestCrashPropagation:
    def test_unhandled_exception_reaches_run(self, sim):
        def body():
            yield sim.timeout(1.0)
            raise ValueError("model bug")

        sim.process(body(), name="buggy")
        with pytest.raises(ProcessCrash, match="buggy"):
            sim.run()

    def test_crash_preserves_cause(self, sim):
        def body():
            yield sim.timeout(0.1)
            raise KeyError("missing")

        process = sim.process(body())
        with pytest.raises(ProcessCrash) as info:
            sim.run()
        assert isinstance(info.value.cause, KeyError)
        assert info.value.__cause__ is info.value.cause
        assert info.value.process is process
        assert process.crash_error is info.value
        assert not process.ok and process.value is info.value

    def test_failure_caught_then_return_succeeds(self, sim):
        """A process that catches a thrown failure and returns
        completes with its return value (StopIteration out of throw)."""
        event = sim.event()
        event.fail(RuntimeError("downstream"), delay=0.5)

        def body():
            try:
                yield event
            except RuntimeError:
                return "recovered"

        process = sim.process(body())
        sim.run()
        assert process.ok and process.value == "recovered"
        assert sim.now == 0.5

    def test_failed_event_throws_into_waiter(self, sim):
        event = sim.event()
        event.fail(RuntimeError("downstream"), delay=1.0)
        caught = []

        def body():
            try:
                yield event
            except RuntimeError as exc:
                caught.append(str(exc))

        sim.process(body())
        sim.run()
        assert caught == ["downstream"]


class TestProcessInteraction:
    def test_two_processes_interleave(self, sim):
        log = []

        def worker(name, period, count):
            for _ in range(count):
                yield sim.timeout(period)
                log.append((sim.now, name))

        sim.process(worker("fast", 1.0, 3))
        sim.process(worker("slow", 2.0, 2))
        sim.run()
        # At t=2.0 both fire; "slow" scheduled its timeout first
        # (at t=0) so it resumes first — ties break by scheduling
        # order.
        assert log == [(1.0, "fast"), (2.0, "slow"), (2.0, "fast"),
                       (3.0, "fast"), (4.0, "slow")]

    def test_fan_in_with_all_of(self, sim):
        def worker(delay):
            yield sim.timeout(delay)
            return delay

        def coordinator():
            children = [sim.process(worker(d)) for d in (3.0, 1.0, 2.0)]
            values = yield sim.all_of(children)
            assert values == [3.0, 1.0, 2.0]
            assert sim.now == 3.0

        sim.process(coordinator())
        sim.run()

    def test_nested_yield_from(self, sim):
        log = []

        def inner():
            yield sim.timeout(1.0)
            log.append("inner")

        def outer():
            yield from inner()
            log.append("outer")
            yield sim.timeout(1.0)
            log.append("done")

        sim.process(outer())
        sim.run()
        assert log == ["inner", "outer", "done"]
        assert sim.now == 2.0


def test_run_until_stops_clock(sim):
    def body():
        while True:
            yield sim.timeout(10.0)

    sim.process(body())
    sim.run(until=25.0)
    assert sim.now == 25.0
    assert sim.queued_events >= 1
