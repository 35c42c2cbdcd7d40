"""Tie order is not load-bearing, and the driver that shows it.

Heap entries that coexist under one ``(time, priority)`` key fire in
scheduling order.  Firing every such batch in reversed order instead
does move some figure cells — tied processes contend for the same FIFO
resources, so batch order decides queue positions — but not the
paper's shapes: figures 5, 7 and 14 at scale 0.1 stay within
:data:`EPSILON` of their goldens, and every column ranks the series as
the goldens do.  The tests after those pin ``tie_order.drive`` itself.
"""

import json
import pathlib

import pytest

from repro.experiments import figures
from repro.experiments.config import ExperimentConfig
from repro.sim import Simulator
from repro.sim.resources import Resource
from tests.sim.tie_order import drive

GOLDEN = (pathlib.Path(__file__).parents[2] / "benchmarks" / "results"
          / "golden_scale0.1.json")
FIGURES = ("figure5", "figure7", "figure14")

#: Largest relative move of a cell under reversed ties.  Measured:
#: 32 of the 78 cells move, the worst by 0.0955 % (figure 14, Grace
#: non-HPJA, ratio 1.0).
EPSILON = 0.002


def reversed_run(sim):
    drive(sim, reverse=True)


@pytest.fixture(scope="module")
def reversed_figures():
    """Figures 5, 7 and 14 at scale 0.1, seed 1, ties reversed."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_PROFILE", "gamma-1989")
        patch.setenv("REPRO_TOPOLOGY", "token-ring")
        patch.setattr(Simulator, "run", reversed_run)
        config = ExperimentConfig(scale=0.1, seed=1)
        return {name: {series.label: {repr(point.x): point.response_time
                                      for point in series.points}
                       for series in getattr(figures, name)(config).series}
                for name in FIGURES}


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN) as fh:
        return {name: {label: {x: float(value) for x, value in row.items()}
                       for label, row in series.items()}
                for name, series in json.load(fh)["figures"].items()}


def test_reversed_ties_stay_within_epsilon_of_the_goldens(
        reversed_figures, golden):
    cells = moved = 0
    for name in FIGURES:
        assert reversed_figures[name].keys() == golden[name].keys()
        for label, row in golden[name].items():
            assert reversed_figures[name][label].keys() == row.keys()
            for x, want in row.items():
                got = reversed_figures[name][label][x]
                assert abs(got - want) <= EPSILON * want, (
                    f"{name}/{label} at x={x}: {got!r} vs golden {want!r}")
                cells += 1
                moved += got != want
    assert cells == 78
    assert moved, "no cell moved: the reversed driver did not run"


def test_reversed_ties_keep_every_column_ranking(reversed_figures, golden):
    def ranking(series, x):
        return sorted(series, key=lambda label: (series[label][x], label))

    for name in FIGURES:
        for x in next(iter(golden[name].values())):
            assert (ranking(reversed_figures[name], x)
                    == ranking(golden[name], x)), f"{name} at x={x}"


# -- the driver --------------------------------------------------------------

def sleeper(sim, log, name, delay):
    yield sim.timeout(delay)
    log.append((sim.now, name))


def test_reverse_mode_flips_tied_fire_order():
    # Plain events so there is exactly one tied batch: with processes
    # the t=0 start batch reverses too, and the two reversals cancel.
    def run(reverse):
        sim = Simulator()
        log = []
        for name in ("first", "second", "third"):
            event = sim.event()
            event.callbacks.append(lambda _e, n=name: log.append(n))
            event.succeed(delay=1.0)
        drive(sim, reverse=reverse)
        assert sim.now == 1.0
        return log

    assert run(reverse=False) == ["first", "second", "third"]
    assert run(reverse=True) == ["third", "second", "first"]


def test_reverse_mode_keeps_untied_order_and_times():
    def run(reverse):
        sim = Simulator()
        log = []
        for name, delay in (("a", 0.5), ("b", 1.0), ("c", 2.0)):
            sim.process(sleeper(sim, log, name, delay), name=name)
        drive(sim, reverse=reverse)
        return log

    assert run(reverse=False) == run(reverse=True) == [
        (0.5, "a"), (1.0, "b"), (2.0, "c")]


def test_reverse_mode_drains_urgent_holds_without_firing_heap():
    # Regression: a tied batch member whose fire enqueues a
    # grant-and-hold urgent event.  The per-fire urgent drain must
    # re-key the held event and stop — never fall through to the heap
    # (the rest of the batch lives in a local list, so the heap head is
    # an arbitrary *future* event; firing it advances the clock
    # mid-batch, stamping the remaining tied fires late).
    def run(reverse):
        sim = Simulator()
        cpu = Resource(sim, capacity=1, name="cpu")
        log = []

        def contender(name):
            yield sim.timeout(1.0)
            log.append((sim.now, f"{name}-start"))
            yield from cpu.use(1.0)
            log.append((sim.now, f"{name}-done"))

        sim.process(contender("a"), name="a")
        sim.process(contender("b"), name="b")
        sim.process(sleeper(sim, log, "bystander", 1.5), name="bystander")
        drive(sim, reverse=reverse)
        return log

    # The t=0 start batch and the t=1.0 timeout batch both reverse, so
    # the reversals cancel and both modes must produce this exact
    # trace; the buggy drain fired the t=1.5 bystander mid-batch and
    # stamped b-start at 1.5.
    expected = [(1.0, "a-start"), (1.0, "b-start"), (1.5, "bystander"),
                (2.0, "a-done"), (3.0, "b-done")]
    assert run(reverse=False) == expected
    assert run(reverse=True) == expected


def test_recording_preserves_fire_order_and_times():
    """The in-order drive fires what run() fires."""
    def trace(driver):
        sim = Simulator()
        cpu = Resource(sim, capacity=1, name="cpu-0")
        log = []

        def user(name, delay):
            yield sim.timeout(delay)
            yield from cpu.use(0.5)
            log.append((sim.now, name))

        for name, delay in (("a", 1.0), ("b", 1.0), ("c", 0.5),
                            ("d", 1.5)):
            sim.process(user(name, delay), name=name)
            sim.process(sleeper(sim, log, name.upper(), delay),
                        name=name.upper())
        driver(sim)
        return log, sim.now, sim.events_fired, sim.fastpath_holds

    assert trace(Simulator.run) == trace(drive)


def logged_event(sim, log, name, delay, then=None):
    """A plain event at ``delay`` that logs ``(now, name)`` and calls
    ``then`` when it fires."""
    def on_fire(_event):
        log.append((sim.now, name))
        if then is not None:
            then()

    event = sim.event()
    event.callbacks.append(on_fire)
    event.succeed(delay=delay)


def test_causal_same_time_chain_is_not_a_tie():
    # "second" *schedules* the follower at its own instant, so the
    # follower never coexists with the tied pair in the heap: it forms
    # a later batch and fires after both, whichever order they take.
    def run(reverse):
        sim = Simulator()
        log = []
        logged_event(sim, log, "first", 1.0)
        logged_event(sim, log, "second", 1.0, then=lambda: logged_event(
            sim, log, "follower", 0.0))
        drive(sim, reverse=reverse)
        return [name for _, name in log], {now for now, _ in log}

    assert run(reverse=False) == (["first", "second", "follower"], {1.0})
    assert run(reverse=True) == (["second", "first", "follower"], {1.0})


def test_distinct_times_are_not_ties():
    def run(reverse):
        sim = Simulator()
        log = []
        for name, delay in (("a", 1.0), ("b", 2.0), ("c", 3.0)):
            logged_event(sim, log, name, delay)
        drive(sim, reverse=reverse)
        return log

    assert run(reverse=False) == run(reverse=True) == [
        (1.0, "a"), (2.0, "b"), (3.0, "c")]
