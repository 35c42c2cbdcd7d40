"""Unit and property tests for Resource and Store."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Resource, Simulator, Store
from tests.sim.classic import classic_use

#: The compiled kernel here; test_python_kernel.py runs these tests
#: again under the Python kernel.
pytestmark = pytest.mark.usefixtures("kernel")


class TestResourceMutualExclusion:
    def test_capacity_one_serialises(self, sim):
        resource = Resource(sim, capacity=1)
        log = []

        def worker(name):
            grant = yield resource.request()
            log.append(("in", name, sim.now))
            yield sim.timeout(1.0)
            resource.release(grant)
            log.append(("out", name, sim.now))

        sim.process(worker("a"))
        sim.process(worker("b"))
        sim.run()
        assert log == [("in", "a", 0.0), ("out", "a", 1.0),
                       ("in", "b", 1.0), ("out", "b", 2.0)]

    def test_fifo_grant_order(self, sim):
        resource = Resource(sim, capacity=1)
        order = []

        def worker(name, arrival):
            yield sim.timeout(arrival)
            grant = yield resource.request()
            order.append(name)
            yield sim.timeout(5.0)
            resource.release(grant)

        for name, arrival in (("first", 0.0), ("second", 1.0),
                              ("third", 2.0)):
            sim.process(worker(name, arrival))
        sim.run()
        assert order == ["first", "second", "third"]

    def test_capacity_two_allows_pair(self, sim):
        resource = Resource(sim, capacity=2)
        concurrent = []

        def worker():
            grant = yield resource.request()
            concurrent.append(resource.in_use)
            yield sim.timeout(1.0)
            resource.release(grant)

        for _ in range(4):
            sim.process(worker())
        sim.run()
        assert max(concurrent) == 2
        assert sim.now == 2.0

    def test_double_release_rejected(self, sim):
        resource = Resource(sim, capacity=1)

        def worker():
            grant = yield resource.request()
            resource.release(grant)
            with pytest.raises(RuntimeError, match="double release"):
                resource.release(grant)

        sim.process(worker())
        sim.run()

    def test_foreign_grant_rejected(self, sim):
        res_a = Resource(sim, capacity=1)
        res_b = Resource(sim, capacity=1)

        def worker():
            grant = yield res_a.request()
            with pytest.raises(ValueError, match="different resource"):
                res_b.release(grant)
            res_a.release(grant)

        sim.process(worker())
        sim.run()

    def test_invalid_capacity(self, sim):
        with pytest.raises(ValueError):
            Resource(sim, capacity=0)

    def test_use_helper(self, sim):
        resource = Resource(sim, capacity=1)

        def worker():
            yield from resource.use(3.0)

        sim.process(worker())
        sim.process(worker())
        sim.run()
        assert sim.now == 6.0
        assert resource.in_use == 0

    @pytest.mark.parametrize("duration", [-2.0, float("nan")])
    def test_use_rejects_negative_and_nan_durations(self, sim, duration):
        """A bad hold is refused at the call; the clock stays put."""
        resource = Resource(sim, capacity=1)
        log = []

        def worker():
            yield sim.timeout(5.0)
            with pytest.raises(ValueError, match="duration"):
                yield from resource.use(duration)
            log.append(sim.now)

        sim.process(worker())
        sim.run()
        assert log == [5.0]
        assert sim.now == 5.0
        assert (resource.in_use, resource.busy_time) == (0, 0.0)


class TestResourceStatistics:
    def test_utilisation_full(self, sim):
        resource = Resource(sim, capacity=1)

        def worker():
            yield from resource.use(10.0)

        sim.process(worker())
        sim.run()
        assert resource.utilisation() == pytest.approx(1.0)

    def test_utilisation_half(self, sim):
        resource = Resource(sim, capacity=1)

        def worker():
            yield from resource.use(5.0)
            yield sim.timeout(5.0)

        sim.process(worker())
        sim.run()
        assert resource.utilisation() == pytest.approx(0.5)

    def test_acquisition_count(self, sim):
        resource = Resource(sim, capacity=1)

        def worker():
            for _ in range(3):
                yield from resource.use(1.0)

        sim.process(worker())
        sim.run()
        assert resource.total_acquisitions == 3

    def test_mid_run_read_counts_only_elapsed_hold(self, sim):
        resource = Resource(sim, capacity=1)

        def worker():
            yield from resource.use(1.0)

        sim.process(worker())
        sim.run(until=0.5)
        assert resource.utilisation() == 1.0
        sim.run()
        assert resource.utilisation() == 1.0

    def test_use_reads_like_the_classic_chain_mid_run(self):
        check_use_reads_like_the_classic_chain_mid_run()


# Hypothesis properties the test classes call: a @given method cannot
# be collected twice (test_python_kernel.py collects the classes again
# under the Python kernel), a module-level function can.

@given(jobs=st.lists(
           st.tuples(st.integers(0, 12),   # arrival, in quarters
                     st.integers(1, 6)),   # hold, in quarters
           min_size=1, max_size=12),
       capacity=st.integers(1, 3))
@settings(max_examples=60, deadline=None)
def check_use_reads_like_the_classic_chain_mid_run(jobs, capacity):
    """use() credits a hold's busy time when it is issued; a read at
    any run(until=...) slice must equal the classic chain's integral
    over what has elapsed, and must not move a later read.
    Quarter-second times keep every float exact."""
    slices = [k / 4 for k in range(1, 4 * 5)]

    def reads(protocol, bounds, observe=True):
        sim = Simulator()
        resource = Resource(sim, capacity=capacity)

        def worker(arrival, hold):
            yield sim.timeout(arrival / 4)
            yield from protocol(sim, resource, hold / 4)

        for arrival, hold in jobs:
            sim.process(worker(arrival, hold))
        seen = []
        for bound in bounds:
            sim.run(until=bound)
            if observe:
                seen += [resource.utilisation(), resource.utilisation()]
        sim.run()
        return seen + [resource.utilisation()]

    def use(sim, resource, duration):
        return resource.use(duration)

    assert reads(use, slices) == reads(classic_use, slices)
    assert reads(use, slices)[-1] == reads(use, slices,
                                           observe=False)[-1]


def run_kernel_workload(n_workers: int, n_ops: int,
                        classic: bool = False) -> Simulator:
    """Deterministic mixed contended/uncontended kernel workload:
    per-worker uncontended holds, periodic holds on one shared
    resource, and occasional plain timeouts.

    ``classic`` spells every resource use out as the long chain."""
    sim = Simulator()
    shared = Resource(sim, capacity=1, name="shared")

    def use(resource: Resource, duration: float):
        if classic:
            return classic_use(sim, resource, duration)
        return resource.use(duration)

    def worker(index: int):
        own = Resource(sim, capacity=1, name=f"own{index}")
        hold = 0.0001 * (index + 1)
        for op in range(n_ops):
            yield from use(own, hold)
            if op % 8 == 0:
                yield from use(shared, 0.0003)
            if op % 32 == 0:
                yield sim.timeout(0.001)

    for index in range(n_workers):
        sim.process(worker(index))
    sim.run()
    return sim


def test_use_matches_classic_clock():
    """Grant-and-hold may not move a single simulated timestamp."""
    fast = run_kernel_workload(n_workers=4, n_ops=300)
    classic = run_kernel_workload(n_workers=4, n_ops=300, classic=True)
    assert fast.fastpath_holds and not classic.fastpath_holds
    assert repr(fast.now) == repr(classic.now)


class TestStore:
    def test_put_then_get(self, sim):
        store = Store(sim)
        store.put("item")
        got = []

        def consumer():
            got.append((yield store.get()))

        sim.process(consumer())
        sim.run()
        assert got == ["item"]

    def test_get_blocks_until_put(self, sim):
        store = Store(sim)
        got = []

        def consumer():
            got.append(((yield store.get()), sim.now))

        def producer():
            yield sim.timeout(4.0)
            store.put("late")

        sim.process(consumer())
        sim.process(producer())
        sim.run()
        assert got == [("late", 4.0)]

    def test_fifo_item_order(self, sim):
        store = Store(sim)
        for item in ("a", "b", "c"):
            store.put(item)
        got = []

        def consumer():
            for _ in range(3):
                got.append((yield store.get()))

        sim.process(consumer())
        sim.run()
        assert got == ["a", "b", "c"]

    def test_waiting_getters_served_in_order(self, sim):
        store = Store(sim)
        got = []

        def consumer(name):
            item = yield store.get()
            got.append((name, item))

        sim.process(consumer("first"))
        sim.process(consumer("second"))

        def producer():
            yield sim.timeout(1.0)
            store.put(1)
            store.put(2)

        sim.process(producer())
        sim.run()
        assert got == [("first", 1), ("second", 2)]

    def test_no_loss_no_duplication(self):
        check_no_loss_no_duplication()


@given(items=st.lists(st.integers(), max_size=60),
       consumers=st.integers(min_value=1, max_value=7))
@settings(max_examples=60, deadline=None)
def check_no_loss_no_duplication(items, consumers):
    """Every put item is delivered exactly once, in FIFO order per the
    interleaving of getters."""
    sim = Simulator()
    store = Store(sim)
    received = []

    def consumer():
        while True:
            received.append((yield store.get()))

    for _ in range(consumers):
        sim.process(consumer())

    def producer():
        for item in items:
            store.put(item)
            yield sim.timeout(0.001)

    sim.process(producer())
    sim.run(until=10.0)
    assert received == list(items)
    assert store.pending_items == 0


@given(
    jobs=st.lists(
        st.tuples(
            st.floats(min_value=0, max_value=5,
                      allow_nan=False),      # arrival
            st.floats(min_value=0.01, max_value=2,
                      allow_nan=False)),     # service
        min_size=1, max_size=20),
    capacity=st.integers(min_value=1, max_value=3))
@settings(max_examples=60, deadline=None)
def test_resource_never_over_capacity(jobs, capacity):
    """Property: concurrent holders never exceed capacity, and all
    jobs eventually complete."""
    sim = Simulator()
    resource = Resource(sim, capacity=capacity)
    completed = []
    max_seen = [0]

    def worker(arrival, service):
        yield sim.timeout(arrival)
        grant = yield resource.request()
        max_seen[0] = max(max_seen[0], resource.in_use)
        assert resource.in_use <= capacity
        yield sim.timeout(service)
        resource.release(grant)
        completed.append(1)

    for arrival, service in jobs:
        sim.process(worker(arrival, service))
    sim.run()
    assert len(completed) == len(jobs)
    assert max_seen[0] <= capacity
