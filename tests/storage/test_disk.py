"""Tests for the disk model."""

import pytest

from repro.costs import CostModel
from repro.sim import Simulator
from repro.storage.disk import Disk

COSTS = CostModel()


def run_io(body):
    sim = Simulator()
    disk = Disk(sim, COSTS)
    sim.process(body(sim, disk))
    sim.run()
    return sim, disk


class TestTiming:
    def test_sequential_read_time(self):
        def body(sim, disk):
            yield from disk.read_pages(10, sequential=True)

        sim, disk = run_io(body)
        assert sim.now == pytest.approx(
            10 * COSTS.disk_page_read_sequential)
        assert disk.pages_read == 10

    def test_random_slower_than_sequential(self):
        def seq(sim, disk):
            yield from disk.read_pages(5, sequential=True)

        def rand(sim, disk):
            yield from disk.read_pages(5, sequential=False)

        seq_time = run_io(seq)[0].now
        rand_time = run_io(rand)[0].now
        assert rand_time > seq_time

    def test_write_counts(self):
        def body(sim, disk):
            yield from disk.write_pages(3, sequential=True)
            yield from disk.write_pages(2, sequential=False)

        _, disk = run_io(body)
        assert disk.pages_written == 5
        assert disk.sequential_writes == 3
        assert disk.random_writes == 2
        assert disk.total_ios == 5

    def test_zero_pages_free(self):
        def body(sim, disk):
            yield from disk.read_pages(0)

        sim, disk = run_io(body)
        assert sim.now == 0.0
        assert disk.pages_read == 0

    def test_negative_rejected(self):
        sim = Simulator()
        disk = Disk(sim, COSTS)

        def body():
            with pytest.raises(ValueError):
                yield from disk.read_pages(-1)
            with pytest.raises(ValueError):
                yield from disk.write_pages(-1)
            yield sim.timeout(0)

        sim.process(body())
        sim.run()


class TestContention:
    def test_single_arm_serialises(self):
        """Two operators on one disk queue for the arm."""
        sim = Simulator()
        disk = Disk(sim, COSTS)
        finished = []

        def reader(name):
            yield from disk.read_pages(100, sequential=True)
            finished.append((name, sim.now))

        sim.process(reader("a"))
        sim.process(reader("b"))
        sim.run()
        one = 100 * COSTS.disk_page_read_sequential
        assert finished == [("a", pytest.approx(one)),
                            ("b", pytest.approx(2 * one))]
