"""Tests for nodes and machine assembly."""

import pytest

from repro.engine.machine import GammaMachine, MachineConfig
from repro.engine.node import Node


class TestTopology:
    def test_local_layout(self):
        machine = GammaMachine.local(8)
        assert machine.num_disk_nodes == 8
        assert len(machine.diskless_nodes) == 0
        assert machine.scheduler_node.node_id == 8
        assert len(machine.nodes) == 9

    def test_remote_layout(self):
        machine = GammaMachine.remote(8, 8)
        assert machine.num_disk_nodes == 8
        assert len(machine.diskless_nodes) == 8
        assert machine.scheduler_node.node_id == 16
        assert all(not n.has_disk for n in machine.diskless_nodes)

    def test_node_ids_sequential(self):
        machine = GammaMachine.remote(3, 2)
        assert [n.node_id for n in machine.nodes] == [0, 1, 2, 3, 4, 5]

    def test_join_nodes_local(self):
        machine = GammaMachine.local(4)
        assert machine.join_nodes("local") == machine.disk_nodes
        assert machine.join_nodes(MachineConfig.LOCAL) == \
            machine.disk_nodes

    def test_join_nodes_remote(self):
        machine = GammaMachine.remote(4, 4)
        assert machine.join_nodes("remote") == machine.diskless_nodes

    def test_remote_without_diskless_rejected(self):
        machine = GammaMachine.local(4)
        with pytest.raises(ValueError, match="no diskless"):
            machine.join_nodes("remote")

    def test_validation(self):
        with pytest.raises(ValueError):
            GammaMachine(num_disk_nodes=0)
        with pytest.raises(ValueError):
            GammaMachine(num_disk_nodes=2, num_diskless_join_nodes=-1)

    def test_overflow_host_round_robin(self, tiny_db):
        """§3.2: different overflow files on different disks.  A local
        join site spools to its own drive; diskless site ``i`` spools
        to disk node ``(i + 1) % D``, off the hash congruence, so remote
        overflow never short-circuits (Figure 14's Simple curves)."""
        from repro.core.joins import ALGORITHMS, JoinSpec

        def driver(machine, configuration):
            return ALGORITHMS["simple"](
                machine, tiny_db.outer, tiny_db.inner,
                JoinSpec(memory_ratio=1.0, configuration=configuration))

        local = driver(GammaMachine.local(4), "local")
        assert [local.overflow_host(i) for i in range(4)] == \
            local.join_sites
        remote = driver(GammaMachine.remote(4, 8), "remote")
        hosts = [remote.overflow_host(i).node_id for i in range(8)]
        assert hosts == [1, 2, 3, 0, 1, 2, 3, 0]


class TestNode:
    def test_disk_node(self):
        machine = GammaMachine.local(2)
        node = machine.disk_nodes[0]
        assert node.has_disk
        assert node.require_disk() is node.disk

    def test_diskless_require_disk_raises(self):
        machine = GammaMachine.remote(2, 1)
        with pytest.raises(RuntimeError, match="diskless"):
            machine.diskless_nodes[0].require_disk()

    def test_cpu_use_charges_time(self):
        machine = GammaMachine.local(2)
        node = machine.disk_nodes[0]

        def body():
            yield from node.cpu_use(1.5)

        machine.sim.process(body())
        machine.sim.run()
        assert machine.sim.now == 1.5
        assert node.cpu_utilisation() == pytest.approx(1.0)

    def test_cpu_use_zero_is_free(self):
        machine = GammaMachine.local(2)
        node = machine.disk_nodes[0]

        def body():
            yield from node.cpu_use(0.0)
            yield machine.sim.timeout(0)

        machine.sim.process(body())
        machine.sim.run()
        assert machine.sim.now == 0.0

    def test_negative_cpu_rejected(self):
        machine = GammaMachine.local(2)

        def body():
            with pytest.raises(ValueError):
                yield from machine.disk_nodes[0].cpu_use(-1)
            yield machine.sim.timeout(0)

        machine.sim.process(body())
        machine.sim.run()


class TestMeasurement:
    def test_fresh_port_unique(self):
        machine = GammaMachine.local(2)
        ports = {machine.fresh_port("x") for _ in range(100)}
        assert len(ports) == 100

    def test_run_to_completion_flags_leftovers(self):
        machine = GammaMachine.local(2)
        machine.registry.mailbox(0, "orphan").put("lost message")
        with pytest.raises(RuntimeError, match="undelivered"):
            machine.run_to_completion()

    def test_disk_counters_aggregate(self):
        machine = GammaMachine.local(2)

        def body():
            yield from machine.disk_nodes[0].disk.read_pages(3)
            yield from machine.disk_nodes[1].disk.write_pages(2)

        machine.sim.process(body())
        assert machine.run_to_completion() > 0
        assert machine.disk_page_reads() == 3
        assert machine.disk_page_writes() == 2

    def test_cpu_utilisations_keyed_by_name(self):
        machine = GammaMachine.remote(2, 1)
        report = machine.cpu_utilisations()
        assert set(report) == {"disk0", "disk1", "cpu2", "scheduler"}
