"""The assembled Gamma machine.

The paper's default hardware environment (§4) is eight processors with
disks plus one diskless processor reserved for query scheduling — the
"local" configuration, where joins execute on the disk nodes.  §4.3
adds eight more diskless processors that perform the join computation —
the "remote" configuration.  :class:`GammaMachine` builds either (or
any custom mix) over a fresh simulator.

Node numbering: disk nodes are ``0 .. D-1``, diskless join nodes are
``D .. D+E-1``, and the scheduler node is always the last id.  Relation
fragment ``i`` lives on disk node ``i``.
"""

from __future__ import annotations

import enum
import typing

from repro.costs import CostModel, resolve_profile
from repro.engine.node import Node
from repro.network import NetworkService, PortRegistry
from repro.network.topology import build_interconnect, resolve_topology_name
from repro.sim import Simulator

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.engine.operators.routing import StreamGroup


class MachineConfig(enum.Enum):
    """Where join operators execute (§4's two configurations)."""

    #: Joins on the processors with attached disks.
    LOCAL = "local"
    #: Joins on the diskless processors.
    REMOTE = "remote"


class GammaMachine:
    """A shared-nothing multiprocessor with a token ring."""

    def __init__(self, num_disk_nodes: int = 8,
                 num_diskless_join_nodes: int = 0,
                 costs: "CostModel | str | None" = None,
                 topology: "str | None" = None) -> None:
        if num_disk_nodes < 1:
            raise ValueError(
                f"need at least one disk node, got {num_disk_nodes}")
        if num_diskless_join_nodes < 0:
            raise ValueError(
                f"negative diskless node count: {num_diskless_join_nodes}")
        # ``costs`` accepts a profile name (or None for the
        # REPRO_PROFILE environment default) in addition to a ready
        # CostModel; ``topology`` likewise names a registered
        # interconnect (None -> REPRO_TOPOLOGY, default token-ring).
        costs = resolve_profile(costs)
        self.costs = costs
        self.topology_name = resolve_topology_name(topology)
        self.sim = Simulator()
        total_nodes = num_disk_nodes + num_diskless_join_nodes + 1
        self.ring = build_interconnect(self.topology_name, self.sim,
                                       costs, total_nodes)
        #: Topology-neutral alias for the transport (``ring`` keeps its
        #: historical name for the paper-faithful default).
        self.interconnect = self.ring
        self.registry = PortRegistry(self.sim)
        self.network = NetworkService(self.sim, costs, self.ring,
                                      self.registry)

        self.disk_nodes: list[Node] = [
            Node(self.sim, i, costs, with_disk=True, name=f"disk{i}")
            for i in range(num_disk_nodes)]
        self.diskless_nodes: list[Node] = [
            Node(self.sim, num_disk_nodes + i, costs, with_disk=False,
                 name=f"cpu{num_disk_nodes + i}")
            for i in range(num_diskless_join_nodes)]
        scheduler_id = num_disk_nodes + num_diskless_join_nodes
        self.scheduler_node = Node(self.sim, scheduler_id, costs,
                                   with_disk=False, name="scheduler")
        self.nodes: list[Node] = (
            self.disk_nodes + self.diskless_nodes + [self.scheduler_node])
        self.network.attach_cpus([n.cpu for n in self.nodes])
        self._port_counter = 0
        #: The streams that close through a combining tree, by port
        #: (how the routers of one port find their tree neighbours).
        self.stream_groups: "dict[str, StreamGroup]" = {}

        # Data-plane instrumentation (imported lazily: repro.core pulls
        # in the join drivers, which import this module).
        from repro.core import backend
        from repro.core.kernels import DataPlaneCounters
        from repro.hashing import KeyHashMemo
        self.dataplane = DataPlaneCounters()
        self.key_hash_memo = KeyHashMemo()
        # Backend dispatch counters are process-global; snapshot them
        # here so this machine reports per-run deltas.
        self._backend_base = dict(backend.counters())

        # Runtime conformance monitor (REPRO_VERIFY=1; None — and free —
        # by default).  Lazy import: the monitor pulls in the reference
        # join for result validation.
        from repro.verify import verify_enabled
        if verify_enabled():
            from repro.verify.invariants import ConformanceMonitor
            self.monitor: "ConformanceMonitor | None" = (
                ConformanceMonitor(self))
        else:
            self.monitor = None

    # -- factories ---------------------------------------------------------

    @classmethod
    def local(cls, num_disk_nodes: int = 8,
              costs: "CostModel | str | None" = None,
              topology: "str | None" = None) -> "GammaMachine":
        """The paper's default: disk nodes + scheduler, joins local."""
        return cls(num_disk_nodes=num_disk_nodes,
                   num_diskless_join_nodes=0, costs=costs,
                   topology=topology)

    @classmethod
    def remote(cls, num_disk_nodes: int = 8,
               num_join_nodes: int = 8,
               costs: "CostModel | str | None" = None,
               topology: "str | None" = None) -> "GammaMachine":
        """§4.3's configuration: disks for storage, diskless nodes for
        the join computation."""
        return cls(num_disk_nodes=num_disk_nodes,
                   num_diskless_join_nodes=num_join_nodes, costs=costs,
                   topology=topology)

    # -- topology ----------------------------------------------------------

    @property
    def num_disk_nodes(self) -> int:
        return len(self.disk_nodes)

    def join_nodes(self, config: MachineConfig | str) -> list[Node]:
        """The processors that execute join operators under ``config``."""
        config = MachineConfig(config)
        if config is MachineConfig.LOCAL:
            return list(self.disk_nodes)
        if not self.diskless_nodes:
            raise ValueError(
                "remote configuration requested but this machine has no "
                "diskless join processors; build it with "
                "GammaMachine.remote(...)")
        return list(self.diskless_nodes)

    def disk_node_for(self, join_site: int) -> Node:
        """A disk node for ``join_site``'s files, round-robin.

        Generic allocation helper; the join drivers use their own
        :meth:`repro.core.joins.base.JoinDriver.overflow_host`, which
        additionally avoids aligning a diskless site's files with the
        hash congruence (see Figure 14's Simple curves).
        """
        return self.disk_nodes[join_site % self.num_disk_nodes]

    def fresh_port(self, label: str) -> str:
        """A machine-unique port name for one operator phase."""
        self._port_counter += 1
        return f"{label}#{self._port_counter}"

    # -- measurement ---------------------------------------------------------

    def run_to_completion(self) -> float:
        """Drain the event loop; returns the final simulated time."""
        self.sim.run()
        leftovers = self.registry.undelivered_messages()
        if leftovers:
            raise RuntimeError(
                f"query finished with undelivered messages: {leftovers} — "
                "an operator exited without draining its mailbox")
        if self.monitor is not None:
            self.monitor.check_machine()
        return self.sim.now

    def disk_page_reads(self) -> int:
        return sum(n.disk.pages_read for n in self.disk_nodes
                   if n.disk is not None)

    def disk_page_writes(self) -> int:
        return sum(n.disk.pages_written for n in self.disk_nodes
                   if n.disk is not None)

    def dataplane_counters(self) -> dict[str, typing.Any]:
        """Vectorized data-plane statistics (``--profile`` reporting).

        Includes the compiled-backend dispatch counters
        (:func:`repro.core.backend.counters`): call counts as deltas
        since this machine was built, plus the active engine name.
        """
        from repro.core import backend
        counters: dict[str, typing.Any] = self.dataplane.as_dict()
        counters["dp_hash_cache_hits"] = self.key_hash_memo.hits
        counters["dp_hash_cache_misses"] = self.key_hash_memo.misses
        base = self._backend_base
        for key, value in backend.counters().items():
            if key == "be_engine":
                counters[key] = value
            else:
                counters[key] = value - base.get(key, 0)
        return counters

    def cpu_utilisations(self) -> dict[str, float]:
        """Per-node CPU utilisation over the elapsed simulation."""
        return {n.name: n.cpu_utilisation() for n in self.nodes}

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<GammaMachine disks={len(self.disk_nodes)} "
                f"diskless={len(self.diskless_nodes)} now={self.sim.now}>")
