"""A single processor of the shared-nothing machine.

Each node is a VAX 11/750-class processor: one CPU (a capacity-1
resource all of the node's operator processes contend for) and,
for the eight storage nodes, one attached disk drive.  Selection and
update operators run only on nodes with disks; join, projection and
aggregate operators may run anywhere (§2.1).
"""

from __future__ import annotations

import typing

from repro.costs import CostModel
from repro.sim import Resource, Simulator
from repro.storage.disk import Disk


class Node:
    """One processor, optionally with an attached disk."""

    def __init__(self, sim: Simulator, node_id: int, costs: CostModel,
                 with_disk: bool, name: str | None = None) -> None:
        self.sim = sim
        self.node_id = node_id
        self.costs = costs
        self.name = name or f"node{node_id}"
        self.cpu = Resource(sim, capacity=1, name=f"{self.name}.cpu")
        self.disk: Disk | None = (
            Disk(sim, costs, name=f"{self.name}.disk") if with_disk
            else None)

    @property
    def has_disk(self) -> bool:
        return self.disk is not None

    def cpu_use(self, seconds: float) -> typing.Iterable:
        """Hold this node's CPU for ``seconds`` (``yield from`` this).

        Returns the underlying resource generator directly (one less
        generator frame on the kernel's hottest delegation chain);
        ``Resource.use`` rejects a negative or NaN duration.
        """
        if seconds == 0:
            return ()
        return self.cpu.use(seconds)

    def require_disk(self) -> Disk:
        """The node's disk; raises if the node is diskless."""
        if self.disk is None:
            raise RuntimeError(
                f"{self.name} is diskless; selection/store/temp-file "
                "operators must run on a node with an attached drive")
        return self.disk

    def cpu_utilisation(self) -> float:
        """Fraction of elapsed simulated time this CPU was busy."""
        return self.cpu.utilisation()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        disk = "disk" if self.has_disk else "diskless"
        return f"<Node {self.name} ({disk})>"
