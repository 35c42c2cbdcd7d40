"""A single simulated disk drive.

Each disk node owns one :class:`Disk`: a capacity-1
:class:`~repro.sim.resources.Resource` (one arm — concurrent requests
queue) plus calibrated page-transfer times from the
:class:`~repro.costs.CostModel`.  Sequential transfers model the WiSS
one-page readahead: the effective per-page time is mostly rotation +
transfer rather than a full seek.

All I/O methods are generators intended for ``yield from`` inside a
simulated process::

    yield from node.disk.read_pages(n_pages, sequential=True)
"""

from __future__ import annotations

import typing

from repro.costs import CostModel
from repro.sim import Resource, Simulator


class Disk:
    """One disk arm with FIFO queueing and I/O statistics."""

    def __init__(self, sim: Simulator, costs: CostModel,
                 name: str = "disk") -> None:
        self.sim = sim
        self.costs = costs
        self.name = name
        self.arm = Resource(sim, capacity=1, name=f"{name}.arm")
        self.pages_read = 0
        self.pages_written = 0
        self.sequential_reads = 0
        self.random_reads = 0
        self.sequential_writes = 0
        self.random_writes = 0

    # -- timed I/O (``yield from`` these) --------------------------------

    def read_pages(self, n_pages: int, sequential: bool = True
                   ) -> typing.Iterable:
        """Read ``n_pages`` pages, holding the arm for their duration.

        Returns the arm's hold iterable directly (one less generator
        frame on the kernel's hottest delegation chain); statistics are
        counted at issue time — equivalent, since phase boundaries only
        fall when no I/O is in flight.
        """
        if n_pages < 0:
            raise ValueError(f"cannot read {n_pages} pages")
        if n_pages == 0:
            return ()
        per_page = (self.costs.disk_page_read_sequential if sequential
                    else self.costs.disk_page_read_random)
        self.pages_read += n_pages
        if sequential:
            self.sequential_reads += n_pages
        else:
            self.random_reads += n_pages
        return self.arm.use(n_pages * per_page)

    def write_pages(self, n_pages: int, sequential: bool = True
                    ) -> typing.Iterable:
        """Write ``n_pages`` pages, holding the arm for their duration."""
        if n_pages < 0:
            raise ValueError(f"cannot write {n_pages} pages")
        if n_pages == 0:
            return ()
        per_page = (self.costs.disk_page_write_sequential if sequential
                    else self.costs.disk_page_write_random)
        self.pages_written += n_pages
        if sequential:
            self.sequential_writes += n_pages
        else:
            self.random_writes += n_pages
        return self.arm.use(n_pages * per_page)

    # -- statistics ----------------------------------------------------------

    @property
    def total_ios(self) -> int:
        return self.pages_read + self.pages_written

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<Disk {self.name!r} read={self.pages_read} "
                f"written={self.pages_written}>")
