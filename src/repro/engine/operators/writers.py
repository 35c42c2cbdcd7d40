"""Consuming writer operators.

``tempfile_writer`` is the receiving half of every disk-bound stream:
bucket fragments during Grace/Hybrid bucket-forming, the redistributed
relations of the sort-merge join, Simple hash's R'/S' overflow files,
and the round-robin result store at the root of the query tree.  It
drains its mailbox until it has an end-of-stream from every producer,
charging receive-protocol CPU per packet, per-tuple store CPU, and one
sequential disk-page write each time an output page fills (plus the
final partial page at close).

:class:`WriterStats` counts how many received tuples were produced on
the writer's own node — the "local write" percentage that Table 2 of
the paper reports for HPJA vs non-HPJA Hybrid joins.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.engine.node import Node
from repro.network.messages import (
    DataPacket,
    EndOfStream,
    eos_overshoot,
)
from repro.storage.files import PagedFile

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.engine.machine import GammaMachine

#: Maps a packet's bucket label to the file it belongs in.
FileSelector = typing.Callable[[typing.Optional[int]], PagedFile]


@dataclasses.dataclass
class WriterStats:
    """Local-write accounting for one writer (or a merged set)."""

    tuples_received: int = 0
    tuples_local: int = 0
    pages_written: int = 0

    @property
    def local_fraction(self) -> float:
        if self.tuples_received == 0:
            return 0.0
        return self.tuples_local / self.tuples_received

    def merge(self, other: "WriterStats") -> None:
        self.tuples_received += other.tuples_received
        self.tuples_local += other.tuples_local
        self.pages_written += other.pages_written


#: Optional page-batch callback: receives a packet's row count and
#: hashes and returns the packet's *entire* store CPU in place of the
#: plain per-tuple store charge (e.g. setting bit-filter bits while the
#: redistributed inner relation of a sort-merge join arrives at its
#: disk site, §4.2).
BatchHook = typing.Callable[[int, typing.Sequence[int]], float]


def tempfile_writer(machine: "GammaMachine", node: Node, port: str,
                    n_producers: int, select_file: FileSelector,
                    stats: WriterStats | None = None,
                    close_files: typing.Sequence[PagedFile] = (),
                    batch_hook: BatchHook | None = None,
                    ) -> typing.Generator:
    """Drain ``(node, port)`` into local temp files until all producers
    close their streams.

    Parameters
    ----------
    select_file:
        Called with each packet's bucket label; returns the (local)
        file to append to.
    stats:
        If given, accumulates the local-write statistics.
    close_files:
        Files to close when the stream ends; their final partial pages
        are charged to this node's disk.
    """
    if n_producers < 1:
        raise ValueError(f"writer on {port!r} needs >= 1 producer")
    disk = node.require_disk()
    costs = machine.costs
    tuple_store = costs.tuple_store
    # Inlined NetworkService.receive_charge (every message here carries
    # src_node, so the getattr-defaulted general path reduces to a
    # two-constant pick charged on this node's CPU).
    node_id = node.node_id
    cpu_res_use = node.cpu.use
    sc_cost = costs.packet_shortcircuit
    recv_cost = costs.packet_protocol_receive
    mailbox = machine.registry.mailbox(node.node_id, port)
    mon = machine.monitor
    eos_remaining = n_producers
    while eos_remaining:
        message = yield mailbox.get()
        yield from cpu_res_use(
            sc_cost if message.src_node == node_id else recv_cost)
        if type(message) is EndOfStream:
            eos_remaining -= message.closes
            if eos_remaining < 0:
                raise eos_overshoot(port, node_id, message, eos_remaining)
            continue
        assert type(message) is DataPacket, message
        n = message.n
        if mon is not None:
            mon.note_received(n)
        if stats is not None:
            stats.tuples_received += n
            if message.src_node == node_id:
                stats.tuples_local += n
        if batch_hook is not None:
            cpu = batch_hook(n, message.hashes)
        else:
            cpu = n * tuple_store
        yield from node.cpu_use(cpu)
        file = select_file(message.bucket)
        pages_completed = file.extend(message.page, message.hashes,
                                      message.lo, message.hi)
        if pages_completed:
            yield from disk.write_pages(pages_completed, sequential=True)
            if mon is not None:
                mon.note_page_writes(node_id, pages_completed)
            if stats is not None:
                stats.pages_written += pages_completed
    trailing = 0
    for file in close_files:
        trailing += file.close()
    if trailing:
        yield from disk.write_pages(trailing, sequential=True)
        if mon is not None:
            mon.note_page_writes(node_id, trailing)
        if stats is not None:
            stats.pages_written += trailing
