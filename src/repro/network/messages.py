"""Message types carried by the simulated network.

Three kinds of traffic flow between operator processes:

* :class:`DataPacket` — a batch of tuples filling (up to) one 2 KB ring
  packet.  Tuples never straddle packets, matching Gamma's fixed
  packet framing; payload bytes are declared-width tuple bytes.
* :class:`ControlMessage` — scheduler traffic: operator start/done,
  split-table distribution, bit-filter collection/broadcast, overflow
  cutoff propagation.
* :class:`EndOfStream` — the end-of-stream marker a producing operator
  sends to each consumer when it closes its output streams (§2.2);
  consumers terminate once the markers they have heard account for
  every producer.  Under the flat rule each marker closes one stream;
  the combining tree (:mod:`repro.network.combining`) delivers one
  marker that closes them all.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.sim.engine import SimulationError

Row = typing.Tuple


class DataPacket:
    """A batch of tuples from one producer to one consumer.

    The packet's rows are ``page[lo:hi]``, ``n == hi - lo`` of them.
    A packet the vectorized data plane routes is a *run*: ``page`` is
    the :class:`~repro.catalog.pages.ColumnPage` its route plan
    gathered, shared by every packet of that plan, and no per-packet
    page is cut — a consumer that needs the key column slices it out
    of the page's block, and one that needs whole rows cuts them
    (:attr:`rows`).  A packet the scalar routes fill is a tuple list
    spanning it all (``lo == 0``, ``hi == n == len(page)``).  A result
    packet the store router deals is a run of one consumer's gathered
    share of a round-robin cycle — joined rows as a page, or the
    scalar chain probe's tuples as a list — and carries no hashes
    (``hashes`` is None).  ``hashes`` is aligned with the run: a uint64
    array view, or an int list for packets under
    :data:`~repro.core.kernels.LIST_HASH_ROWS` rows and the scalar
    fill.  Consumers read ``n``, ``hashes`` and the run bounds;
    they may index or slice ``page`` but never mutate it.

    A slotted record: routers build one per packet with :meth:`make`,
    which skips the validation the keyword constructor does.
    """

    __slots__ = ("src_node", "page", "lo", "hi", "n", "hashes",
                 "payload_bytes", "bucket")

    def __init__(self, src_node: int, rows: typing.Sequence[Row],
                 payload_bytes: int, hashes: typing.Sequence[int],
                 bucket: int | None = None) -> None:
        if len(rows) != len(hashes):
            raise ValueError(
                f"packet rows/hashes mismatch: {len(rows)} vs "
                f"{len(hashes)}")
        if not rows:
            raise ValueError("empty data packet")
        self.src_node = src_node
        self.page = rows
        self.lo = 0
        self.hi = self.n = len(rows)
        #: Pre-computed hash codes aligned with the rows — Gamma
        #: computes the hash once at the producer; consumers reuse it
        #: for hash-table slotting, so the simulation does too.
        self.hashes = hashes
        self.payload_bytes = payload_bytes
        #: Logical bucket this batch belongs to (Grace/Hybrid bucket
        #: forming), or None for single-stream traffic.
        self.bucket = bucket

    @classmethod
    def make(cls, src_node: int, page: typing.Sequence, lo: int, hi: int,
             n: int, hashes: typing.Optional[typing.Sequence],
             payload_bytes: int,
             bucket: int | None) -> "DataPacket":
        """A packet that is valid by construction (routers only emit
        non-empty runs with aligned hashes), built without
        re-validating it — this sits on the per-packet hot path."""
        packet = object.__new__(cls)
        packet.src_node = src_node
        packet.page = page
        packet.lo = lo
        packet.hi = hi
        packet.n = n
        packet.hashes = hashes
        packet.payload_bytes = payload_bytes
        packet.bucket = bucket
        return packet

    @property
    def rows(self) -> typing.Sequence[Row]:
        """The packet's rows (a run is cut out of its page)."""
        page = self.page
        return page if self.n == len(page) else page[self.lo:self.hi]

    def __len__(self) -> int:
        return self.n

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<DataPacket from {self.src_node} n={self.n} "
                f"bucket={self.bucket}>")


@dataclasses.dataclass(frozen=True)
class EndOfStream:
    """``closes`` producer streams have closed; sent by ``src_node``."""

    src_node: int
    #: Producer streams this marker accounts for: 1 under the flat
    #: rule; on the combining tree a subtree's count on the way up and
    #: the port's whole producer set on the way down and out.
    closes: int = 1


class StreamTerminationError(SimulationError):
    """End-of-stream markers on a port do not add up to its producers."""

    def __init__(self, message: str, *, port: str, node: int,
                 producer: int, deltas: dict[str, int]) -> None:
        self.port = port
        self.node = node
        self.producer = producer
        self.deltas = deltas
        super().__init__(
            f"{message} (port {port!r}, node {node}, marker from "
            f"producer node {producer}, {deltas})")


def eos_overshoot(port: str, node: int, message: EndOfStream,
                  remaining: int) -> StreamTerminationError:
    """The error a consumer raises when ``message`` took its count of
    open producer streams to ``remaining`` < 0."""
    return StreamTerminationError(
        "end-of-stream closes more producer streams than were open",
        port=port, node=node, producer=message.src_node,
        deltas={"closes": message.closes,
                "open_before": remaining + message.closes})


@dataclasses.dataclass(frozen=True)
class ControlMessage:
    """Scheduler/operator control traffic."""

    kind: str
    src_node: int
    payload: typing.Any = None
    payload_bytes: int = 64


Message = typing.Union[DataPacket, EndOfStream, ControlMessage]
