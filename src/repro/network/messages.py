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


@dataclasses.dataclass(frozen=True)
class DataPacket:
    """A batch of tuples from one producer to one consumer."""

    src_node: int
    rows: typing.Sequence[Row]
    payload_bytes: int
    #: Pre-computed hash codes aligned with ``rows`` — Gamma computes
    #: the hash once at the producer; consumers reuse it for hash-table
    #: slotting, so the simulation does too.
    hashes: typing.Sequence[int]
    #: Logical bucket this batch belongs to (Grace/Hybrid bucket
    #: forming), or None for single-stream traffic.
    bucket: int | None = None

    def __post_init__(self) -> None:
        if len(self.rows) != len(self.hashes):
            raise ValueError(
                f"packet rows/hashes mismatch: {len(self.rows)} vs "
                f"{len(self.hashes)}")
        if not self.rows:
            raise ValueError("empty data packet")

    @classmethod
    def make(cls, src_node: int, rows: typing.Sequence,
             hashes: typing.Sequence, payload_bytes: int,
             bucket: int | None) -> "DataPacket":
        """Construct a packet that is valid by construction.

        Routers only ever emit non-empty, length-aligned batches, so
        the frozen ``__init__``'s per-field ``object.__setattr__``
        round trip and the ``__post_init__`` re-validation are skipped
        — this sits on the per-packet hot path.  ``rows``/``hashes``
        may be any sequence (the router hands over its buffer lists
        without copying); consumers only ever iterate them.
        """
        packet = cls.__new__(cls)
        # Filling the instance dict directly sidesteps the frozen
        # __setattr__ guard (which would also reject this assignment).
        packet.__dict__.update(
            src_node=src_node, rows=rows, payload_bytes=payload_bytes,
            hashes=hashes, bucket=bucket)
        return packet

    def __len__(self) -> int:
        return len(self.rows)


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
