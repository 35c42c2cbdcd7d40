"""Split tables — Gamma's data-partitioning mechanism (Appendix A).

A split table is an indexed array of destination entries.  A producing
operator hashes each tuple's join attribute and applies ``mod
len(table)``; the selected entry names the destination node and, for
partitioning tables, the logical bucket.  Three layouts appear in the
paper:

* **Joining split table** — one entry per join process
  (:meth:`SplitTable.joining`).
* **Grace partitioning table** — ``num_buckets * num_disk_nodes``
  entries, *bucket-major*: the entries of bucket 1 (one per disk) come
  first, then bucket 2, ... (Appendix A Table 1).
* **Hybrid partitioning table** — ``join_nodes + num_disk_nodes *
  (num_buckets - 1)`` entries: the joining split table for bucket 1
  first, then the Grace layout for the on-disk buckets (Appendix A
  Table 2).

Because entry ``e`` of a bucket-major table maps to disk ``e mod D``
and the relations were loaded by the *same* base hash, a tuple stored
on disk ``d`` satisfies ``h ≡ d (mod D)`` — so bucket-forming writes
are always local for HPJA joins, and with local joins (``J = D``) the
bucket-joining phase short-circuits completely even for non-HPJA joins
(§4.1).  None of this is special-cased; it falls out of the layout,
exactly as in Gamma.

The byte width of an entry (40 bytes: machine id, port, window/flow
state) is chosen so a 6-bucket × 8-disk table fits one 2 KB ring
packet while a 7-bucket table does not — reproducing the paper's
observation that the response-time curves rise once "the partitioning
split table exceeds the network packet size (2K) and hence must be
sent in pieces" (§4.1, and the Table 4 anomaly at seven buckets).
"""

from __future__ import annotations

import dataclasses
import typing

from repro.engine.node import Node

#: Declared size of one split-table entry on the wire.
SPLIT_ENTRY_BYTES = 40


@dataclasses.dataclass(frozen=True)
class SplitEntry:
    """One destination: a node and (for partitioning tables) a bucket.

    ``bucket`` 0 is the Hybrid algorithm's immediate (in-memory)
    bucket; buckets >= 1 are stored in temporary files.  For pure
    joining tables the bucket is always 0.
    """

    node: Node
    bucket: int


class SplitTable:
    """An immutable, mod-indexed destination table."""

    def __init__(self, entries: typing.Sequence[SplitEntry]) -> None:
        if not entries:
            raise ValueError("a split table needs at least one entry")
        self.entries = tuple(entries)

    # -- constructors --------------------------------------------------------

    @classmethod
    def joining(cls, join_nodes: typing.Sequence[Node]) -> "SplitTable":
        """One entry per join process (§2.2)."""
        return cls([SplitEntry(node, 0) for node in join_nodes])

    @classmethod
    def grace_partitioning(cls, num_buckets: int,
                           disk_nodes: typing.Sequence[Node]
                           ) -> "SplitTable":
        """Bucket-major ``num_buckets * D`` layout (Appendix A Table 1)."""
        if num_buckets < 1:
            raise ValueError(f"need >= 1 bucket, got {num_buckets}")
        entries = [SplitEntry(node, bucket)
                   for bucket in range(num_buckets)
                   for node in disk_nodes]
        return cls(entries)

    @classmethod
    def hybrid_partitioning(cls, num_buckets: int,
                            join_nodes: typing.Sequence[Node],
                            disk_nodes: typing.Sequence[Node]
                            ) -> "SplitTable":
        """``J + D*(N-1)`` layout (Appendix A Table 2): joining entries
        for the immediate bucket, then bucket-major disk entries."""
        if num_buckets < 1:
            raise ValueError(f"need >= 1 bucket, got {num_buckets}")
        entries = [SplitEntry(node, 0) for node in join_nodes]
        entries.extend(SplitEntry(node, bucket)
                       for bucket in range(1, num_buckets)
                       for node in disk_nodes)
        return cls(entries)

    # -- lookup ------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.entries)

    def index_for(self, hash_code: int) -> int:
        """The mod-indexed entry number for a hash code."""
        return hash_code % len(self.entries)

    def lookup(self, hash_code: int) -> SplitEntry:
        """The destination entry for a hash code."""
        return self.entries[hash_code % len(self.entries)]

    def __getitem__(self, index: int) -> SplitEntry:
        return self.entries[index]

    # -- wire size ------------------------------------------------------------

    @property
    def table_bytes(self) -> int:
        """Bytes the table occupies in scheduler start-up messages."""
        return len(self.entries) * SPLIT_ENTRY_BYTES

    # -- analysis helpers (used by tests and the bucket analyzer) -----------

    def destination_node_ids(self) -> tuple[int, ...]:
        """Entry-order destination node ids (conformance checks and
        property tests inspect the layout through this)."""
        return tuple(entry.node.node_id for entry in self.entries)

    def num_buckets(self) -> int:
        return max(entry.bucket for entry in self.entries) + 1

    def nodes_reachable_for_bucket(
            self, bucket: int, num_join_nodes: int) -> set[int]:
        """Which joining split-table indices can receive tuples from
        this bucket's stored fragments (the Appendix A pathology
        detector).

        A tuple lands in entry ``e`` of this table (so ``h ≡ e (mod
        len)``) and is later re-split with ``h mod num_join_nodes``;
        the reachable join indices are the residues of the arithmetic
        progression ``e + k*len(self)`` modulo ``num_join_nodes``.
        """
        reachable: set[int] = set()
        total = len(self.entries)
        for index, entry in enumerate(self.entries):
            if entry.bucket != bucket:
                continue
            residue = index % num_join_nodes
            step = total % num_join_nodes
            for k in range(num_join_nodes):
                reachable.add((residue + k * step) % num_join_nodes)
        return reachable

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<SplitTable {len(self.entries)} entries, "
                f"{self.num_buckets()} buckets>")
