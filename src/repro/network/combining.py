"""Shape of the combining tree that terminates a wide stream.

Gamma's rule (§2.2) has every producer of a port send an end-of-stream
to every consumer: ``P * C`` messages.  On a profile whose
:attr:`~repro.costs.CostModel.eos_tree_arity` is set, a port that fans
out to more consumers than the arity closes through a k-ary tree over
its producers instead — the shape of a cluster runtime's barrier
(reduce, then broadcast):

* **up** — a producer that has flushed its last data packet waits for
  the reports of its children, then reports its subtree's count of
  closed streams to its parent (``P - 1`` messages);
* **down** — once the root has heard from everyone it releases its
  children, who release theirs (``P - 1`` messages);
* **out** — each released producer sends one combined end-of-stream to
  every consumer it owns (``C`` messages).

Producers are numbered in heap order (``parent(i) = (i - 1) // k``), so
the depth is at most ``ceil(log_k P)``; consumer ``j`` is owned by
producer ``j mod P``, which on a machine whose join sites are its
producing nodes makes every *out* message a same-node hand-off.

This module is only the arithmetic; :class:`repro.engine.operators.
routing.Router` runs the protocol and the analytic oracle charges it.
"""

from __future__ import annotations

import dataclasses


def engages(arity: int, n_consumers: int) -> bool:
    """True when a stream to ``n_consumers`` closes through the tree.

    At or below the arity a one-level tree saves no message over the
    flat rule (and adds a round trip), so narrow streams stay flat."""
    return arity >= 2 and n_consumers > arity


@dataclasses.dataclass(frozen=True)
class CombiningTree:
    """The termination tree of one port."""

    n_producers: int
    n_consumers: int
    arity: int

    def __post_init__(self) -> None:
        if self.n_producers < 1 or self.n_consumers < 1 or self.arity < 2:
            raise ValueError(f"degenerate combining tree: {self}")

    def parent(self, rank: int) -> int | None:
        """The producer ``rank`` reports to (None for the root)."""
        return (rank - 1) // self.arity if rank else None

    def children(self, rank: int) -> range:
        """The producers that report to ``rank``."""
        first = rank * self.arity + 1
        return range(min(first, self.n_producers),
                     min(first + self.arity, self.n_producers))

    def owned(self, rank: int) -> range:
        """Indices of the consumers ``rank`` sends the combined
        end-of-stream to."""
        return range(rank, self.n_consumers, self.n_producers)

    def depth(self, rank: int) -> int:
        """Edges between ``rank`` and the root."""
        depth = 0
        while rank:
            rank = (rank - 1) // self.arity
            depth += 1
        return depth

    @property
    def height(self) -> int:
        """Depth of the deepest producer (heap order: the last one)."""
        return self.depth(self.n_producers - 1)

    @property
    def messages(self) -> int:
        """Messages one termination sends: up, down and out."""
        return 2 * (self.n_producers - 1) + self.n_consumers
