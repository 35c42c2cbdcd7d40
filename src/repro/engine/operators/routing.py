"""The outgoing half of a split table: per-destination packet batching.

A producing operator looks up each tuple's destination in its split
table and copies the tuple into a per-destination output buffer; when
a buffer fills one ring packet it is transmitted.  :class:`Router`
implements that buffering plus the end-of-stream protocol: closing the
router flushes every partial packet and then terminates the stream.
Under Gamma's flat rule (§2.2) that is one
:class:`~repro.network.messages.EndOfStream` to *every* consumer —
consumers terminate after hearing from each producer, so the EOS must
flow even to consumers that received no data.  On a hardware profile
with an ``eos_tree_arity``, a stream wider than the arity instead
closes through a combining tree over the port's producers
(:mod:`repro.network.combining`, DESIGN.md §14): each consumer hears
one marker that accounts for every producer.

CPU accounting: ``give`` is called at tuple rate, so it does no
simulated work itself.  Callers accumulate per-tuple CPU (hash, move,
filter test) and charge it in page-sized batches; the router charges
only the per-packet protocol costs, at flush time, through
``NetworkService.send``.
"""

from __future__ import annotations

import typing

from repro.engine.node import Node
from repro.network.combining import CombiningTree, engages
from repro.network.messages import (
    DataPacket,
    EndOfStream,
    StreamTerminationError,
)
from repro.network.ring import TokenRing

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.engine.machine import GammaMachine

Row = typing.Tuple
_BufferKey = typing.Tuple[int, typing.Optional[int]]


class StreamGroup:
    """The producers that feed one port, as its combining tree sees
    them.

    Routers join as the phase's driver constructs them (join order is
    heap order in the tree); the first ``close`` seals the membership,
    because from then on tree neighbours are fixed.  Only node ids are
    kept, so a finished phase's routers are not held alive."""

    def __init__(self, port: str, consumers: list[Node],
                 arity: int) -> None:
        self.port = port
        self.consumers = consumers
        self.arity = arity
        #: Producer node id by rank.
        self.producers: list[int] = []
        self.tree: CombiningTree | None = None

    def join(self, router: "Router") -> int:
        """Add ``router``; returns its rank in the tree."""
        if self.tree is not None:
            problem = "termination already began"
        elif router.consumers != self.consumers:
            problem = "its consumers differ from its peers'"
        else:
            self.producers.append(router.src_node.node_id)
            return len(self.producers) - 1
        node = router.src_node.node_id
        raise StreamTerminationError(
            f"router cannot join the port's combining tree: {problem}",
            port=self.port, node=node, producer=node,
            deltas={"peers": len(self.producers)})

    def seal(self) -> CombiningTree:
        if self.tree is None:
            self.tree = CombiningTree(len(self.producers),
                                      len(self.consumers), self.arity)
        return self.tree

    def inbox_port(self, rank: int) -> str:
        """Port of the mailbox tree neighbours of ``rank`` write to."""
        return f"{self.port}.eos{rank}"


class Router:
    """Routes tuples from one producer to a set of consumers."""

    def __init__(self, machine: "GammaMachine", src_node: Node,
                 consumers: typing.Sequence[Node], port: str,
                 tuple_bytes: int) -> None:
        if not consumers:
            raise ValueError(f"router on port {port!r} needs >= 1 consumer")
        self.machine = machine
        self.src_node = src_node
        self.consumers = list(consumers)
        self.port = port
        self.tuple_bytes = tuple_bytes
        self.capacity = machine.costs.tuples_per_packet(tuple_bytes)
        #: Bucketed buffers, keyed (dst_node_id, bucket).
        self._buffers: dict[_BufferKey, tuple[list[Row], list[int]]] = {}
        #: Unbucketed buffers, keyed by the bare dst_node_id — int keys
        #: hash much faster than (dst, None) tuples on the per-tuple
        #: path; logically these are the bucket-None entries.
        self._buffers0: dict[int, tuple[list[Row], list[int]]] = {}
        self._ready: list[tuple[_BufferKey, list[Row], list[int]]] = []
        self._rr_next = 0
        self.closed = False
        self.tuples_routed = 0
        # Send-path constants, hoisted so flush_ready can inline the
        # NetworkService data-packet path (same charges, same event
        # order, two fewer generator frames per packet).
        network = machine.network
        costs = machine.costs
        self._stats = network.stats
        self._src_cpu_use = network._cpu(src_node.node_id).use
        # The flush loop inlines the shared-ring transmit; any other
        # interconnect goes through its transmit() generator (the
        # routed topologies need the endpoints and hold several media,
        # so there is nothing to inline).  ``type is`` — not
        # isinstance — so a subclass with a different transmit cannot
        # silently inherit the inlined fast path.
        interconnect = network.ring
        if type(interconnect) is TokenRing:
            self._ring: "TokenRing | None" = interconnect
            self._ring_use = interconnect.medium.use
        else:
            self._ring = None
            self._transmit = interconnect.transmit
        self._wire_time = costs.packet_wire_time
        self._mailbox = machine.registry.mailbox
        #: Per-destination mailbox cache (registry mailboxes are
        #: memoized, so caching the lookup is free of aliasing).
        self._mailboxes: dict[int, typing.Any] = {}
        self._sc_cost = costs.packet_shortcircuit
        self._send_cost = costs.packet_protocol_send
        self._packet_size = costs.packet_size
        #: Set when this stream is wide enough to terminate through
        #: the profile's combining tree; None means the flat rule.
        self._group: StreamGroup | None = None
        if engages(costs.eos_tree_arity, len(self.consumers)):
            group = machine.stream_groups.get(port)
            if group is None:
                group = machine.stream_groups[port] = StreamGroup(
                    port, self.consumers, costs.eos_tree_arity)
            self._group = group
            self._rank = group.join(self)
        monitor = machine.monitor
        if monitor is not None:
            monitor.register_router(self)

    # -- buffering (tuple rate, no simulation) -----------------------------

    def give(self, dst_node_id: int, row: Row, hash_code: int,
             bucket: int | None = None) -> None:
        """Buffer one tuple for ``dst_node_id``."""
        if self.closed:
            raise RuntimeError(f"router {self.port!r} already closed")
        buffers = self._buffers0 if bucket is None else self._buffers
        key = dst_node_id if bucket is None else (dst_node_id, bucket)
        buffer = buffers.get(key)
        if buffer is None:
            buffer = ([], [])
            buffers[key] = buffer
        buffer[0].append(row)
        buffer[1].append(hash_code)
        self.tuples_routed += 1
        if len(buffer[0]) >= self.capacity:
            del buffers[key]
            self._ready.append(((dst_node_id, bucket), buffer[0],
                                buffer[1]))

    def give_batch(self, dst_node_ids: typing.Sequence[int],
                   rows: typing.Sequence[Row],
                   hashes: typing.Sequence[int],
                   buckets: typing.Sequence[int | None] | None = None
                   ) -> None:
        """Buffer a page's worth of routed tuples in one call.

        Exactly equivalent to ``give`` applied element-wise over the
        parallel sequences (same buffer fill order, same capacity
        rollover, so the packet stream is bit-identical) with the
        per-call attribute lookups hoisted out of the tuple loop.
        ``buckets`` defaults to ``None`` for every tuple.
        """
        if self.closed:
            raise RuntimeError(f"router {self.port!r} already closed")
        buffers = self._buffers
        ready = self._ready
        capacity = self.capacity
        if buckets is None:
            buffers0 = self._buffers0
            for dst, row, h in zip(dst_node_ids, rows, hashes):
                buffer = buffers0.get(dst)
                if buffer is None:
                    buffer = ([], [])
                    buffers0[dst] = buffer
                brows, bhashes = buffer
                brows.append(row)
                bhashes.append(h)
                if len(brows) >= capacity:
                    del buffers0[dst]
                    ready.append(((dst, None), brows, bhashes))
        else:
            for dst, row, h, bucket in zip(dst_node_ids, rows, hashes,
                                           buckets):
                key = (dst, bucket)
                buffer = buffers.get(key)
                if buffer is None:
                    buffer = ([], [])
                    buffers[key] = buffer
                brows, bhashes = buffer
                brows.append(row)
                bhashes.append(h)
                if len(brows) >= capacity:
                    del buffers[key]
                    ready.append((key, brows, bhashes))
        self.tuples_routed += len(rows)

    def push_ready(self, dst_node_id: int, bucket: int | None,
                   rows: list[Row], hashes: list[int]) -> None:
        """Queue one full packet directly (vectorized routing).

        The batch route planner pre-cuts each destination's stream into
        capacity-sized packets; pushing them whole is equivalent to the
        ``give``-at-a-time fill reaching capacity.  ``tuples_routed`` is
        settled by the planner in one final add, not per packet.
        """
        if self.closed:
            raise RuntimeError(f"router {self.port!r} already closed")
        self._ready.append(((dst_node_id, bucket), rows, hashes))

    def stash_partial(self, dst_node_id: int, bucket: int | None,
                      rows: list[Row], hashes: list[int]) -> None:
        """Leave a sub-capacity tail in the partial-packet buffers so
        ``close`` flushes it exactly as the scalar fill would have."""
        if self.closed:
            raise RuntimeError(f"router {self.port!r} already closed")
        buffers = self._buffers0 if bucket is None else self._buffers
        key = dst_node_id if bucket is None else (dst_node_id, bucket)
        buffer = buffers.get(key)
        if buffer is None:
            buffers[key] = (rows, hashes)
            return
        # A buffer already exists (a scalar producer shared this
        # router): merge element-wise with the same capacity rollover
        # the per-tuple path applies.  A stashed columnar tail is
        # materialized first — append-merging is inherently row-wise.
        brows, bhashes = buffer
        if not isinstance(brows, list):
            brows, bhashes = list(brows), list(bhashes)
        for row, hash_code in zip(rows, hashes):
            brows.append(row)
            bhashes.append(hash_code)
            if len(brows) >= self.capacity:
                del buffers[key]
                self._ready.append(((dst_node_id, bucket), brows, bhashes))
                brows, bhashes = [], []
        if brows:
            buffers[key] = (brows, bhashes)

    def give_round_robin(self, row: Row) -> None:
        """Buffer one tuple for the next consumer in rotation (how the
        root of a query tree feeds result-store operators, §2.2)."""
        node = self.consumers[self._rr_next]
        self._rr_next = (self._rr_next + 1) % len(self.consumers)
        self.give(node.node_id, row, 0)

    def give_round_robin_batch(self, rows: typing.Sequence[Row]) -> None:
        """:meth:`give_round_robin` over ``rows`` in one call: the same
        rotation, buffer fill, capacity rollover and ready order, with
        the per-call lookups hoisted out of the row loop."""
        if self.closed:
            raise RuntimeError(f"router {self.port!r} already closed")
        consumers = self.consumers
        n_consumers = len(consumers)
        rr = self._rr_next
        capacity = self.capacity
        buffers0 = self._buffers0
        ready = self._ready
        for row in rows:
            dst = consumers[rr].node_id
            rr += 1
            if rr == n_consumers:
                rr = 0
            buffer = buffers0.get(dst)
            if buffer is None:
                buffer = buffers0[dst] = ([], [])
            brows, bhashes = buffer
            brows.append(row)
            bhashes.append(0)
            if len(brows) >= capacity:
                del buffers0[dst]
                ready.append(((dst, None), brows, bhashes))
        self._rr_next = rr
        self.tuples_routed += len(rows)

    # -- transmission (simulated) --------------------------------------------

    def flush_ready(self) -> typing.Generator:
        """Transmit every buffer that has filled a packet.

        Inlines :meth:`NetworkService.send` for the data-packet case —
        identical bookkeeping, charges and event order, minus a
        generator frame per packet on the hottest send chain.  The
        producer process is suspended inside this generator for the
        duration, so nothing refills ``_ready`` mid-flush.
        """
        ready = self._ready
        src = self.src_node.node_id
        tuple_bytes = self.tuple_bytes
        stats = self._stats
        cpu_use = self._src_cpu_use
        mailboxes = self._mailboxes
        make_packet = DataPacket.make
        ring = self._ring
        packet_size = self._packet_size
        for (dst_node_id, bucket), rows, hashes in ready:
            n = len(rows)
            payload = n * tuple_bytes
            packet = make_packet(src, rows, hashes, payload, bucket)
            stats.data_packets += 1
            stats.data_tuples += n
            stats.data_bytes += payload
            if dst_node_id == src:
                stats.data_packets_shortcircuited += 1
                stats.data_tuples_shortcircuited += n
                yield from cpu_use(self._sc_cost)
            else:
                yield from cpu_use(self._send_cost)
                wire = payload if payload < packet_size else packet_size
                if ring is not None:
                    # Inlined TokenRing.transmit (payload is positive
                    # and clamped to one packet by construction).
                    ring.packets_carried += 1
                    ring.bytes_carried += wire
                    yield from self._ring_use(self._wire_time(wire))
                else:
                    yield from self._transmit(wire, src, dst_node_id)
            mailbox = mailboxes.get(dst_node_id)
            if mailbox is None:
                mailbox = mailboxes[dst_node_id] = self._mailbox(
                    dst_node_id, self.port)
            mailbox.put(packet)
        ready.clear()

    def close(self) -> typing.Generator:
        """Flush all partial packets and terminate the stream: an EOS
        to every consumer (the flat rule), or this router's part in
        the port's combining tree.

        The flat fan-out inlines :meth:`NetworkService.send` for the
        :class:`EndOfStream` case the same way :meth:`flush_ready`
        inlines the data-packet case — identical stats, charges and
        event order, two fewer generator frames per consumer.  It is
        the only termination ``gamma-1989`` has, O(N²) of these per
        port, so the frames are worth ~10 % of a 256-node ring run
        (DESIGN.md §15).
        """
        if self.closed:
            raise RuntimeError(f"double close of router {self.port!r}")
        # Deterministic order for reproducibility (bucket-None entries
        # of a destination sort before its numbered buckets, exactly as
        # the single-dict (dst, bucket) keying did).  Already-full
        # packets in ``_ready`` go first, then the sorted leftovers —
        # queued onto the same flush loop, which sends in list order.
        leftovers: list[tuple[_BufferKey, tuple[list[Row], list[int]]]] = [
            ((dst, None), buffer)
            for dst, buffer in self._buffers0.items()]
        leftovers.extend(self._buffers.items())
        leftovers.sort(
            key=lambda kb: (kb[0][0], -1 if kb[0][1] is None else kb[0][1]))
        self._ready.extend(
            (key, rows, hashes) for key, (rows, hashes) in leftovers)
        yield from self.flush_ready()
        self._buffers.clear()
        self._buffers0.clear()
        self.closed = True
        if self._group is not None:
            yield from self._close_combined(self._group)
            return
        src = self.src_node.node_id
        eos = EndOfStream(src_node=src)
        stats = self._stats
        cpu_use = self._src_cpu_use
        mailboxes = self._mailboxes
        ring = self._ring
        port = self.port
        # EOS carries the default 64-byte control payload, clamped to
        # one packet — a constant, so the wire hold time is too.
        wire = 64 if 64 < self._packet_size else self._packet_size
        ring_hold = self._wire_time(wire) if ring is not None else 0.0
        for consumer in self.consumers:
            dst_node_id = consumer.node_id
            stats.control_messages += 1
            stats.eos_messages += 1
            if dst_node_id == src:
                stats.control_messages_shortcircuited += 1
                yield from cpu_use(self._sc_cost)
            else:
                yield from cpu_use(self._send_cost)
                if ring is not None:
                    # Inlined TokenRing.transmit, as in flush_ready.
                    ring.packets_carried += 1
                    ring.bytes_carried += wire
                    yield from self._ring_use(ring_hold)
                else:
                    yield from self._transmit(wire, src, dst_node_id)
            mailbox = mailboxes.get(dst_node_id)
            if mailbox is None:
                mailbox = mailboxes[dst_node_id] = self._mailbox(
                    dst_node_id, port)
            mailbox.put(eos)

    def _close_combined(self, group: StreamGroup) -> typing.Generator:
        """This producer's part in the port's combining tree.

        Runs after the last data packet is in its consumer's mailbox,
        so by the time the root has heard from every producer no data
        is in flight, and a consumer's (FIFO) mailbox holds the single
        combined EOS behind everything it was sent.  Every leg is an
        ordinary datagram — sender CPU, wire, receiver CPU — and there
        are O(N) of them per port, so they take the general
        ``NetworkService.send`` path rather than an inlined one.
        """
        tree = group.seal()
        rank = self._rank
        src = self.src_node.node_id
        network = self.machine.network
        send = network.send
        inbox = self._mailbox(src, group.inbox_port(rank))
        children = tree.children(rank)
        closes = 1
        for _child in children:
            report = yield inbox.get()
            yield from network.receive_charge(src, report)
            closes += report.closes
        parent = tree.parent(rank)
        if parent is not None:
            yield from send(src, group.producers[parent],
                            group.inbox_port(parent),
                            EndOfStream(src, closes))
            release = yield inbox.get()
            yield from network.receive_charge(src, release)
            closes = release.closes
        if closes != tree.n_producers:
            raise StreamTerminationError(
                "combining tree did not account for every producer",
                port=self.port, node=src, producer=src,
                deltas={"closes": closes,
                        "producers": tree.n_producers})
        release = EndOfStream(src, closes)
        for child in children:
            yield from send(src, group.producers[child],
                            group.inbox_port(child), release)
        for index in tree.owned(rank):
            yield from send(src, self.consumers[index].node_id,
                            self.port, release)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<Router {self.port!r} from {self.src_node.name} "
                f"routed={self.tuples_routed}>")
