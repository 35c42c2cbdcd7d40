"""Shared hash-join machinery: one build+probe "round".

§3.2 of the paper notes that the Simple hash-join *is* Gamma's
overflow-resolution method for the Grace and Hybrid algorithms.  This
module implements that shared machinery once:

* a :class:`HashJoinRound` is one build+probe cycle over a set of join
  sites — in-memory hash tables (with the histogram/cutoff overflow
  mechanism), optional per-round bit filters, R'/S' overflow files on
  the disks, and the probe/result path;
* :func:`run_round` executes a round end to end — build phase, cutoff
  and filter collection/broadcast, probe phase — and then recursively
  joins the overflow partitions with a **new hash function level**
  (the hash-function change that turns HPJA joins into non-HPJA joins,
  §4.1/§4.3), until no overflow remains.

The Simple hash-join is exactly one top-level round over the base
relations; a Grace/Hybrid bucket join is one round over the bucket's
fragment files; Hybrid's first bucket reuses the round's consumers
while feeding them from its combined partitioning split table.
"""

from __future__ import annotations

import typing

from repro.catalog.pages import ColumnPage
from repro.core import kernels
from repro.core.bit_filter import FilterBank
from repro.core.hash_table import JoinHashTable, JoinOverflowError
from repro.core.split_table import SplitTable
from repro.engine.node import Node
from repro.engine.operators.routing import Router
from repro.engine.operators.scan import (
    chain_file_pages,
    constant_page_cost,
    fragment_pages,
    scan_pages,
)
from repro.engine.operators.writers import tempfile_writer
from repro.network.messages import (
    DataPacket,
    EndOfStream,
    eos_overshoot,
)
from repro.storage.files import PagedFile

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.joins.base import JoinDriver

Row = typing.Tuple


# --------------------------------------------------------------------------
# Tuple sources
# --------------------------------------------------------------------------

class StreamSource:
    """A producer-side tuple feed at one disk node."""

    #: Optional selection predicate applied at the scan site.
    predicate: typing.Callable[[Row], bool] | None = None

    def __init__(self, node: Node) -> None:
        self.node = node

    def pages(self, tuples_per_page: int
              ) -> typing.Iterator[typing.Sequence[Row]]:
        raise NotImplementedError

    def column_data(self, level: int, family: str) -> tuple[
            typing.Sequence[Row] | None, typing.Sequence[int] | None]:
        """(rows, stored_hashes) when the whole feed is materialized
        up front — the precondition for the vectorized data plane.
        ``stored_hashes`` short-circuits hashing when the rows carry a
        hash sidecar computed under the same (level, family)."""
        return None, None

    @property
    def n_tuples(self) -> int:
        raise NotImplementedError


class FragmentSource(StreamSource):
    """A stored relation fragment (base-relation scan)."""

    def __init__(self, node: Node, rows: typing.Sequence[Row],
                 predicate: typing.Callable[[Row], bool] | None = None
                 ) -> None:
        super().__init__(node)
        self.rows = rows
        self.predicate = predicate

    def pages(self, tuples_per_page: int
              ) -> typing.Iterator[typing.Sequence[Row]]:
        return fragment_pages(self.rows, tuples_per_page)

    def column_data(self, level: int, family: str) -> tuple[
            typing.Sequence[Row] | None, typing.Sequence[int] | None]:
        return self.rows, None

    @property
    def n_tuples(self) -> int:
        return len(self.rows)


class FilesSource(StreamSource):
    """One or more temp files read back to back (bucket fragments,
    overflow partitions)."""

    def __init__(self, node: Node,
                 files: typing.Sequence[PagedFile]) -> None:
        super().__init__(node)
        self.files = list(files)

    def pages(self, tuples_per_page: int
              ) -> typing.Iterator[typing.Sequence[Row]]:
        return chain_file_pages(self.files)

    def column_data(self, level: int, family: str) -> tuple[
            typing.Sequence[Row] | None, typing.Sequence[int] | None]:
        if len(self.files) == 1:
            file = self.files[0]
            return file.rows, file.stored_hashes(level, family)
        # Files are read back to back, so the concatenation is the scan
        # order; the sidecar is usable only if every file carries one.
        parts = [file.rows for file in self.files]
        rows: typing.Sequence[Row]
        if parts and all(isinstance(p, ColumnPage) for p in parts):
            rows = ColumnPage.concat(
                typing.cast("list[ColumnPage]", parts))
        else:
            merged: list[Row] = []
            for part in parts:
                merged.extend(part)
            rows = merged
        stored: list[int] | None = []
        for file in self.files:
            if stored is not None:
                hashes = file.stored_hashes(level, family)
                if hashes is None:
                    stored = None
                else:
                    stored.extend(hashes)
        return rows, stored

    @property
    def n_tuples(self) -> int:
        return sum(f.num_tuples for f in self.files)


def relation_sources(driver: "JoinDriver", which: str) -> list[FragmentSource]:
    """Scan sources for the driver's inner or outer base relation
    (with the relation's selection predicate attached, if any)."""
    if which == "inner":
        relation, predicate = driver.inner, driver.spec.inner_predicate
    else:
        relation, predicate = driver.outer, driver.spec.outer_predicate
    return [FragmentSource(node, fragment, predicate)
            for node, fragment in zip(driver.disk_nodes, relation.fragments)]


# --------------------------------------------------------------------------
# One build+probe round
# --------------------------------------------------------------------------

class HashJoinRound:
    """Per-round state for one set of join-site hash tables."""

    def __init__(self, driver: "JoinDriver", level: int,
                 label: str) -> None:
        self.driver = driver
        self.machine = driver.machine
        self.costs = driver.costs
        self.level = level
        self.label = label
        self.sites = driver.join_sites
        capacity = driver.hash_table_capacity()
        self.tables = [JoinHashTable(capacity) for _ in self.sites]
        self.bank: FilterBank | None = (
            FilterBank.sized_for(len(self.sites), self.costs)
            if driver.filter_policy.active else None)
        self.joining_table = SplitTable.joining(self.sites)
        monitor = self.machine.monitor
        if monitor is not None:
            monitor.check_split_table(
                self.joining_table,
                expected_nodes=[site.node_id for site in self.sites],
                phase=label, num_buckets=1)
        # Overflow files: R'_j / S'_j for join site j live on the
        # disk node the driver's allocator assigns (§3.2; own drive
        # for local sites, unaligned round-robin for diskless ones).
        inner_bytes = driver.inner.schema.tuple_bytes
        outer_bytes = driver.outer.schema.tuple_bytes
        page = self.costs.page_size
        self.host_of = [driver.overflow_host(j)
                        for j in range(len(self.sites))]
        self.rprime = [PagedFile(f"{label}.Rp{j}", inner_bytes, page)
                       for j in range(len(self.sites))]
        self.sprime = [PagedFile(f"{label}.Sp{j}", outer_bytes, page)
                       for j in range(len(self.sites))]

    # -- site arithmetic ----------------------------------------------------

    def site_of(self, hash_code: int) -> int:
        return self.joining_table.index_for(hash_code)

    def cutoffs(self) -> list[int | None]:
        return [table.cutoff for table in self.tables]

    def _column(self, source: StreamSource,
                key_index: int) -> "kernels.Column | None":
        """The source's resolved hash column, or None for the scalar
        path (selection predicate at the scan site, or a column the
        kernels cannot hash)."""
        if source.predicate is not None:
            return None
        family = self.driver.spec.hash_family
        rows, stored = source.column_data(self.level, family)
        return kernels.resolve_column(self.machine, rows, stored,
                                      key_index, self.level, family)

    # -- build side ----------------------------------------------------------

    def build_route_page(self, router: Router,
                         source: StreamSource) -> typing.Callable:
        """Standard building-relation route: hash, mod-J, transmit.

        Page-level: one call scans a whole page (scan CPU + predicate
        + hash + route) and batches the routed tuples into ``router``
        with a single :meth:`Router.give_batch`.  The float
        accumulation order matches the per-tuple contract exactly
        (``cpu += tuple_scan`` then ``cpu += route_cost`` per row) so
        simulated times are bit-identical.
        """
        costs = self.costs
        tuple_scan = costs.tuple_scan
        per_tuple = costs.tuple_hash + costs.tuple_move
        node_ids = [site.node_id for site in self.sites]
        n_entries = len(self.joining_table)
        column = self._column(source, self.driver.inner_key)
        if column is not None:
            return kernels.vector_simple_route(
                self.machine.dataplane, column, router, node_ids, None,
                n_entries, tuple_scan, per_tuple)
        predicate = source.predicate
        hasher = self.driver.hasher(self.level)
        key = self.driver.inner_key
        give_batch = router.give_batch

        if predicate is None:
            # Every row costs the same, so the page's CPU comes from a
            # prefix table and the routing collapses to comprehensions.
            cpu_for = constant_page_cost(tuple_scan, per_tuple)

            def route_page(page: typing.Sequence[Row]) -> float:
                hashes = [hasher(row[key]) for row in page]
                give_batch([node_ids[h % n_entries] for h in hashes],
                           page, hashes)
                return cpu_for(len(page))

        else:

            def route_page(page: typing.Sequence[Row]) -> float:
                cpu = 0.0
                dsts: list[int] = []
                rows: list[Row] = []
                hashes: list[int] = []
                for row in page:
                    cpu += tuple_scan
                    if not predicate(row):
                        continue
                    h = hasher(row[key])
                    dsts.append(node_ids[h % n_entries])
                    rows.append(row)
                    hashes.append(h)
                    cpu += per_tuple
                if rows:
                    give_batch(dsts, rows, hashes)
                return cpu

        return kernels.counting_scalar(route_page, self.machine.dataplane)

    def build_consumer(self, site: int, port: str, n_producers: int
                       ) -> typing.Generator:
        """The building operator at join site ``site``.

        Inserts arriving R tuples into the site's hash table, applies
        the histogram/cutoff overflow mechanism, routes evicted and
        rejected tuples to the site's R' overflow file, and sets bit
        filters over *every* received tuple (overflowed tuples must
        set bits too — their partners are spooled, not dropped).
        """
        driver = self.driver
        machine = self.machine
        costs = self.costs
        node = self.sites[site]
        table = self.tables[site]
        host = self.host_of[site]
        ov_router = Router(machine, node, [host], port + ".Rp",
                           driver.inner.schema.tuple_bytes)
        mailbox = machine.registry.mailbox(node.node_id, port)
        # Per-tuple cost constants and bound methods, hoisted out of
        # the packet loop (same float values, same addition order).
        receive_update = costs.tuple_receive + costs.histogram_update
        filter_set = costs.filter_set
        overflow_scan_tuple = costs.overflow_scan_tuple
        tuple_build = costs.tuple_build
        tuple_move = costs.tuple_move
        bank_set = self.bank.set if self.bank is not None else None
        admits = table.admits
        insert = table.insert
        host_id = host.node_id
        give = ov_router.give
        # Inlined NetworkService.receive_charge (both message kinds on
        # this port carry src_node, so the general path reduces to a
        # two-constant pick charged on this node's CPU).
        node_id = node.node_id
        cpu_res_use = node.cpu.use
        sc_cost = costs.packet_shortcircuit
        recv_cost = costs.packet_protocol_receive
        # Page-granular fast path: while no cutoff exists and the whole
        # packet fits, the scalar protocol degenerates to "charge
        # receive_update [+ filter_set] + tuple_build per row, set the
        # filter bit, insert" — batched below with bit-identical CPU
        # (prefix tables replay the same additions) and identical table
        # state (insert order preserved, filter OR commutes).
        dataplane = machine.dataplane
        site_filter = self.bank[site] if self.bank is not None else None
        if site_filter is not None:
            batch_cpu = constant_page_cost(receive_update, filter_set,
                                           tuple_build)
        else:
            batch_cpu = constant_page_cost(receive_update, tuple_build)
        mon = machine.monitor
        eos_remaining = n_producers
        while eos_remaining:
            message = yield mailbox.get()
            yield from cpu_res_use(
                sc_cost if message.src_node == node_id else recv_cost)
            if type(message) is EndOfStream:
                eos_remaining -= message.closes
                if eos_remaining < 0:
                    raise eos_overshoot(port, node_id, message,
                                        eos_remaining)
                continue
            assert type(message) is DataPacket, message
            if mon is not None:
                mon.note_received(len(message.rows))
            if (table.cutoff is None
                    and table.count + len(message.rows) <= table.capacity):
                dataplane.packets_batched += 1
                if site_filter is not None:
                    site_filter.set_batch(message.hashes)
                table.insert_page(message.rows, message.hashes)
                yield from node.cpu_use(batch_cpu(len(message.rows)))
                continue
            dataplane.packets_scalar += 1
            cpu = 0.0
            for row, h in zip(message.rows, message.hashes):
                cpu += receive_update
                if bank_set is not None:
                    cpu += filter_set
                    bank_set(site, h)
                if admits(h):
                    if table.is_full:
                        evicted, scanned = table.make_room()
                        cpu += scanned * overflow_scan_tuple
                        for erow, ehash in evicted:
                            cpu += tuple_move
                            give(host_id, erow, ehash, bucket=site)
                    if admits(h):
                        cpu += tuple_build
                        insert(row, h)
                    else:
                        cpu += tuple_move
                        give(host_id, row, h, bucket=site)
                else:
                    cpu += tuple_move
                    give(host_id, row, h, bucket=site)
            yield from node.cpu_use(cpu)
            if ov_router._ready:
                yield from ov_router.flush_ready()
        yield from ov_router.close()

    def overflow_writers(self, port: str, which: str,
                         n_producers_fn: typing.Callable[[Node], int]
                         ) -> list[tuple[Node, typing.Generator]]:
        """Writer consumers for the R' or S' overflow files.

        One writer per distinct host disk node; packets carry the join
        site index in their ``bucket`` field to select the file.
        """
        files = self.rprime if which == "R" else self.sprime
        by_host: dict[int, list[int]] = {}
        for site, host in enumerate(self.host_of):
            by_host.setdefault(host.node_id, []).append(site)
        writers: list[tuple[Node, typing.Generator]] = []
        for host_id, site_list in sorted(by_host.items()):
            node = self.machine.nodes[host_id]
            site_files = {site: files[site] for site in site_list}

            def select_file(bucket: int | None,
                            site_files: dict[int, PagedFile] = site_files
                            ) -> PagedFile:
                if bucket is None or bucket not in site_files:
                    raise RuntimeError(
                        f"overflow packet addressed to unknown site "
                        f"{bucket!r}")
                return site_files[bucket]

            writers.append((node, tempfile_writer(
                self.machine, node, port, n_producers_fn(node),
                select_file=select_file,
                close_files=list(site_files.values()))))
        return writers

    def builders_hosted_at(self, node: Node) -> int:
        return sum(1 for host in self.host_of if host is node)

    # -- probe side -----------------------------------------------------------

    def probe_route_page(self, probe_router: Router, spool_router: Router,
                         source: StreamSource) -> typing.Callable:
        """Outer-relation route: filter test, cutoff check, transmit.

        Tuples whose destination site overflowed and whose hash is at
        or above the site's cutoff are spooled *directly* to the S'
        file (§3.2 step 3); the rest go to the site for probing.
        Filter-eliminated tuples go nowhere.

        Page-level (see :meth:`build_route_page`): each row's route
        cost is summed in its own variable ``r`` before being added to
        the page total, mirroring the per-tuple closure's internal
        accumulation, so float addition order is unchanged.
        """
        costs = self.costs
        tuple_scan = costs.tuple_scan
        tuple_hash = costs.tuple_hash
        tuple_move = costs.tuple_move
        filter_test = costs.filter_test
        site_ids = [site.node_id for site in self.sites]
        host_ids = [host.node_id for host in self.host_of]
        n_entries = len(self.joining_table)
        cutoffs = self.cutoffs()
        bank = self.bank
        bank_test = bank.test if bank is not None else None
        hasher = self.driver.hasher(self.level)
        key = self.driver.outer_key
        driver = self.driver
        column = self._column(source, key)
        if column is not None:
            return kernels.vector_probe_route(
                self.machine.dataplane, column, probe_router,
                spool_router, site_ids, host_ids, n_entries, cutoffs,
                bank, costs,
                lambda n: driver.bump("outer_tuples_spooled", n))
        predicate = source.predicate

        if (predicate is None and bank is None
                and all(c is None for c in cutoffs)):
            # No filter, no overflow cutoffs, no predicate: every row
            # goes to its site for probing at a constant cost.
            r_const = tuple_hash + tuple_move
            cpu_for = constant_page_cost(tuple_scan, r_const)
            give_batch = probe_router.give_batch

            def route_page(page: typing.Sequence[Row]) -> float:
                hashes = [hasher(row[key]) for row in page]
                give_batch([site_ids[h % n_entries] for h in hashes],
                           page, hashes)
                return cpu_for(len(page))

            return route_page

        def route_page(page: typing.Sequence[Row]) -> float:
            cpu = 0.0
            p_dsts: list[int] = []
            p_rows: list[Row] = []
            p_hashes: list[int] = []
            s_dsts: list[int] = []
            s_rows: list[Row] = []
            s_hashes: list[int] = []
            s_buckets: list[int] = []
            for row in page:
                cpu += tuple_scan
                if predicate is not None and not predicate(row):
                    continue
                h = hasher(row[key])
                r = tuple_hash
                site = h % n_entries
                if bank_test is not None:
                    r += filter_test
                    if not bank_test(site, h):
                        cpu += r
                        continue
                cutoff = cutoffs[site]
                if cutoff is not None and h >= cutoff:
                    r += tuple_move
                    s_dsts.append(host_ids[site])
                    s_rows.append(row)
                    s_hashes.append(h)
                    s_buckets.append(site)
                else:
                    r += tuple_move
                    p_dsts.append(site_ids[site])
                    p_rows.append(row)
                    p_hashes.append(h)
                cpu += r
            if p_rows:
                probe_router.give_batch(p_dsts, p_rows, p_hashes)
            if s_rows:
                spool_router.give_batch(s_dsts, s_rows, s_hashes,
                                        s_buckets)
                driver.bump("outer_tuples_spooled", len(s_rows))
            return cpu

        return route_page

    def probe_consumer(self, site: int, port: str, n_producers: int,
                       store_router: Router) -> typing.Generator:
        """The probing operator at join site ``site``."""
        machine = self.machine
        costs = self.costs
        node = self.sites[site]
        table = self.tables[site]
        inner_key = self.driver.inner_key
        outer_key = self.driver.outer_key
        mailbox = machine.registry.mailbox(node.node_id, port)
        # Per-tuple cost constants and bound methods, hoisted out of
        # the packet loop (same float values, same addition order).
        tuple_receive = costs.tuple_receive
        tuple_probe = costs.tuple_probe
        tuple_chain_link = costs.tuple_chain_link
        result_move = costs.tuple_result + costs.tuple_move
        probe_batch = table.probe_batch
        give_round_robin_batch = store_router.give_round_robin_batch
        dataplane = machine.dataplane
        # Inlined NetworkService.receive_charge (both message kinds on
        # this port carry src_node, so the general path reduces to a
        # two-constant pick charged on this node's CPU).
        node_id = node.node_id
        cpu_res_use = node.cpu.use
        sc_cost = costs.packet_shortcircuit
        recv_cost = costs.packet_protocol_receive
        mon = machine.monitor
        eos_remaining = n_producers
        while eos_remaining:
            message = yield mailbox.get()
            yield from cpu_res_use(
                sc_cost if message.src_node == node_id else recv_cost)
            if type(message) is EndOfStream:
                eos_remaining -= message.closes
                if eos_remaining < 0:
                    raise eos_overshoot(port, node_id, message,
                                        eos_remaining)
                continue
            assert type(message) is DataPacket, message
            if mon is not None:
                mon.note_received(len(message.rows))
            dataplane.packets_batched += 1
            cpu, results = probe_batch(
                message.rows, message.hashes, outer_key, inner_key,
                tuple_receive, tuple_probe, tuple_chain_link, result_move)
            if results:
                give_round_robin_batch(results)
            yield from node.cpu_use(cpu)
            if store_router._ready:
                yield from store_router.flush_ready()
        yield from store_router.close()

    # -- bookkeeping --------------------------------------------------------

    def finish(self) -> None:
        """Fold the round's statistics into the driver."""
        self.driver.note_table_stats(self.tables)
        if self.bank is not None:
            self.bank.merge_counters_into(self.driver.counters)

    def overflow_pairs(self) -> list[int]:
        """Sites whose overflow partitions must be joined recursively.

        A site needs recursion only when both R' and S' are non-empty;
        matching tuples always land on the same side of the cutoff, so
        an unpaired partition cannot produce results.
        """
        return [site for site in range(len(self.sites))
                if self.rprime[site].num_tuples
                and self.sprime[site].num_tuples]

    def state_payload_bytes(self) -> int:
        """Per-site bytes of cutoff/filter state collected after the
        build phase (a cutoff word, plus this site's filter slice)."""
        per_site = 32
        if self.bank is not None:
            per_site += self.costs.filter_bytes // len(self.sites)
        return per_site


# --------------------------------------------------------------------------
# Full round execution (build + probe + overflow recursion)
# --------------------------------------------------------------------------

def run_round(driver: "JoinDriver",
              r_sources: typing.Sequence[StreamSource],
              s_sources: typing.Sequence[StreamSource],
              level: int, depth: int, label: str,
              read_from_disk: bool = True) -> typing.Generator:
    """Execute one complete hash-join round and resolve its overflow.

    This is the parallel Simple hash-join of §3.2: build the inner
    side into the site hash tables, collect cutoffs (and bit filters),
    probe with the outer side, then recursively join the R'/S'
    overflow partitions with hash level + 1 until none remain.
    """
    if depth > driver.spec.max_overflow_depth:
        raise JoinOverflowError(
            f"{driver.algorithm}: overflow recursion exceeded "
            f"{driver.spec.max_overflow_depth} levels at {label!r}; the "
            "inner relation's duplicates exceed all join memory")
    machine = driver.machine
    costs = driver.costs
    round_ = HashJoinRound(driver, level, label)
    sites = round_.sites
    inner_tpp = costs.tuples_per_page(driver.inner.schema.tuple_bytes)
    outer_tpp = costs.tuples_per_page(driver.outer.schema.tuple_bytes)

    # ---- build phase ------------------------------------------------------
    stat = driver.phase(f"{label}.build")
    build_port = machine.fresh_port(f"{label}.build")
    ovr_port = build_port + ".Rp"
    producers = []
    for source in r_sources:
        router = Router(machine, source.node, sites, build_port,
                        driver.inner.schema.tuple_bytes)
        producers.append((source.node, scan_pages(
            machine, source.node, source.pages(inner_tpp), [router],
            read_from_disk=read_from_disk,
            route_page=round_.build_route_page(router, source))))
    consumers = [(sites[j], round_.build_consumer(j, build_port,
                                                  len(r_sources)))
                 for j in range(len(sites))]
    consumers.extend(round_.overflow_writers(
        ovr_port, "R", n_producers_fn=round_.builders_hosted_at))
    yield from driver.scheduler.execute_phase(
        f"{label}.build", producers, consumers,
        split_table_bytes=round_.joining_table.table_bytes)
    driver.end_phase(stat)

    # ---- cutoff / filter collection -----------------------------------------
    yield from driver.collect_site_state(
        round_.state_payload_bytes(),
        broadcast_nodes=[source.node for source in s_sources],
        broadcast_bytes=(costs.filter_bytes if round_.bank is not None
                         else 64))

    # ---- probe phase -----------------------------------------------------
    stat = driver.phase(f"{label}.probe")
    probe_port = machine.fresh_port(f"{label}.probe")
    ovs_port = probe_port + ".Sp"
    store_consumers, store_port = driver.store_writers(
        n_producers=len(sites))
    spool_hosts = sorted({node.node_id for node in round_.host_of})
    producers = []
    for source in s_sources:
        probe_router = Router(machine, source.node, sites, probe_port,
                              driver.outer.schema.tuple_bytes)
        spool_router = Router(
            machine, source.node,
            [machine.nodes[h] for h in spool_hosts], ovs_port,
            driver.outer.schema.tuple_bytes)
        producers.append((source.node, scan_pages(
            machine, source.node, source.pages(outer_tpp),
            [probe_router, spool_router],
            read_from_disk=read_from_disk,
            route_page=round_.probe_route_page(
                probe_router, spool_router, source))))
    consumers = []
    for j, site in enumerate(sites):
        store_router = Router(machine, site, driver.disk_nodes,
                              store_port, driver.result_tuple_bytes)
        consumers.append((site, round_.probe_consumer(
            j, probe_port, len(s_sources), store_router)))
    consumers.extend(round_.overflow_writers(
        ovs_port, "S", n_producers_fn=lambda node: len(s_sources)))
    consumers.extend(store_consumers)
    yield from driver.scheduler.execute_phase(
        f"{label}.probe", producers, consumers,
        split_table_bytes=round_.joining_table.table_bytes)
    driver.end_phase(stat)

    round_.finish()
    yield from resolve_overflow(driver, round_, depth, label)


def resolve_overflow(driver: "JoinDriver", round_: HashJoinRound,
                     depth: int, label: str) -> typing.Generator:
    """Recursively join a finished round's R'/S' overflow partitions.

    The aggregate overflow is treated as a new pair of (horizontally
    partitioned) relations and re-joined with hash level + 1 — §3.2's
    recursion, including the hash-function change of §4.1.
    """
    pairs = round_.overflow_pairs()
    if not pairs:
        return
    machine = driver.machine
    driver.overflow_levels = max(driver.overflow_levels, depth + 1)
    r_by_node: dict[int, list[PagedFile]] = {}
    s_by_node: dict[int, list[PagedFile]] = {}
    for site in pairs:
        host = round_.host_of[site]
        r_by_node.setdefault(host.node_id, []).append(round_.rprime[site])
        s_by_node.setdefault(host.node_id, []).append(round_.sprime[site])
    next_r = [FilesSource(machine.nodes[n], files)
              for n, files in sorted(r_by_node.items())]
    next_s = [FilesSource(machine.nodes[n], files)
              for n, files in sorted(s_by_node.items())]
    yield from run_round(driver, next_r, next_s, round_.level + 1,
                         depth + 1, f"{label}.ov{depth + 1}")
