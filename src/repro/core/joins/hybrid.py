"""The parallel Hybrid hash-join (§3.4).

Hybrid spends the memory Grace leaves idle during bucket-forming on
joining the first bucket immediately:

* the partitioning split table has ``J + D*(N-1)`` entries (Appendix A
  Table 2) — the joining split table for bucket 1 followed by the
  Grace layout for the N-1 on-disk buckets;
* partitioning R overlaps with building bucket 1's in-memory hash
  tables at the join sites;
* partitioning S overlaps with probing bucket 1 (and producing its
  results);
* buckets 2..N are then joined exactly as Grace buckets, with the
  joining split table only.

Bucket 1 inherits the full overflow machinery — under the §4.4 skew it
is the bucket that overflows at 100 % memory — and each bucket gets a
fresh bit-filter packet when filtering is enabled.
"""

from __future__ import annotations

import typing

from repro.core import kernels
from repro.core.bit_filter import FilterBank
from repro.core.joins.base import BitFilterPolicy, JoinDriver
from repro.core.joins.common import (
    HashJoinRound,
    resolve_overflow,
    run_round,
    take_bucket,
)
from repro.core.planner import BucketPolicy, plan_buckets
from repro.core.split_table import SplitTable
from repro.engine.node import Node
from repro.engine.operators.routing import Router
from repro.engine.operators.scan import (
    constant_page_cost,
    fragment_pages,
    scan_pages,
)
from repro.engine.operators.writers import tempfile_writer
from repro.storage.files import PagedFile

Row = typing.Tuple


class HybridHashJoin(JoinDriver):
    """Join the first bucket in memory while staging the rest."""

    algorithm = "hybrid"

    def _execute(self) -> typing.Generator:
        plan = plan_buckets(
            "hybrid", self.inner.total_bytes, self.aggregate_memory,
            num_disks=len(self.disk_nodes),
            num_join_nodes=len(self.join_sites),
            policy=BucketPolicy(self.spec.bucket_policy),
            override=self.spec.num_buckets)
        self.num_buckets = plan.num_buckets
        if plan.analyzer_adjusted:
            self.bump("analyzer_added_buckets",
                      plan.num_buckets - plan.before_analyzer)
        num_buckets = plan.num_buckets
        table = SplitTable.hybrid_partitioning(
            num_buckets, self.join_sites, self.disk_nodes)
        if self.monitor is not None:
            self.monitor.check_split_table(
                table,
                expected_nodes=(
                    [n.node_id for n in self.join_sites]
                    + [n.node_id for n in self.disk_nodes]
                    if num_buckets > 1
                    else [n.node_id for n in self.join_sites]),
                phase="hybrid.form", num_buckets=num_buckets)

        forming_bank: FilterBank | None = None
        if (self.filter_policy is BitFilterPolicy.WITH_BUCKET_FORMING
                and num_buckets > 1):
            forming_bank = FilterBank(
                num_buckets,
                self.costs.filter_bits_per_site(max(2, num_buckets)))

        round0 = HashJoinRound(self, level=0, label="hybrid.b0")

        r_files = yield from self._partition_inner(table, round0,
                                                   forming_bank)
        yield from self.collect_site_state(
            round0.state_payload_bytes(),
            broadcast_nodes=self.disk_nodes,
            broadcast_bytes=(self.costs.filter_bytes
                             if round0.bank is not None else 64))
        s_files = yield from self._partition_outer(table, round0,
                                                   forming_bank)
        if forming_bank is not None:
            self.bump("forming_filter_eliminated",
                      forming_bank.total_eliminated)
        round0.finish()
        yield from resolve_overflow(self, round0, depth=0,
                                    label="hybrid.b0")
        del round0  # bucket 0 is joined: nothing of it is read again

        for bucket in range(1, num_buckets):
            yield from run_round(
                self,
                r_sources=take_bucket(self.disk_nodes, r_files, bucket),
                s_sources=take_bucket(self.disk_nodes, s_files, bucket),
                level=0, depth=0, label=f"hybrid.b{bucket}")

    # ------------------------------------------------------------------
    # Phase 1: partition R, building bucket 1 on the fly
    # ------------------------------------------------------------------

    def _partition_inner(self, table: SplitTable, round0: HashJoinRound,
                         forming_bank: FilterBank | None
                         ) -> typing.Generator:
        stat = self.phase("hybrid.formR")
        machine = self.machine
        costs = self.costs
        num_buckets = table.num_buckets()
        tuple_bytes = self.inner.schema.tuple_bytes
        build_port = machine.fresh_port("hybrid.b0.build")
        temp_port = machine.fresh_port("hybrid.formR.temp")
        r_files = self._bucket_files("R", tuple_bytes, num_buckets)

        producers: list[tuple[Node, typing.Generator]] = []
        for d, node in enumerate(self.disk_nodes):
            build_router = Router(machine, node, self.join_sites,
                                  build_port, tuple_bytes)
            routers = [build_router]
            temp_router = None
            if num_buckets > 1:
                temp_router = Router(machine, node, self.disk_nodes,
                                     temp_port, tuple_bytes)
                routers.append(temp_router)
            route_page = self._inner_route_page(
                table, build_router, temp_router, forming_bank,
                self.spec.inner_predicate, self.inner.fragments[d])
            producers.append((node, scan_pages(
                machine, node,
                fragment_pages(self.inner.fragments[d],
                               costs.tuples_per_page(tuple_bytes)),
                routers, route_page=route_page)))

        consumers: list[tuple[Node, typing.Generator]] = [
            (site, round0.build_consumer(j, build_port,
                                         len(self.disk_nodes)))
            for j, site in enumerate(self.join_sites)]
        consumers.extend(round0.overflow_writers(
            build_port + ".Rp", "R",
            n_producers_fn=round0.builders_hosted_at))
        if num_buckets > 1:
            consumers.extend(self._temp_writers(temp_port, r_files))
        yield from self.scheduler.execute_phase(
            "hybrid.formR", producers, consumers,
            split_table_bytes=table.table_bytes)
        self.end_phase(stat)
        return r_files

    def _inner_route_page(self, table: SplitTable, build_router: Router,
                          temp_router: Router | None,
                          forming_bank: FilterBank | None,
                          predicate: typing.Callable[[Row], bool] | None,
                          fragment: typing.Sequence[Row]
                          ) -> typing.Callable:
        """Page-level combined partition/build route: one
        ``give_batch`` per router per page; per-row float accumulation
        order matches the per-tuple contract."""
        costs = self.costs
        tuple_scan = costs.tuple_scan
        per_tuple = costs.tuple_hash + costs.tuple_move
        filter_set = costs.filter_set
        key_index = self.inner_key
        hasher = self.hasher(0)
        n_entries = len(table)
        if forming_bank is None and predicate is None:
            column = kernels.resolve_column(
                self.machine, fragment, None, key_index, 0,
                self.spec.hash_family)
            if column is not None:
                return kernels.vector_hybrid_inner_route(
                    self.machine.dataplane, column, build_router,
                    temp_router,
                    [e.node.node_id for e in table.entries],
                    [e.bucket for e in table.entries],
                    tuple_scan, per_tuple)
        # Without a forming filter the cost is per_tuple on both
        # branches, so the page CPU comes from a prefix table; the
        # loop still splits destinations between the two routers.
        cpu_for = (constant_page_cost(tuple_scan, per_tuple)
                   if forming_bank is None and predicate is None
                   else None)

        def route_page(page: typing.Sequence[Row]) -> float:
            cpu = 0.0
            b_dsts: list[int] = []
            b_rows: list[Row] = []
            b_hashes: list[int] = []
            t_dsts: list[int] = []
            t_rows: list[Row] = []
            t_hashes: list[int] = []
            t_buckets: list[int] = []
            if cpu_for is not None:
                for row in page:
                    h = hasher(row[key_index])
                    entry = table[h % n_entries]
                    if entry.bucket == 0:
                        b_dsts.append(entry.node.node_id)
                        b_rows.append(row)
                        b_hashes.append(h)
                    else:
                        assert temp_router is not None
                        t_dsts.append(entry.node.node_id)
                        t_rows.append(row)
                        t_hashes.append(h)
                        t_buckets.append(entry.bucket)
                cpu = cpu_for(len(page))
            else:
                for row in page:
                    cpu += tuple_scan
                    if predicate is not None and not predicate(row):
                        continue
                    h = hasher(row[key_index])
                    r = per_tuple
                    entry = table[h % n_entries]
                    if entry.bucket == 0:
                        b_dsts.append(entry.node.node_id)
                        b_rows.append(row)
                        b_hashes.append(h)
                    else:
                        if forming_bank is not None:
                            r += filter_set
                            forming_bank.set(entry.bucket, h)
                        assert temp_router is not None
                        t_dsts.append(entry.node.node_id)
                        t_rows.append(row)
                        t_hashes.append(h)
                        t_buckets.append(entry.bucket)
                    cpu += r
            if b_rows:
                build_router.give_batch(b_dsts, b_rows, b_hashes)
            if t_rows:
                temp_router.give_batch(t_dsts, t_rows, t_hashes,
                                       t_buckets)
            return cpu

        return kernels.counting_scalar(route_page, self.machine.dataplane)

    # ------------------------------------------------------------------
    # Phase 2: partition S, probing bucket 1 on the fly
    # ------------------------------------------------------------------

    def _partition_outer(self, table: SplitTable, round0: HashJoinRound,
                         forming_bank: FilterBank | None
                         ) -> typing.Generator:
        stat = self.phase("hybrid.formS")
        machine = self.machine
        costs = self.costs
        num_buckets = table.num_buckets()
        tuple_bytes = self.outer.schema.tuple_bytes
        probe_port = machine.fresh_port("hybrid.b0.probe")
        spool_port = probe_port + ".Sp"
        temp_port = machine.fresh_port("hybrid.formS.temp")
        s_files = self._bucket_files("S", tuple_bytes, num_buckets)
        spool_hosts = sorted({node.node_id for node in round0.host_of})
        store_consumers, store_port = self.store_writers(
            n_producers=len(self.join_sites))

        producers: list[tuple[Node, typing.Generator]] = []
        for d, node in enumerate(self.disk_nodes):
            probe_router = Router(machine, node, self.join_sites,
                                  probe_port, tuple_bytes)
            spool_router = Router(
                machine, node,
                [machine.nodes[n] for n in spool_hosts], spool_port,
                tuple_bytes)
            routers = [probe_router, spool_router]
            temp_router = None
            if num_buckets > 1:
                temp_router = Router(machine, node, self.disk_nodes,
                                     temp_port, tuple_bytes)
                routers.append(temp_router)
            route_page = self._outer_route_page(
                table, round0, probe_router, spool_router, temp_router,
                forming_bank, self.spec.outer_predicate,
                self.outer.fragments[d])
            producers.append((node, scan_pages(
                machine, node,
                fragment_pages(self.outer.fragments[d],
                               costs.tuples_per_page(tuple_bytes)),
                routers, route_page=route_page)))

        consumers: list[tuple[Node, typing.Generator]] = []
        for j, site in enumerate(self.join_sites):
            store_router = Router(machine, site, self.disk_nodes,
                                  store_port, self.result_tuple_bytes)
            consumers.append((site, round0.probe_consumer(
                j, probe_port, len(self.disk_nodes), store_router)))
        consumers.extend(round0.overflow_writers(
            spool_port, "S",
            n_producers_fn=lambda node: len(self.disk_nodes)))
        if num_buckets > 1:
            consumers.extend(self._temp_writers(temp_port, s_files))
        consumers.extend(store_consumers)
        yield from self.scheduler.execute_phase(
            "hybrid.formS", producers, consumers,
            split_table_bytes=table.table_bytes)
        self.end_phase(stat)
        return s_files

    def _outer_route_page(self, table: SplitTable, round0: HashJoinRound,
                          probe_router: Router, spool_router: Router,
                          temp_router: Router | None,
                          forming_bank: FilterBank | None,
                          predicate: typing.Callable[[Row], bool] | None,
                          fragment: typing.Sequence[Row]
                          ) -> typing.Callable:
        """Page-level combined partition/probe route: one
        ``give_batch`` per router per page; per-row float accumulation
        order matches the per-tuple contract."""
        costs = self.costs
        tuple_scan = costs.tuple_scan
        tuple_hash = costs.tuple_hash
        tuple_move = costs.tuple_move
        filter_test = costs.filter_test
        key_index = self.outer_key
        cutoffs = round0.cutoffs()
        bank = round0.bank
        host_ids = [host.node_id for host in round0.host_of]
        hasher = self.hasher(0)
        n_entries = len(table)
        if forming_bank is None and predicate is None:
            column = kernels.resolve_column(
                self.machine, fragment, None, key_index, 0,
                self.spec.hash_family)
            if column is not None:
                return kernels.vector_hybrid_outer_route(
                    self.machine.dataplane, column, probe_router,
                    spool_router, temp_router,
                    [e.node.node_id for e in table.entries],
                    [e.bucket for e in table.entries], host_ids,
                    cutoffs, bank, costs,
                    lambda n: self.bump("outer_tuples_spooled", n))
        # No filters, no cutoffs, no predicate: constant per-row cost
        # on every branch — page CPU from a prefix table.
        cpu_for = (constant_page_cost(tuple_scan,
                                      tuple_hash + tuple_move)
                   if (predicate is None and bank is None
                       and forming_bank is None
                       and all(c is None for c in cutoffs))
                   else None)

        def route_page(page: typing.Sequence[Row]) -> float:
            cpu = 0.0
            p_dsts: list[int] = []
            p_rows: list[Row] = []
            p_hashes: list[int] = []
            s_dsts: list[int] = []
            s_rows: list[Row] = []
            s_hashes: list[int] = []
            s_buckets: list[int] = []
            t_dsts: list[int] = []
            t_rows: list[Row] = []
            t_hashes: list[int] = []
            t_buckets: list[int] = []
            if cpu_for is not None:
                for row in page:
                    h = hasher(row[key_index])
                    entry = table[h % n_entries]
                    if entry.bucket == 0:
                        p_dsts.append(entry.node.node_id)
                        p_rows.append(row)
                        p_hashes.append(h)
                    else:
                        assert temp_router is not None
                        t_dsts.append(entry.node.node_id)
                        t_rows.append(row)
                        t_hashes.append(h)
                        t_buckets.append(entry.bucket)
                if p_rows:
                    probe_router.give_batch(p_dsts, p_rows, p_hashes)
                if t_rows:
                    temp_router.give_batch(t_dsts, t_rows, t_hashes,
                                           t_buckets)
                return cpu_for(len(page))
            for row in page:
                cpu += tuple_scan
                if predicate is not None and not predicate(row):
                    continue
                h = hasher(row[key_index])
                r = tuple_hash
                index = h % n_entries
                entry = table[index]
                if entry.bucket == 0:
                    site = index  # bucket-1 entries are the first J slots
                    if bank is not None:
                        r += filter_test
                        if not bank.test(site, h):
                            cpu += r
                            continue
                    cutoff = cutoffs[site]
                    r += tuple_move
                    if cutoff is not None and h >= cutoff:
                        s_dsts.append(host_ids[site])
                        s_rows.append(row)
                        s_hashes.append(h)
                        s_buckets.append(site)
                    else:
                        p_dsts.append(entry.node.node_id)
                        p_rows.append(row)
                        p_hashes.append(h)
                else:
                    if forming_bank is not None:
                        r += filter_test
                        if not forming_bank.test(entry.bucket, h):
                            cpu += r
                            continue
                    r += tuple_move
                    assert temp_router is not None
                    t_dsts.append(entry.node.node_id)
                    t_rows.append(row)
                    t_hashes.append(h)
                    t_buckets.append(entry.bucket)
                cpu += r
            if p_rows:
                probe_router.give_batch(p_dsts, p_rows, p_hashes)
            if s_rows:
                spool_router.give_batch(s_dsts, s_rows, s_hashes,
                                        s_buckets)
                self.bump("outer_tuples_spooled", len(s_rows))
            if t_rows:
                temp_router.give_batch(t_dsts, t_rows, t_hashes,
                                       t_buckets)
            return cpu

        return kernels.counting_scalar(route_page, self.machine.dataplane)

    # ------------------------------------------------------------------
    # Shared bits
    # ------------------------------------------------------------------

    def _bucket_files(self, which: str, tuple_bytes: int,
                      num_buckets: int) -> list[list[PagedFile | None]]:
        """files[disk][bucket] for buckets 1..N-1 (slot 0 unused).

        Bucket files carry their level-0 hash sidecar so the
        bucket-joining scans never rehash the key column."""
        return [
            [None] + [PagedFile(f"hy{which}.b{b}.d{d}", tuple_bytes,
                                self.costs.page_size,
                                hash_tag=(0, self.spec.hash_family))
                      for b in range(1, num_buckets)]
            for d in range(len(self.disk_nodes))]

    def _temp_writers(self, port: str,
                      files: list[list[PagedFile | None]]
                      ) -> list[tuple[Node, typing.Generator]]:
        consumers: list[tuple[Node, typing.Generator]] = []
        for d, node in enumerate(self.disk_nodes):
            node_files = files[d]
            real_files = [f for f in node_files if f is not None]
            consumers.append((node, tempfile_writer(
                self.machine, node, port, len(self.disk_nodes),
                select_file=lambda bucket, node_files=node_files:
                    node_files[bucket],
                stats=self.bucket_forming_writes,
                close_files=real_files)))
        return consumers
