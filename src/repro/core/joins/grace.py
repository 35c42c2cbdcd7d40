"""The parallel Grace hash-join (§3.3).

Three strictly separated phases:

1. **Bucket-forming R** — every disk node scans its fragment of the
   inner relation and splits it through the partitioning split table
   (``N`` buckets × ``D`` disks, bucket-major — Appendix A) into
   bucket fragment files, each bucket horizontally partitioned across
   all disks for maximum I/O bandwidth during bucket-joining.
2. **Bucket-forming S** — the outer relation, same table.
3. **Bucket-joining** — the N buckets are joined consecutively; each
   bucket join is one :func:`~repro.core.joins.common.run_round` over
   the bucket's fragment files (with the Simple overflow mechanism on
   standby, and a fresh 2 KB bit-filter packet per bucket when
   filtering is on).

Our implementation, like Gamma's, does not use Kitsuregawa's bucket
tuning: the optimizer picks N so each bucket is just under the
aggregate joining memory, then runs the Appendix A bucket analyzer.

The paper's proposed extension — bit filtering during bucket-forming —
is available as the ``WITH_BUCKET_FORMING`` filter policy (an
ablation; Gamma itself filters only while joining).
"""

from __future__ import annotations

import typing

from repro.core import kernels
from repro.core.bit_filter import FilterBank
from repro.core.joins.base import BitFilterPolicy, JoinDriver
from repro.core.joins.common import run_round, take_bucket
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


class GraceHashJoin(JoinDriver):
    """Bucket-form both relations to disk, then join bucket by bucket."""

    algorithm = "grace"

    def _execute(self) -> typing.Generator:
        plan = plan_buckets(
            "grace", self.inner.total_bytes, self.aggregate_memory,
            num_disks=len(self.disk_nodes),
            num_join_nodes=len(self.join_sites),
            policy=BucketPolicy(self.spec.bucket_policy),
            override=self.spec.num_buckets)
        self.num_buckets = plan.num_buckets
        if plan.analyzer_adjusted:
            self.bump("analyzer_added_buckets",
                      plan.num_buckets - plan.before_analyzer)
        table = SplitTable.grace_partitioning(plan.num_buckets,
                                              self.disk_nodes)
        if self.monitor is not None:
            self.monitor.check_split_table(
                table,
                expected_nodes=[n.node_id for n in self.disk_nodes],
                phase="grace.form", num_buckets=plan.num_buckets)

        forming_bank: FilterBank | None = None
        if self.filter_policy is BitFilterPolicy.WITH_BUCKET_FORMING:
            forming_bank = FilterBank(
                plan.num_buckets,
                self.costs.filter_bits_per_site(plan.num_buckets))

        r_files = yield from self._form_buckets(
            "R", self.inner, self.inner_key, table, forming_bank,
            build_filter=True)
        if forming_bank is not None:
            # Broadcast the forming filters to the S-scanning nodes.
            yield from self.collect_site_state(
                0, broadcast_nodes=self.disk_nodes,
                broadcast_bytes=self.costs.filter_bytes)
        s_files = yield from self._form_buckets(
            "S", self.outer, self.outer_key, table, forming_bank,
            build_filter=False)
        if forming_bank is not None:
            self.bump("forming_filter_eliminated",
                      forming_bank.total_eliminated)

        for bucket in range(plan.num_buckets):
            yield from run_round(
                self,
                r_sources=take_bucket(self.disk_nodes, r_files, bucket),
                s_sources=take_bucket(self.disk_nodes, s_files, bucket),
                level=0, depth=0, label=f"grace.b{bucket}")

    # ------------------------------------------------------------------

    def _form_buckets(self, which: str, relation, key_index: int,
                      table: SplitTable,
                      forming_bank: FilterBank | None,
                      build_filter: bool) -> typing.Generator:
        """One bucket-forming pass; returns files[disk][bucket]."""
        stat = self.phase(f"grace.form{which}")
        machine = self.machine
        costs = self.costs
        num_buckets = table.num_buckets()
        port = machine.fresh_port(f"grace.form{which}")
        tuple_bytes = relation.schema.tuple_bytes
        # Bucket files carry their level-0 hash sidecar so the
        # bucket-joining scans never rehash the key column.
        files: list[list[PagedFile | None]] = [
            [PagedFile(f"{which}.b{b}.d{d}", tuple_bytes, costs.page_size,
                       hash_tag=(0, self.spec.hash_family))
             for b in range(num_buckets)]
            for d in range(len(self.disk_nodes))]

        predicate = (self.spec.inner_predicate if which == "R"
                     else self.spec.outer_predicate)
        producers: list[tuple[Node, typing.Generator]] = []
        for d, node in enumerate(self.disk_nodes):
            router = Router(machine, node, self.disk_nodes, port,
                            tuple_bytes)
            route_page = self._forming_route_page(
                router, table, key_index, forming_bank, build_filter,
                predicate, relation.fragments[d])
            producers.append((node, scan_pages(
                machine, node,
                fragment_pages(relation.fragments[d],
                               costs.tuples_per_page(tuple_bytes)),
                [router], route_page=route_page)))
        consumers: list[tuple[Node, typing.Generator]] = []
        for d, node in enumerate(self.disk_nodes):
            node_files = files[d]
            consumers.append((node, tempfile_writer(
                machine, node, port, len(self.disk_nodes),
                select_file=lambda bucket, node_files=node_files:
                    node_files[bucket],
                stats=self.bucket_forming_writes,
                close_files=node_files)))
        yield from self.scheduler.execute_phase(
            f"grace.form{which}", producers, consumers,
            split_table_bytes=table.table_bytes)
        self.end_phase(stat)
        return files

    def _forming_route_page(self, router: Router, table: SplitTable,
                            key_index: int,
                            forming_bank: FilterBank | None,
                            build_filter: bool,
                            predicate: typing.Callable[[Row], bool] | None,
                            rows: typing.Sequence[Row]
                            ) -> typing.Callable:
        """Page-level bucket-forming route: one ``give_batch`` per
        page; per-row float accumulation order matches the per-tuple
        contract (scan cost, then the route's own sum ``r``)."""
        costs = self.costs
        tuple_scan = costs.tuple_scan
        tuple_hash = costs.tuple_hash
        tuple_move = costs.tuple_move
        filter_set = costs.filter_set
        filter_test = costs.filter_test
        lookup = table.lookup
        hasher = self.hasher(0)
        give_batch = router.give_batch

        if forming_bank is None and predicate is None:
            column = kernels.resolve_column(
                self.machine, rows, None, key_index, 0,
                self.spec.hash_family)
            if column is not None:
                return kernels.vector_simple_route(
                    self.machine.dataplane, column, router,
                    [e.node.node_id for e in table.entries],
                    [e.bucket for e in table.entries],
                    len(table), tuple_scan, tuple_hash + tuple_move)

        if forming_bank is None and predicate is None:
            # Constant per-row cost: prefix-table CPU + comprehensions.
            r_const = tuple_hash + tuple_move
            cpu_for = constant_page_cost(tuple_scan, r_const)

            def route_page(page: typing.Sequence[Row]) -> float:
                hashes = [hasher(row[key_index]) for row in page]
                entries = [lookup(h) for h in hashes]
                give_batch([e.node.node_id for e in entries], page,
                           hashes, [e.bucket for e in entries])
                return cpu_for(len(page))

            return kernels.counting_scalar(route_page,
                                           self.machine.dataplane)

        def route_page(page: typing.Sequence[Row]) -> float:
            cpu = 0.0
            dsts: list[int] = []
            rows: list[Row] = []
            hashes: list[int] = []
            buckets: list[int] = []
            for row in page:
                cpu += tuple_scan
                if predicate is not None and not predicate(row):
                    continue
                h = hasher(row[key_index])
                r = tuple_hash
                entry = lookup(h)
                if forming_bank is not None:
                    if build_filter:
                        r += filter_set
                        forming_bank.set(entry.bucket, h)
                    else:
                        r += filter_test
                        if not forming_bank.test(entry.bucket, h):
                            cpu += r
                            continue
                r += tuple_move
                dsts.append(entry.node.node_id)
                rows.append(row)
                hashes.append(h)
                buckets.append(entry.bucket)
                cpu += r
            if rows:
                give_batch(dsts, rows, hashes, buckets)
            return cpu

        return kernels.counting_scalar(route_page, self.machine.dataplane)
