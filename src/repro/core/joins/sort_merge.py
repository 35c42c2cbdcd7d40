"""The parallel sort-merge join (§3.1).

The Teradata-style adaptation of the classic algorithm:

1. R is partitioned through a hash split table (one entry per disk
   node) into per-site temporary files;
2. each site sorts its R file in parallel (external merge sort within
   the experiment's memory budget — the source of the response-curve
   steps);
3. S is partitioned and sorted the same way (serially, after R, both
   to avoid disk-head/network contention and because the bit filters
   built from R must be complete before S can be screened);
4. a local merge join at every disk site computes the result — tuples
   were co-partitioned by the same hash function, so only local
   fragments can join.

Join sites are always the disk sites: the paper's implementation
cannot use diskless processors (backing up the inner scan over
duplicates is impractical remotely), so the ``remote`` configuration
is rejected.

With bit filters enabled, a filter is built at each disk site as the
inner relation arrives (step 1) and tested at the producing sites
while S is partitioned — eliminated S tuples are never transmitted,
stored, or sorted, which is why sort-merge gains the most from
filtering (Table 4).  The §4.4 early-termination effect is also
modelled: the merge stops reading a sorted input once the other side
is exhausted and can no longer match, which is how the skewed-inner
(NU) joins come out *faster* than uniform ones.
"""

from __future__ import annotations

import math
import typing

from repro.catalog.pages import ColumnPage, take_rows
from repro.core import kernels
from repro.core.bit_filter import FilterBank
from repro.core.joins.base import JoinConfigError, JoinDriver
from repro.engine.node import Node
from repro.engine.operators.routing import Router
from repro.engine.operators.scan import (
    constant_page_cost,
    fragment_pages,
    scan_pages,
)
from repro.engine.operators.writers import tempfile_writer
from repro.storage.files import PagedFile
from repro.storage.sort import plan_external_sort, sort_rows

Row = typing.Tuple


class SortMergeJoin(JoinDriver):
    """Redistribute, sort in parallel, merge locally."""

    algorithm = "sort-merge"

    def __init__(self, machine, outer, inner, spec) -> None:
        super().__init__(machine, outer, inner, spec)
        if self.spec.configuration != "local":
            raise JoinConfigError(
                "the sort-merge implementation cannot utilise diskless "
                "processors (§3.1); use configuration='local'")

    # ------------------------------------------------------------------

    def _execute(self) -> typing.Generator:
        num_sites = len(self.disk_nodes)
        bank: FilterBank | None = (
            FilterBank.sized_for(num_sites, self.costs)
            if self.filter_policy.active else None)

        r_files = yield from self._partition(
            "R", self.inner, self.inner_key, build_bank=bank,
            test_bank=None)
        if bank is not None:
            yield from self.collect_site_state(
                self.costs.filter_bytes // num_sites + 32,
                broadcast_nodes=self.disk_nodes,
                broadcast_bytes=self.costs.filter_bytes)
        sorted_r = yield from self._sort_all("R", r_files, self.inner_key)

        s_files = yield from self._partition(
            "S", self.outer, self.outer_key, build_bank=None,
            test_bank=bank)
        sorted_s = yield from self._sort_all("S", s_files, self.outer_key)

        yield from self._merge_join(sorted_r, sorted_s)
        if bank is not None:
            bank.merge_counters_into(self.counters)

    # ------------------------------------------------------------------
    # Phase 1/3: redistribution by hash
    # ------------------------------------------------------------------

    def _partition(self, which: str, relation, key_index: int,
                   build_bank: FilterBank | None,
                   test_bank: FilterBank | None) -> typing.Generator:
        """Redistribute a relation across the disk sites by join hash.

        ``build_bank`` makes the receiving writers set filter bits
        (inner relation); ``test_bank`` makes the producing scanners
        screen tuples before transmission (outer relation).
        """
        stat = self.phase(f"sort-merge.part{which}")
        machine = self.machine
        costs = self.costs
        port = machine.fresh_port(f"sm.part{which}")
        tuple_bytes = relation.schema.tuple_bytes
        files = [PagedFile(f"sm.{which}.d{d}", tuple_bytes,
                           costs.page_size)
                 for d in range(len(self.disk_nodes))]

        predicate = (self.spec.inner_predicate if which == "R"
                     else self.spec.outer_predicate)
        producers: list[tuple[Node, typing.Generator]] = []
        for d, node in enumerate(self.disk_nodes):
            router = Router(machine, node, self.disk_nodes, port,
                            tuple_bytes)
            route_page = self._partition_route_page(
                router, key_index, test_bank, predicate,
                relation.fragments[d])
            producers.append((node, scan_pages(
                machine, node,
                fragment_pages(relation.fragments[d],
                               costs.tuples_per_page(tuple_bytes)),
                [router], route_page=route_page)))
        consumers: list[tuple[Node, typing.Generator]] = []
        for d, node in enumerate(self.disk_nodes):
            batch_hook = None
            if build_bank is not None:
                batch_hook = kernels.writer_filter_hook(
                    build_bank[d], costs.tuple_store, costs.filter_set)
            consumers.append((node, tempfile_writer(
                machine, node, port, len(self.disk_nodes),
                select_file=lambda bucket, file=files[d]: file,
                stats=self.bucket_forming_writes,
                close_files=[files[d]],
                batch_hook=batch_hook)))
        yield from self.scheduler.execute_phase(
            f"sm.part{which}", producers, consumers,
            split_table_bytes=len(self.disk_nodes) * 40)
        self.end_phase(stat)
        return files

    def _partition_route_page(self, router: Router, key_index: int,
                              test_bank: FilterBank | None,
                              predicate: typing.Callable[[Row], bool] | None,
                              fragment: typing.Sequence[Row]
                              ) -> typing.Callable:
        """Page-level range-partitioning route: one ``give_batch`` per
        page; per-row float accumulation order matches the per-tuple
        contract."""
        costs = self.costs
        tuple_scan = costs.tuple_scan
        tuple_hash = costs.tuple_hash
        tuple_move = costs.tuple_move
        filter_test = costs.filter_test
        num_sites = len(self.disk_nodes)
        node_ids = [node.node_id for node in self.disk_nodes]
        hasher = self.hasher(0)
        give_batch = router.give_batch

        if predicate is None:
            column = kernels.resolve_column(
                self.machine, fragment, None, key_index, 0,
                self.spec.hash_family)
            if column is not None:
                if test_bank is None:
                    return kernels.vector_simple_route(
                        self.machine.dataplane, column, router,
                        node_ids, None, num_sites, tuple_scan,
                        tuple_hash + tuple_move)
                return kernels.vector_probe_route(
                    self.machine.dataplane, column, router, None,
                    node_ids, None, num_sites,
                    [None] * num_sites, test_bank, costs, None)

        if test_bank is None and predicate is None:
            # Constant per-row cost: prefix-table CPU + comprehensions.
            r_const = tuple_hash + tuple_move
            cpu_for = constant_page_cost(tuple_scan, r_const)

            def route_page(page: typing.Sequence[Row]) -> float:
                hashes = [hasher(row[key_index]) for row in page]
                give_batch([node_ids[h % num_sites] for h in hashes],
                           page, hashes)
                return cpu_for(len(page))

            return kernels.counting_scalar(route_page,
                                           self.machine.dataplane)

        def route_page(page: typing.Sequence[Row]) -> float:
            cpu = 0.0
            dsts: list[int] = []
            rows: list[Row] = []
            hashes: list[int] = []
            for row in page:
                cpu += tuple_scan
                if predicate is not None and not predicate(row):
                    continue
                h = hasher(row[key_index])
                r = tuple_hash
                site = h % num_sites
                if test_bank is not None:
                    r += filter_test
                    if not test_bank.test(site, h):
                        cpu += r
                        continue
                r += tuple_move
                dsts.append(node_ids[site])
                rows.append(row)
                hashes.append(h)
                cpu += r
            if rows:
                give_batch(dsts, rows, hashes)
            return cpu

        return kernels.counting_scalar(route_page, self.machine.dataplane)

    # ------------------------------------------------------------------
    # Phase 2/4: parallel local external sorts
    # ------------------------------------------------------------------

    def _sort_all(self, which: str, files: list[PagedFile],
                  key_index: int) -> typing.Generator:
        """Sort every site's file in parallel; returns sorted row lists."""
        stat = self.phase(f"sort-merge.sort{which}")
        memory_per_node = self.aggregate_memory // len(self.disk_nodes)
        sorted_rows: list[typing.Sequence[Row] | None] = (
            [None] * len(self.disk_nodes))
        pass_counts: list[int] = []
        yield from self.scheduler.start_operators(self.disk_nodes)
        processes = []
        for d, node in enumerate(self.disk_nodes):
            processes.append(self.machine.sim.process(
                self._sort_node(d, node, files[d], key_index,
                                memory_per_node, sorted_rows,
                                pass_counts),
                name=f"sort.{which}.{node.name}"))
        yield self.machine.sim.all_of(processes)
        yield from self.scheduler.collect_done(self.disk_nodes)
        self.end_phase(stat)
        self.bump(f"sort_{which}_passes", max(pass_counts, default=0))
        return [rows if rows is not None else []
                for rows in sorted_rows]

    def _sort_node(self, index: int, node: Node, file: PagedFile,
                   key_index: int, memory_bytes: int,
                   out: list, pass_counts: list[int]) -> typing.Generator:
        """External merge sort of one site's file (WiSS sort utility)."""
        costs = self.costs
        plan = plan_external_sort(file.num_tuples, file.tuple_bytes,
                                  memory_bytes, costs)
        pass_counts.append(plan.merge_passes)
        disk = node.require_disk()
        if plan.input_pages == 0:
            out[index] = []
            return
        # Run formation: read a memory-load, sort it, write the run.
        run_cpu_total = plan.cpu_seconds(costs)
        merge_cpu = 0.0
        if plan.merge_passes:
            per_pass = plan.n_tuples * (
                costs.sort_tuple_overhead
                + costs.sort_compare
                * max(1, math.ceil(math.log2(plan.fan_in))))
            merge_cpu = per_pass
            run_cpu_total -= per_pass * plan.merge_passes
        pages_left = plan.input_pages
        cpu_per_page = run_cpu_total / plan.input_pages
        while pages_left > 0:
            chunk = min(plan.memory_pages, pages_left)
            yield from disk.read_pages(chunk, sequential=True)
            yield from node.cpu_use(cpu_per_page * chunk)
            yield from disk.write_pages(chunk, sequential=True)
            pages_left -= chunk
        # Merge passes: read + CPU + write, one full pass at a time.
        for _pass in range(plan.merge_passes):
            yield from disk.read_pages(plan.input_pages, sequential=True)
            yield from node.cpu_use(merge_cpu)
            yield from disk.write_pages(plan.input_pages, sequential=True)
        mon = self.monitor
        if mon is not None:
            io_pages = plan.input_pages * (1 + plan.merge_passes)
            mon.note_page_reads(node.node_id, io_pages)
            mon.note_page_writes(node.node_id, io_pages)
        out[index] = sort_rows(file.rows, key_index)

    # ------------------------------------------------------------------
    # Phase 5: parallel local merge join
    # ------------------------------------------------------------------

    def _merge_join(self, sorted_r: list[typing.Sequence[Row]],
                    sorted_s: list[typing.Sequence[Row]]
                    ) -> typing.Generator:
        stat = self.phase("sort-merge.merge")
        machine = self.machine
        store_consumers, store_port = self.store_writers(
            n_producers=len(self.disk_nodes))
        producers: list[tuple[Node, typing.Generator]] = []
        for d, node in enumerate(self.disk_nodes):
            store_router = Router(machine, node, self.disk_nodes,
                                  store_port, self.result_tuple_bytes)
            producers.append((node, self._merge_node(
                node, sorted_r[d], sorted_s[d], store_router)))
        yield from self.scheduler.execute_phase(
            "sm.merge", producers, store_consumers,
            split_table_bytes=len(self.disk_nodes) * 40)
        self.end_phase(stat)

    def _merge_node(self, node: Node, r_rows: typing.Sequence[Row],
                    s_rows: typing.Sequence[Row], store_router: Router
                    ) -> typing.Generator:
        """Merge-join one site's sorted fragments.

        Reads both sorted files page by page (charging sequential
        I/O), backs up over duplicate outer values, and stops early
        once the exhausted side's maximum can no longer match — the
        §4.4 skipped-read effect.

        The merge cursors walk plain Python key-value lists (one
        column extraction per side) and record each outer page's match
        positions; the page's joined rows are then gathered from both
        sides in one call each and routed as one batch before the
        page's flush, so only the row tuples that actually join are
        ever materialized.
        """
        costs = self.costs
        disk = node.require_disk()
        r_key = self.inner_key
        s_key = self.outer_key
        r_tpp = costs.tuples_per_page(self.inner.schema.tuple_bytes)
        s_tpp = costs.tuples_per_page(self.outer.schema.tuple_bytes)
        n_r = len(r_rows)
        n_s = len(s_rows)
        r_keys = (r_rows.column_values(r_key)
                  if isinstance(r_rows, ColumnPage)
                  else [row[r_key] for row in r_rows])
        s_keys = (s_rows.column_values(s_key)
                  if isinstance(s_rows, ColumnPage)
                  else [row[s_key] for row in s_rows])
        r_max = r_keys[-1] if r_keys else None
        r_index = 0
        r_pages_read = 0
        s_pages_read = 0
        s_consumed = 0
        stopped_early = False

        for s_start in range(0, n_s, s_tpp):
            if stopped_early:
                break
            s_end = min(s_start + s_tpp, n_s)
            yield from disk.read_pages(1, sequential=True)
            s_pages_read += 1
            cpu = 0.0
            r_at: list[int] = []
            s_at: list[int] = []
            for s_i in range(s_start, s_end):
                s_consumed += 1
                value = s_keys[s_i]
                if r_max is None or value > r_max:
                    # Inner exhausted below this value: nothing in the
                    # remainder of S can join — stop reading (§4.4).
                    stopped_early = True
                    cpu += costs.sort_compare
                    break
                cpu += costs.tuple_scan
                while r_index < n_r and r_keys[r_index] < value:
                    r_index += 1
                    cpu += costs.sort_compare + costs.sort_tuple_overhead
                # Charge inner page reads as the cursor crosses pages.
                needed_pages = -(-max(r_index, 1) // r_tpp)
                if needed_pages > r_pages_read:
                    yield from node.cpu_use(cpu)
                    cpu = 0.0
                    yield from disk.read_pages(
                        needed_pages - r_pages_read, sequential=True)
                    r_pages_read = needed_pages
                # Backup over duplicates: scan the run of equal keys.
                probe = r_index
                while probe < n_r and r_keys[probe] == value:
                    cpu += (costs.sort_compare + costs.tuple_result
                            + costs.tuple_move)
                    r_at.append(probe)
                    s_at.append(s_i)
                    probe += 1
                cpu += costs.sort_compare
            if r_at:
                store_router.give_round_robin_batch(
                    [r + s for r, s in zip(take_rows(r_rows, r_at),
                                           take_rows(s_rows, s_at))])
            yield from node.cpu_use(cpu)
            yield from store_router.flush_ready()

        if stopped_early:
            skipped = len(s_rows) - s_consumed
            self.bump("merge_outer_tuples_skipped", skipped)
        # Pages of the inner never reached (outer exhausted early).
        total_r_pages = -(-len(r_rows) // r_tpp) if r_rows else 0
        if total_r_pages > r_pages_read:
            self.bump("merge_inner_pages_skipped",
                      total_r_pages - r_pages_read)
        mon = self.monitor
        if mon is not None:
            mon.note_page_reads(node.node_id, s_pages_read + r_pages_read)
        yield from store_router.close()
