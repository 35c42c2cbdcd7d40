"""Frozen layer micro-drivers: one layer's public calls, nothing else.

Each driver is the ledger's own copy of a loop, at a fixed size, so a
later PR that edits ``benchmarks/test_kernel_microbench.py`` does not
move these numbers.  A driver returns a digest that must repeat
exactly; ``run_all`` times each one untraced and reports the median.

* ``sim.micro_kernel_s`` — the event kernel: uncontended holds, one
  contended shared resource, occasional timeouts (8 workers x 2000
  operations).
* ``sim.micro_scheduler_s`` — the scheduler: 50 000 sleepers with
  distinct deadlines, re-armed twice (the calendar queue's regime).
* ``core.micro_dataplane_s`` — hash / bit-filter / build / probe over
  50 pages of 400 rows, batch kernels, no simulator.
* ``catalog.micro_page_slice_s`` — ``ColumnPage`` slice, ``take`` and
  ``concat`` at 9-row (2 KB packets of 208-byte tuples) and 39-row
  (8 KiB packets) granularity.
"""

from __future__ import annotations

import gc
import statistics
import time

import numpy as np

from repro.catalog.pages import ColumnPage, ConstColumn
from repro.core import kernels
from repro.core.bit_filter import BitFilter
from repro.core.hash_table import JoinHashTable
from repro.sim import Simulator
from repro.sim.resources import Resource

KERNEL_WORKERS = 8
KERNEL_OPS = 2000
SCHED_PENDING = 50000
SCHED_ROUNDS = 2
DP_PAGES = 50
DP_PAGE_ROWS = 400
DP_BITS = 4096
#: receive / probe / chain link / result move CPU seconds per tuple.
DP_COSTS = (2.5e-6, 1.2e-6, 0.9e-6, 0.6e-6)
PAGE_ROWS = 20000
PAGE_INT_COLUMNS = 13
PAGE_CONST_COLUMNS = 3
PACKET_ROWS = (9, 39)


def kernel() -> dict:
    sim = Simulator()
    shared = Resource(sim, capacity=1, name="shared")

    def worker(index: int):
        own = Resource(sim, capacity=1, name=f"own{index}")
        hold = 0.0001 * (index + 1)
        for op in range(KERNEL_OPS):
            yield from own.use(hold)
            if op % 8 == 0:
                yield from shared.use(0.0003)
            if op % 32 == 0:
                yield sim.timeout(0.001)

    for index in range(KERNEL_WORKERS):
        sim.process(worker(index))
    sim.run()
    return {"now": repr(sim.now), "events_fired": sim.events_fired}


def scheduler() -> dict:
    sim = Simulator()

    def sleeper(index: int):
        delay = 0.001 * (index + 1)
        for _ in range(SCHED_ROUNDS):
            yield sim.timeout(delay)

    for index in range(SCHED_PENDING):
        sim.process(sleeper(index))
    sim.run()
    return {"now": repr(sim.now), "events_fired": sim.events_fired}


def dataplane() -> dict:
    n_build = DP_PAGES * DP_PAGE_ROWS
    span = 3 * n_build // 2  # overlapping key ranges => real matches
    build_pages = [
        [((page * DP_PAGE_ROWS + i) * 13 % span, page, i)
         for i in range(DP_PAGE_ROWS)]
        for page in range(DP_PAGES)]
    probe_pages = [
        [((page * DP_PAGE_ROWS + i) * 5 % span, page, i)
         for i in range(DP_PAGE_ROWS)]
        for page in range(DP_PAGES)]
    bit_filter = BitFilter(DP_BITS)
    table = JoinHashTable(capacity_tuples=n_build)
    checksum = 0
    results: list = []
    cpu = 0.0
    for page in build_pages:
        hashes = kernels.hash_keys([row[0] for row in page], 0).tolist()
        bit_filter.set_batch(hashes)
        table.insert_page(page, hashes)
        checksum = (checksum * 31 + sum(hashes)) % (1 << 61)
    for page in probe_pages:
        hashes = kernels.hash_keys([row[0] for row in page], 0).tolist()
        hits = bit_filter.test_batch(hashes)
        rows = [row for row, hit in zip(page, hits) if hit]
        passing = [h for h, hit in zip(hashes, hits) if hit]
        cpu += table.probe_page(rows, passing, 0, 0, *DP_COSTS,
                                results.append)
        checksum = (checksum * 31 + sum(hashes)) % (1 << 61)
    return {"hash_checksum": checksum,
            "filter_passed": bit_filter.passed,
            "inserted": table.total_inserted,
            "matches": len(results),
            "cpu": repr(cpu)}


def _wisconsin_like_page() -> ColumnPage:
    base = np.arange(PAGE_ROWS, dtype=np.int64)
    cols: list = [(base * (3 + 2 * j)) % (PAGE_ROWS + j)
                  for j in range(PAGE_INT_COLUMNS)]
    cols += [ConstColumn("")] * PAGE_CONST_COLUMNS
    return ColumnPage.from_columns(cols)


def page_slice() -> dict:
    page = _wisconsin_like_page()
    rows = 0
    checksum = 0
    for packet in PACKET_ROWS:
        cuts = [page[start:start + packet]
                for start in range(0, PAGE_ROWS, packet)]
        rows += sum(len(cut) for cut in cuts)
        # Route-style gather: every eighth row of each packet run.
        order = np.arange(0, PAGE_ROWS, 8)
        for start in range(0, len(order), packet):
            taken = page.take(order[start:start + packet])
            checksum += taken.column_array(0)[-1].item()
        # Packets reassembled into 64-packet runs (spool reads).
        for start in range(0, len(cuts), 64):
            rows += len(ColumnPage.concat(cuts[start:start + 64]))
    return {"rows": rows, "checksum": checksum, "last": page[-1][:2]}


DRIVERS: dict = {
    "sim.micro_kernel_s": kernel,
    "sim.micro_scheduler_s": scheduler,
    "core.micro_dataplane_s": dataplane,
    "catalog.micro_page_slice_s": page_slice,
}


def run_all(reps: int) -> tuple[dict, list]:
    """``({metric: median seconds}, [metric whose digest moved])``."""
    medians = {}
    unstable = []
    for name, driver in DRIVERS.items():
        first = driver()  # warm-up, and the digest to repeat
        times = []
        for _ in range(reps):
            gc.collect()
            start = time.perf_counter()
            digest = driver()
            times.append(time.perf_counter() - start)
            if digest != first and name not in unstable:
                unstable.append(name)
        medians[name] = statistics.median(times)
    return medians, unstable
