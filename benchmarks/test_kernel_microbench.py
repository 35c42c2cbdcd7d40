"""Microbenchmark of the simulation kernel's hot loop.

A synthetic workload that touches every hot kernel path in roughly the
proportions a join sweep does: per-worker uncontended resource holds
(the grant-and-hold fast lane), periodic holds on one shared contended
resource (the waiter queue), and occasional plain timeouts.  No model
code is involved, so this isolates the event loop itself — regressions
here point straight at ``repro.sim``.

Timed by pytest-benchmark alongside the figure suites;
``benchmarks/bench_kernel.py`` records the same workload into the
``BENCH_kernel.json`` perf trajectory.
"""

from __future__ import annotations

from repro.sim import Simulator
from repro.sim.resources import Resource
from tests.sim.classic import classic_use

N_WORKERS = 8
N_OPS = 2000


def run_kernel_workload(n_workers: int = N_WORKERS,
                        n_ops: int = N_OPS,
                        classic: bool = False) -> Simulator:
    """Deterministic mixed contended/uncontended kernel workload.

    ``classic`` spells every resource use out as the long chain."""
    sim = Simulator()
    shared = Resource(sim, capacity=1, name="shared")

    def use(resource: Resource, duration: float):
        if classic:
            return classic_use(sim, resource, duration)
        return resource.use(duration)

    def worker(index: int):
        own = Resource(sim, capacity=1, name=f"own{index}")
        hold = 0.0001 * (index + 1)
        for op in range(n_ops):
            yield from use(own, hold)
            if op % 8 == 0:
                yield from use(shared, 0.0003)
            if op % 32 == 0:
                yield sim.timeout(0.001)

    for index in range(n_workers):
        sim.process(worker(index))
    sim.run()
    return sim


def test_kernel_microbench(benchmark):
    sim = benchmark(run_kernel_workload)
    counters = sim.kernel_counters()
    assert counters["queued_events"] == 0
    # Every op holds at least one event; the workload really ran.
    assert counters["events_fired"] > N_WORKERS * N_OPS
    assert counters["fastpath_holds"] > N_WORKERS * N_OPS


def test_kernel_workload_is_deterministic():
    first = run_kernel_workload(n_workers=4, n_ops=300)
    second = run_kernel_workload(n_workers=4, n_ops=300)
    assert repr(first.now) == repr(second.now)
    assert first.events_fired == second.events_fired


def test_use_matches_classic_clock():
    """Grant-and-hold may not move a single simulated timestamp."""
    fast = run_kernel_workload(n_workers=4, n_ops=300)
    classic = run_kernel_workload(n_workers=4, n_ops=300, classic=True)
    assert fast.fastpath_holds and not classic.fastpath_holds
    assert repr(fast.now) == repr(classic.now)


# -- data-plane microbenchmark ---------------------------------------------

DP_PAGES = 50
DP_PAGE_ROWS = 400
_DP_BITS = 4096
_DP_COSTS = (2.5e-6, 1.2e-6, 0.9e-6, 0.6e-6)  # receive/probe/link/move


def run_dataplane_workload(vector: bool | None = None,
                           n_pages: int = DP_PAGES,
                           page_rows: int = DP_PAGE_ROWS) -> dict:
    """Pure data-plane workload: hash / filter / build / probe.

    No simulator involved — this times the per-tuple arithmetic the
    vectorized data plane replaced, page by page: hash a key column,
    mark a bit filter, build a join hash table, then filter-screen and
    probe an overlapping outer stream with the consumer's exact CPU
    accounting.  ``vector=None`` runs the vector arm (the scalar arm
    on a revision without ``repro.core.kernels``); ``vector=False``
    pins the scalar arm, which uses only primitives that exist in
    pre-kernels revisions, so old/new samples can be recorded
    interleaved on one box.

    Returns a digest (hash checksum, filter counters, match count,
    accumulated CPU) that is bit-identical across both arms.
    """
    from repro import hashing
    from repro.core.bit_filter import BitFilter
    from repro.core.hash_table import JoinHashTable

    if vector is None:
        try:
            from repro.core import kernels  # noqa: F401
            vector = True
        except ImportError:  # pre-kernels revision baseline
            vector = False
    if vector:
        from repro.core import kernels

    n_build = n_pages * page_rows
    span = 3 * n_build // 2  # overlapping key ranges => real matches
    build_pages = [
        [((page * page_rows + i) * 13 % span, page, i)
         for i in range(page_rows)]
        for page in range(n_pages)]
    probe_pages = [
        [((page * page_rows + i) * 5 % span, page, i)
         for i in range(page_rows)]
        for page in range(n_pages)]

    bit_filter = BitFilter(_DP_BITS)
    table = JoinHashTable(capacity_tuples=n_build)
    tuple_receive, tuple_probe, tuple_chain_link, result_move = _DP_COSTS
    checksum = 0
    results: list = []
    cpu = 0.0

    for page in build_pages:
        if vector:
            hashes = kernels.hash_keys(
                [row[0] for row in page], 0).tolist()
            bit_filter.set_batch(hashes)
            table.insert_page(page, hashes)
        else:
            hashes = [hashing.hash_int(row[0]) for row in page]
            for hash_code, row in zip(hashes, page):
                bit_filter.set(hash_code)
                table.insert(row, hash_code)
        checksum = (checksum * 31 + sum(hashes)) % (1 << 61)

    for page in probe_pages:
        if vector:
            hashes = kernels.hash_keys(
                [row[0] for row in page], 0).tolist()
            hits = bit_filter.test_batch(hashes)
            rows = [row for row, hit in zip(page, hits) if hit]
            passing = [h for h, hit in zip(hashes, hits) if hit]
            cpu += table.probe_page(
                rows, passing, 0, 0, tuple_receive, tuple_probe,
                tuple_chain_link, result_move, results.append)
        else:
            hashes = [hashing.hash_int(row[0]) for row in page]
            # Page-local accumulator, added to the total once per page
            # — the same float-addition grouping probe_page uses, so
            # the digests match bit-for-bit.
            page_cpu = 0.0
            for hash_code, row in zip(hashes, page):
                if not bit_filter.test(hash_code):
                    continue
                page_cpu += tuple_receive
                matches, chain_length = table.probe(
                    hash_code, row[0], 0)
                if chain_length <= 1:
                    page_cpu += tuple_probe
                else:
                    page_cpu += (tuple_probe
                                 + (chain_length - 1) * tuple_chain_link)
                for match in matches:
                    page_cpu += result_move
                    results.append(match + row)
            cpu += page_cpu
        checksum = (checksum * 31 + sum(hashes)) % (1 << 61)

    return {
        "hash_checksum": checksum,
        "filter_bits_set": bit_filter.bits_set,
        "filter_tests": bit_filter.tests,
        "filter_passed": bit_filter.passed,
        "inserted": table.total_inserted,
        "matches": len(results),
        "result_checksum": hash(tuple(results[:1000])),
        "cpu": repr(cpu),
    }


def test_dataplane_microbench(benchmark):
    digest = benchmark(run_dataplane_workload)
    assert digest["inserted"] == DP_PAGES * DP_PAGE_ROWS
    assert digest["matches"] > 0


def test_dataplane_vector_matches_scalar():
    """Batch arm and scalar arm produce bit-identical digests —
    same hashes, same filter verdicts/counters, same joined rows,
    same accumulated CPU float."""
    assert (run_dataplane_workload(vector=True, n_pages=8)
            == run_dataplane_workload(vector=False, n_pages=8))


# -- columnar storage microbenchmark ---------------------------------------

COL_SCALE = 1.0


def run_columnar_workload(columnar: bool | None = None,
                          scale: float = COL_SCALE) -> dict:
    """Bulk data-plane workload over the relation storage.

    Times the phases where the representation itself does the work —
    no simulator, no per-packet routing: Wisconsin generation
    (column arrays vs a per-row Python loop), the declustered load
    (vectorized ``sites_of`` vs per-row ``site_of``), a full sort of
    every fragment (``np.lexsort`` vs ``sorted``), and a key-column
    extraction per fragment.  ``columnar=None`` follows
    ``REPRO_COLUMNAR``.

    Returns a digest (cardinalities plus checksums over the sorted
    key columns) that is bit-identical across both representations.
    """
    import os

    from repro.catalog.pages import columnar_enabled
    from repro.storage.sort import sort_rows
    from repro.wisconsin.database import WisconsinDatabase

    if columnar is None:
        columnar = columnar_enabled()
    saved = os.environ.get("REPRO_COLUMNAR")
    os.environ["REPRO_COLUMNAR"] = "1" if columnar else "0"
    try:
        db = WisconsinDatabase.joinabprime(8, scale=scale, seed=7)
    finally:
        if saved is None:
            os.environ.pop("REPRO_COLUMNAR", None)
        else:
            os.environ["REPRO_COLUMNAR"] = saved

    key = db.outer.attribute_index("unique1")
    checksum = 0
    cardinality = 0
    for relation in (db.outer, db.inner):
        for fragment in relation.fragments:
            ordered = sort_rows(fragment, key)
            values = (ordered.column_values(key)
                      if hasattr(ordered, "column_values")
                      else [row[key] for row in ordered])
            cardinality += len(values)
            for value in values[:64]:
                checksum = (checksum * 31 + value) % (1 << 61)
            checksum = (checksum * 31 + sum(values)) % (1 << 61)
    return {
        "columnar": bool(columnar),
        "cardinality": cardinality,
        "outer_fragments": db.outer.num_fragments,
        "key_checksum": checksum,
    }


def test_columnar_microbench(benchmark):
    digest = benchmark(run_columnar_workload, scale=0.2)
    assert digest["cardinality"] == round(100_000 * 0.2) + \
        round(10_000 * 0.2)


def test_columnar_matches_tuple():
    """Both representations generate, decluster, and sort the same
    rows to the same order — the digests match except for the arm
    marker."""
    page_arm = run_columnar_workload(columnar=True, scale=0.05)
    tuple_arm = run_columnar_workload(columnar=False, scale=0.05)
    assert page_arm.pop("columnar") is True
    assert tuple_arm.pop("columnar") is False
    assert page_arm == tuple_arm
