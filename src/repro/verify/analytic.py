"""Appendix-A-style analytic cost model (``repro.verify.analytic``).

The paper's Appendix A predicts join response times from closed-form
arithmetic over catalog statistics and calibrated cost constants.
This module does the same for the simulator: given the relation
cardinalities, tuple widths, machine shape and a
:class:`~repro.costs.CostModel`, it predicts the duration of **every
named phase** of each of the four algorithms, and :func:`assess`
cross-checks a simulated :class:`~repro.core.joins.base.JoinResult`
against those predictions.

The model is deliberately *analytic*, not a replay: per-phase work is
aggregated per node class (uniform-hash assumption) and the elapsed
time of a pipelined phase is bracketed between

* ``lower`` — the busiest single resource (no node can finish before
  its own CPU or disk demand, and a producer's scan alternates page
  reads with routing CPU, so its own disk + CPU chain is serial), and
* ``upper`` — full serialisation of the busiest node's CPU and disk,

with the midpoint reported as the prediction.  Serial costs (scheduler
start-up/completion messages, split-table fragmentation, control
rounds) are computed exactly — they are pure arithmetic in the
simulator too, including the §4.1 effect where a partitioning split
table larger than one 2 KB packet ships in pieces.

Model scope (``assess`` returns ``None`` outside it): uniform
workloads without selection predicates, bit filters, hash-table
overflow or probe-side spooling, on the shared ``token-ring``
interconnect (any registered hardware profile — every cost constant
comes from the active :class:`~repro.costs.CostModel`, split-table
sizes from :data:`~repro.core.split_table.SPLIT_ENTRY_BYTES`, and
node counts from the machine shape; the routed topologies break the
shared-medium lower bound and are explicitly out of
scope).  Within scope the model tracks the
simulator to within :data:`REL_TOLERANCE` of each phase (plus
:func:`abs_tolerance` seconds of floor for sub-second phases) — the
band is calibrated in ``tests/verify/test_analytic.py`` and breached
predictions raise :class:`~repro.verify.ConformanceError`.
"""

from __future__ import annotations

import dataclasses
import math
import typing

from repro.core.split_table import SPLIT_ENTRY_BYTES
from repro.costs import DEFAULT_COSTS, CostModel
from repro.network.combining import CombiningTree, engages
from repro.verify import ConformanceError

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.joins.base import JoinResult
    from repro.engine.machine import GammaMachine
    from repro.wisconsin.database import WisconsinDatabase

#: Documented per-phase relative tolerance band of the model.
#: Calibration (scales 0.02/0.05 × hpja on/off × local/remote × all
#: four algorithms × the Figure 5 memory ratios, 968 phase
#: comparisons) observed a worst-case per-phase error of 10.2% and a
#: worst-case whole-query error of 3.3%; the band is set at roughly
#: twice the observed worst case.
REL_TOLERANCE = 0.20
#: Absolute floor (seconds) on ``gamma-1989`` — protects sub-second
#: phases, whose durations are dominated by per-message scheduling
#: granularity.  Other profiles get :func:`abs_tolerance`.
ABS_TOLERANCE = 0.25


def abs_tolerance(costs: CostModel) -> float:
    """The absolute floor for ``costs``: :data:`ABS_TOLERANCE` scaled
    by the profile's per-message protocol cost relative to the
    calibration profile's, so the floor stays a handful of messages
    wide (exactly 0.25 s on ``gamma-1989``, ~60 µs on ``modern-2018``)
    instead of swallowing a fast profile's whole phases."""
    per_message = (costs.packet_protocol_send
                   + costs.packet_protocol_receive)
    calibrated = (DEFAULT_COSTS.packet_protocol_send
                  + DEFAULT_COSTS.packet_protocol_receive)
    return ABS_TOLERANCE * (per_message / calibrated)


@dataclasses.dataclass(frozen=True)
class PhaseEstimate:
    """The predicted duration bracket of one named phase."""

    name: str
    predicted: float
    lower: float
    upper: float


@dataclasses.dataclass(frozen=True)
class Workload:
    """Catalog statistics the model predicts from."""

    n_inner: int
    inner_bytes: int        # tuple width of R
    n_outer: int
    outer_bytes: int        # tuple width of S
    n_result: int           # reference-join cardinality
    inner_total_bytes: int  # |R| in bytes (bucket planning input)
    aggregate_memory: int   # joining/sorting memory in bytes
    bucket_policy: str = "pessimistic"
    num_buckets_override: int | None = None
    #: HPJA alignment (§4.1 / Table 2): the relation is hash-declustered
    #: on the join attribute with the routing hash family, so every
    #: modulo-compatible split table sends each tuple back to the node
    #: class slot it already lives on.
    inner_aligned: bool = False
    outer_aligned: bool = False
    #: Fraction of outer tuples whose key is <= the inner's high key —
    #: the merge join stops reading S past it (§4.4 skipped reads).
    merge_overlap: float = 1.0


# --------------------------------------------------------------------------
# Elementary serial costs
# --------------------------------------------------------------------------

def _ctrl(costs: CostModel, payload: int) -> float:
    """One scheduler control transfer (always remote: the scheduler
    has its own node).  Mirrors ``NetworkService.transfer_cost``."""
    packets = max(1, math.ceil(payload / costs.packet_size))
    return (packets * (costs.packet_protocol_send + costs.control_message
                       + costs.packet_protocol_receive)
            + payload / costs.ring_bandwidth)


def _phase_overhead(costs: CostModel, n_producers: int, n_consumers: int,
                    split_table_bytes: int) -> float:
    """Serial scheduler time wrapped around one ``execute_phase``."""
    start_producer = costs.operator_startup + _ctrl(
        costs, max(64, split_table_bytes))
    start_consumer = costs.operator_startup + _ctrl(costs, 64)
    done = _ctrl(costs, 64)
    return (n_producers * start_producer + n_consumers * start_consumer
            + (n_producers + n_consumers) * done)


def _packets(n_tuples: float, n_streams: int, per_packet: int) -> float:
    """Data packets for ``n_tuples`` spread over ``n_streams``
    (producer, destination[, bucket]) buffers flushed at capacity
    ``per_packet`` — partial-packet rounding happens per stream."""
    if n_tuples <= 0 or n_streams <= 0:
        return 0.0
    # A stream with fewer tuples than its capacity still flushes one
    # packet, but a packet is never emptier than one tuple.
    return min(math.ceil(n_tuples),
               n_streams * math.ceil(n_tuples / n_streams / per_packet))


def _pages(n_tuples: float, per_page: int) -> float:
    if n_tuples <= 0:
        return 0.0
    return math.ceil(n_tuples / per_page)


# --------------------------------------------------------------------------
# One pipelined phase: per-node-class load aggregation
# --------------------------------------------------------------------------

@dataclasses.dataclass
class _Load:
    """Aggregated per-node demand of one phase (uniform assumption).

    ``prod_*`` quantities are per disk node (the scan side);
    ``site_cpu`` is per join site; ``cons_cpu``/``cons_disk`` per disk
    node of consumer-side work (writers).  In the local configuration
    join sites *are* the disk nodes, so the classes merge.
    """

    prod_cpu: float = 0.0
    prod_disk: float = 0.0
    site_cpu: float = 0.0
    cons_cpu: float = 0.0
    cons_disk: float = 0.0
    ring: float = 0.0

    def bracket(self, local: bool, overhead: float
                ) -> tuple[float, float]:
        if local:
            node_cpu = self.prod_cpu + self.site_cpu + self.cons_cpu
            node_disk = self.prod_disk + self.cons_disk
        else:
            node_cpu = self.prod_cpu + self.cons_cpu
            node_disk = self.prod_disk + self.cons_disk
        # The scan process alternates page reads with routing CPU, so
        # a producer's own chain is serial; everything else overlaps.
        serial_chain = self.prod_disk + self.prod_cpu
        lower = max(serial_chain, node_cpu, node_disk, self.ring,
                    0.0 if local else self.site_cpu)
        upper = max(lower, node_cpu + node_disk)
        return overhead + lower, overhead + upper


def _estimate(name: str, load: _Load, local: bool,
              overhead: float) -> PhaseEstimate:
    lower, upper = load.bracket(local, overhead)
    return PhaseEstimate(name=name, predicted=(lower + upper) / 2.0,
                         lower=lower, upper=upper)


def _sum_loads(*loads: _Load) -> _Load:
    total = _Load()
    for load in loads:
        total.prod_cpu += load.prod_cpu
        total.prod_disk += load.prod_disk
        total.site_cpu += load.site_cpu
        total.cons_cpu += load.cons_cpu
        total.cons_disk += load.cons_disk
        total.ring += load.ring
    return total


# --------------------------------------------------------------------------
# The model
# --------------------------------------------------------------------------

class AnalyticModel:
    """Per-phase response-time predictions for one join execution."""

    def __init__(self, costs: CostModel, num_disks: int,
                 num_join_sites: int, configuration: str,
                 workload: Workload) -> None:
        self.costs = costs
        self.num_disks = num_disks
        self.num_sites = num_join_sites
        self.local = configuration == "local"
        self.w = workload
        self.tpp_r = costs.tuples_per_page(workload.inner_bytes)
        self.tpp_s = costs.tuples_per_page(workload.outer_bytes)
        self.tpk_r = costs.tuples_per_packet(workload.inner_bytes)
        self.tpk_s = costs.tuples_per_packet(workload.outer_bytes)
        self.result_bytes = workload.inner_bytes + workload.outer_bytes
        self.tpp_res = costs.tuples_per_page(self.result_bytes)
        self.tpk_res = costs.tuples_per_packet(self.result_bytes)

    # -- shared building blocks -------------------------------------------

    def _send_cpu(self, packets: float, local_fraction: float) -> float:
        """Producer-side protocol CPU for ``packets`` data packets of
        which ``local_fraction`` short-circuit."""
        costs = self.costs
        return packets * (local_fraction * costs.packet_shortcircuit
                          + (1.0 - local_fraction)
                          * costs.packet_protocol_send)

    def _recv_cpu(self, packets: float, local_fraction: float) -> float:
        costs = self.costs
        return packets * (local_fraction * costs.packet_shortcircuit
                          + (1.0 - local_fraction)
                          * costs.packet_protocol_receive)

    def _eos(self, n_producers: int, n_consumers: int,
             self_among: bool) -> float:
        """Busiest producer's CPU for closing one of a port's
        ``n_producers`` routers.

        Flat rule: an EOS to every consumer.  Combining tree (when the
        profile's arity engages at this fan-out): an interior producer
        receives its children's reports and sends one up, receives the
        release and sends it to its children, then sends the combined
        EOS to its share of the consumers."""
        costs = self.costs
        send = costs.packet_protocol_send
        if n_consumers <= 0:
            return 0.0
        tree_cpu = 0.0
        markers = n_consumers
        if engages(costs.eos_tree_arity, n_consumers):
            tree = CombiningTree(n_producers, n_consumers,
                                 costs.eos_tree_arity)
            hop = send + costs.packet_protocol_receive
            # Only a tree of height >= 2 has a producer with both a
            # parent and a full set of children.
            tree_cpu = (len(tree.children(0)) * hop
                        + (hop if tree.height >= 2 else 0.0))
            markers = math.ceil(n_consumers / n_producers)
        if self_among:
            return (tree_cpu + costs.packet_shortcircuit
                    + (markers - 1) * send)
        return tree_cpu + markers * send

    def _eos_drain(self, n_producers: int, n_consumers: int,
                   local_fraction: float, self_among: bool) -> float:
        """One consumer's CPU for draining a port's end-of-stream
        markers: one per producer under the flat rule (of which
        ``local_fraction`` short-circuit), a single combined one from
        the owning producer on the tree."""
        if engages(self.costs.eos_tree_arity, n_consumers):
            return self._recv_cpu(1.0, 1.0 if self_among else 0.0)
        return self._recv_cpu(n_producers, local_fraction)

    def _wire(self, n_tuples: float, tuple_bytes: int,
              local_fraction: float) -> float:
        """Ring time of ``n_tuples`` routed tuples of which
        ``local_fraction`` short-circuit.  A packet occupies the ring
        for the tuples it carries, not for its capacity, so sparse
        streams (one result tuple per packet on a wide cluster) cost
        their bytes and no more."""
        return (n_tuples * (1.0 - local_fraction) * tuple_bytes
                / self.costs.ring_bandwidth)

    def _spool_hosts(self) -> int:
        """Distinct overflow-host disk nodes (one S'/R' writer each)."""
        return (self.num_sites if self.local
                else min(self.num_sites, self.num_disks))

    # -- run_round phases (simple / grace buckets / hybrid buckets) -------

    def _round_routing(self, aligned: bool) -> tuple[int, float]:
        """(streams per producer, local fraction) of a joining-table
        route: aligned HPJA tuples all land on one site slot."""
        J = self.num_sites
        if aligned and J == self.num_disks:
            return 1, (1.0 if self.local else 0.0)
        return J, ((1.0 / J) if self.local else 0.0)

    def round_build(self, label: str, n_build: float,
                    aligned: bool) -> PhaseEstimate:
        """The build half of one hash-join round: D scanners stream
        ``n_build`` R tuples into J site hash tables."""
        overhead = _phase_overhead(
            self.costs, self.num_disks,
            self.num_sites + self._spool_hosts(),
            self.num_sites * SPLIT_ENTRY_BYTES)
        return _estimate(f"{label}.build",
                         self._round_build_load(n_build, aligned),
                         self.local, overhead)

    def _round_build_load(self, n_build: float, aligned: bool) -> _Load:
        costs, D, J = self.costs, self.num_disks, self.num_sites
        local = self.local
        load = _Load()
        n_prod = n_build / D
        load.prod_disk = _pages(n_prod, self.tpp_r) \
            * costs.disk_page_read_sequential
        streams, data_local = self._round_routing(aligned)
        pkts_prod = _packets(n_prod, streams, self.tpk_r)
        load.prod_cpu = (
            n_prod * (costs.tuple_scan + costs.tuple_hash
                      + costs.tuple_move)
            + self._send_cpu(pkts_prod, data_local)
            + self._eos(D, J, self_among=local))
        n_site = n_build / J
        pkts_site = pkts_prod * D / J
        eos_local = (1.0 / D) if local else 0.0
        load.site_cpu = (
            self._recv_cpu(pkts_site, data_local)
            + n_site * (costs.tuple_receive + costs.histogram_update
                        + costs.tuple_build)
            + self._eos_drain(D, J, eos_local, local)  # scanners' EOS
            + self._eos(1, 1, self_among=local))    # own R' router close
        load.cons_cpu = self._recv_cpu(
            1.0, 1.0 if local else 0.0)             # R' writer EOS drain
        load.ring = self._wire(n_build, self.w.inner_bytes, data_local)
        return load

    def round_probe(self, label: str, n_probe: float, n_match: float,
                    aligned: bool) -> PhaseEstimate:
        """The probe half: D scanners stream ``n_probe`` S tuples to J
        probers, which emit ``n_match`` results round-robin to the D
        result-store writers."""
        overhead = _phase_overhead(
            self.costs, self.num_disks,
            self.num_sites + self._spool_hosts() + self.num_disks,
            self.num_sites * SPLIT_ENTRY_BYTES)
        return _estimate(f"{label}.probe",
                         self._round_probe_load(n_probe, n_match,
                                                aligned),
                         self.local, overhead)

    def _round_probe_load(self, n_probe: float, n_match: float,
                          aligned: bool) -> _Load:
        costs, D, J = self.costs, self.num_disks, self.num_sites
        local = self.local
        hosts = self._spool_hosts()
        load = _Load()
        n_prod = n_probe / D
        load.prod_disk = _pages(n_prod, self.tpp_s) \
            * costs.disk_page_read_sequential
        streams, data_local = self._round_routing(aligned)
        pkts_prod = _packets(n_prod, streams, self.tpk_s)
        load.prod_cpu = (
            n_prod * (costs.tuple_scan + costs.tuple_hash
                      + costs.tuple_move)
            + self._send_cpu(pkts_prod, data_local)
            + self._eos(D, J, self_among=local)     # probe router
            + self._eos(D, hosts, self_among=local))  # spool router (empty)
        n_site = n_probe / J
        match_site = n_match / J
        pkts_site = pkts_prod * D / J
        eos_local = (1.0 / D) if local else 0.0
        store_pkts = _packets(match_site, D, self.tpk_res)
        store_local = (1.0 / D) if local else 0.0
        load.site_cpu = (
            self._recv_cpu(pkts_site, data_local)
            + n_site * (costs.tuple_receive + costs.tuple_probe)
            + match_site * (costs.tuple_result + costs.tuple_move)
            + self._send_cpu(store_pkts, store_local)
            + self._eos_drain(D, J, eos_local, local)  # scanners' EOS
            + self._eos(J, D, self_among=local))    # store router close
        # Store writers and S' writers (disk nodes).
        n_store = n_match / D
        store_in = store_pkts * J / D
        store_recv_local = (1.0 / J) if local else 0.0
        load.cons_cpu = (
            self._recv_cpu(store_in, store_recv_local)
            + n_store * costs.tuple_store
            + self._eos_drain(J, D, store_recv_local, local)  # store EOS
            + self._eos_drain(D, hosts, eos_local, local))    # spool EOS
        load.cons_disk = (n_store / self.tpp_res) \
            * costs.disk_page_write_sequential
        load.ring = (self._wire(n_probe, self.w.outer_bytes, data_local)
                     + self._wire(n_match, self.result_bytes,
                                  store_local))
        return load

    def collect_state_gap(self, n_broadcast: int) -> float:
        """The serial cutoff/filter control round between build and
        probe (no bit filters in scope, so 32/64-byte payloads)."""
        return (self.num_sites * _ctrl(self.costs, 32)
                + n_broadcast * _ctrl(self.costs, 64))

    # -- bucket-forming phases (grace / sort-merge partition) -------------

    def forming(self, name: str, n_tuples: float, tuple_bytes: int,
                num_buckets: int, split_table_bytes: int,
                aligned: bool) -> PhaseEstimate:
        """Scan a relation and redistribute it into per-disk temp
        files (``num_buckets`` files per disk for Grace, one for the
        sort-merge partition)."""
        overhead = _phase_overhead(self.costs, self.num_disks,
                                   self.num_disks, split_table_bytes)
        return _estimate(name,
                         self._forming_load(n_tuples, tuple_bytes,
                                            num_buckets, aligned),
                         True, overhead)

    def _forming_load(self, n_tuples: float, tuple_bytes: int,
                      num_buckets: int, aligned: bool) -> _Load:
        costs, D = self.costs, self.num_disks
        tpp = costs.tuples_per_page(tuple_bytes)
        tpk = costs.tuples_per_packet(tuple_bytes)
        load = _Load()
        n_prod = n_tuples / D
        load.prod_disk = _pages(n_prod, tpp) \
            * costs.disk_page_read_sequential
        if aligned:
            streams, data_local = num_buckets, 1.0
        else:
            streams, data_local = D * num_buckets, 1.0 / D
        pkts_prod = _packets(n_prod, streams, tpk)
        load.prod_cpu = (
            n_prod * (costs.tuple_scan + costs.tuple_hash
                      + costs.tuple_move)
            + self._send_cpu(pkts_prod, data_local)
            + self._eos(D, D, self_among=True))
        n_cons = n_tuples / D
        load.cons_cpu = (
            self._recv_cpu(pkts_prod, data_local)
            + n_cons * costs.tuple_store
            + self._eos_drain(D, D, 1.0 / D, True))  # scanners' EOS
        load.cons_disk = (num_buckets
                          * _pages(n_cons / num_buckets, tpp)
                          * costs.disk_page_write_sequential)
        load.ring = self._wire(n_tuples, tuple_bytes, data_local)
        return load

    # -- sort-merge specific phases ---------------------------------------

    def sort_phase(self, name: str, n_tuples: float,
                   tuple_bytes: int) -> PhaseEstimate:
        """Parallel local external sorts — near-exact: each node's
        sort is one serial read/CPU/write chain from the WiSS plan."""
        from repro.storage.sort import plan_external_sort
        costs, D = self.costs, self.num_disks
        overhead = _phase_overhead(costs, D, 0, 0)
        plan = plan_external_sort(
            max(0, round(n_tuples / D)), tuple_bytes,
            self.w.aggregate_memory // D, costs)
        serial = (plan.pages_read * costs.disk_page_read_sequential
                  + plan.pages_written * costs.disk_page_write_sequential
                  + plan.cpu_seconds(costs))
        return PhaseEstimate(name=name, predicted=overhead + serial,
                             lower=overhead + serial * 0.9,
                             upper=overhead + serial * 1.1)

    def merge_phase(self, n_match: float) -> PhaseEstimate:
        """The local merge join: stream both sorted files, back up
        over duplicates, route results round-robin to the stores."""
        costs, D = self.costs, self.num_disks
        overhead = _phase_overhead(costs, D, D, D * SPLIT_ENTRY_BYTES)
        load = _Load()
        n_r = self.w.n_inner / D
        # The merge stops reading S once its value passes the inner's
        # high key (§4.4) — only the overlapping prefix is consumed.
        n_s = self.w.n_outer * self.w.merge_overlap / D
        match = n_match / D
        load.prod_disk = (
            (_pages(n_s, self.tpp_s) + _pages(n_r, self.tpp_r))
            * costs.disk_page_read_sequential)
        store_pkts = _packets(match, D, self.tpk_res)
        load.prod_cpu = (
            n_s * (costs.tuple_scan + costs.sort_compare)
            + n_r * (costs.sort_compare + costs.sort_tuple_overhead)
            + match * (costs.sort_compare + costs.tuple_result
                       + costs.tuple_move)
            + self._send_cpu(store_pkts, 1.0 / D)
            + self._eos(D, D, self_among=True))
        load.cons_cpu = (
            self._recv_cpu(store_pkts, 1.0 / D)
            + match * costs.tuple_store
            + self._eos_drain(D, D, 1.0 / D, True))
        load.cons_disk = (match / self.tpp_res) \
            * costs.disk_page_write_sequential
        load.ring = self._wire(n_match, self.result_bytes, 1.0 / D)
        return _estimate("sort-merge.merge", load, True, overhead)

    # -- per-algorithm phase sequences -------------------------------------

    def predict(self, algorithm: str) -> list[PhaseEstimate]:
        """The phase-estimate sequence for one algorithm (phase names
        match the simulator's ``JoinResult.phases``)."""
        if algorithm == "simple":
            return self._predict_simple()
        if algorithm == "grace":
            return self._predict_grace()
        if algorithm == "hybrid":
            return self._predict_hybrid()
        if algorithm == "sort-merge":
            return self._predict_sort_merge()
        raise ValueError(f"unknown algorithm {algorithm!r}")

    def response_time(self, algorithm: str) -> PhaseEstimate:
        """Whole-query bracket: phase sums plus the inter-phase
        control rounds and the result-file close."""
        phases = self.predict(algorithm)
        gaps = self._gap_seconds(algorithm)
        finish = self.num_disks * self.costs.disk_page_write_sequential
        lower = sum(p.lower for p in phases) + gaps + finish
        upper = sum(p.upper for p in phases) + gaps + finish
        return PhaseEstimate(name="total", predicted=(lower + upper) / 2,
                             lower=lower, upper=upper)

    def _num_buckets(self, algorithm: str) -> int:
        from repro.core.planner import BucketPolicy, plan_buckets
        plan = plan_buckets(
            algorithm, self.w.inner_total_bytes, self.w.aggregate_memory,
            num_disks=self.num_disks, num_join_nodes=self.num_sites,
            policy=BucketPolicy(self.w.bucket_policy),
            override=self.w.num_buckets_override)
        return plan.num_buckets

    def _predict_simple(self) -> list[PhaseEstimate]:
        w = self.w
        return [
            self.round_build("simple", w.n_inner, w.inner_aligned),
            self.round_probe("simple", w.n_outer, w.n_result,
                             w.outer_aligned),
        ]

    def _predict_grace(self) -> list[PhaseEstimate]:
        w, D = self.w, self.num_disks
        B = self._num_buckets("grace")
        table_bytes = B * D * SPLIT_ENTRY_BYTES
        phases = [
            self.forming("grace.formR", w.n_inner, w.inner_bytes,
                         B, table_bytes, w.inner_aligned),
            self.forming("grace.formS", w.n_outer, w.outer_bytes,
                         B, table_bytes, w.outer_aligned),
        ]
        for bucket in range(B):
            # Bucket files are declustered by the level-0 routing hash
            # during forming, so bucket rounds are always aligned.
            phases.append(self.round_build(
                f"grace.b{bucket}", w.n_inner / B, True))
            phases.append(self.round_probe(
                f"grace.b{bucket}", w.n_outer / B, w.n_result / B,
                True))
        return phases

    def _predict_hybrid(self) -> list[PhaseEstimate]:
        w, D, J = self.w, self.num_disks, self.num_sites
        costs = self.costs
        B = self._num_buckets("hybrid")
        entries = J + D * (B - 1)
        f0 = J / entries
        table_bytes = entries * SPLIT_ENTRY_BYTES
        hosts = self._spool_hosts()
        spill = D if B > 1 else 0
        # The forming phases combine round 0's build/probe half with
        # the redistribution of the on-disk buckets: one shared scan,
        # two (three) routers, union of the consumer sets.  Summing
        # the per-node loads models that exactly — each tuple takes
        # one of the two paths.
        load_r = self._round_build_load(w.n_inner * f0, w.inner_aligned)
        load_s = self._round_probe_load(w.n_outer * f0,
                                        w.n_result * f0,
                                        w.outer_aligned)
        if B > 1:
            load_r = _sum_loads(load_r, self._forming_load(
                w.n_inner * (1 - f0), w.inner_bytes, B - 1,
                w.inner_aligned and J == D))
            load_s = _sum_loads(load_s, self._forming_load(
                w.n_outer * (1 - f0), w.outer_bytes, B - 1,
                w.outer_aligned and J == D))
        phases = [
            _estimate("hybrid.formR", load_r, self.local,
                      _phase_overhead(costs, D, J + hosts + spill,
                                      table_bytes)),
            _estimate("hybrid.formS", load_s, self.local,
                      _phase_overhead(costs, D, J + hosts + D + spill,
                                      table_bytes)),
        ]
        per_bucket_r = w.n_inner * (1 - f0) / max(1, B - 1)
        per_bucket_s = w.n_outer * (1 - f0) / max(1, B - 1)
        per_bucket_m = w.n_result * (1 - f0) / max(1, B - 1)
        for bucket in range(1, B):
            # Bucket files are declustered by the level-0 routing hash
            # during forming, so bucket rounds are always aligned.
            phases.append(self.round_build(
                f"hybrid.b{bucket}", per_bucket_r, True))
            phases.append(self.round_probe(
                f"hybrid.b{bucket}", per_bucket_s, per_bucket_m, True))
        return phases

    def _predict_sort_merge(self) -> list[PhaseEstimate]:
        w, D = self.w, self.num_disks
        return [
            self.forming("sort-merge.partR", w.n_inner, w.inner_bytes,
                         1, D * SPLIT_ENTRY_BYTES, w.inner_aligned),
            self.sort_phase("sort-merge.sortR", w.n_inner,
                            w.inner_bytes),
            self.forming("sort-merge.partS", w.n_outer, w.outer_bytes,
                         1, D * SPLIT_ENTRY_BYTES, w.outer_aligned),
            self.sort_phase("sort-merge.sortS", w.n_outer,
                            w.outer_bytes),
            self.merge_phase(w.n_result),
        ]

    def _gap_seconds(self, algorithm: str) -> float:
        """Serial control time between phases (cutoff collection
        rounds) — one per hash-join round."""
        D = self.num_disks
        if algorithm == "simple":
            rounds = 1
        elif algorithm == "grace":
            rounds = self._num_buckets("grace")
        elif algorithm == "hybrid":
            rounds = self._num_buckets("hybrid")
        else:
            return 0.0
        return rounds * self.collect_state_gap(D)


# --------------------------------------------------------------------------
# Assessment of a simulated result
# --------------------------------------------------------------------------

def model_for(machine: "GammaMachine", db: "WisconsinDatabase",
              result: "JoinResult") -> AnalyticModel | None:
    """An :class:`AnalyticModel` for a finished join, or ``None`` when
    the execution is outside the model's scope."""
    if machine.topology_name != "token-ring":
        # The ring lower bound treats the interconnect as one shared
        # medium; the routed topologies carry disjoint flows on
        # parallel links, so that bound (and the _ctrl wire terms)
        # systematically overestimates their contention.  Explicitly
        # out of scope rather than wrongly banded.
        return None
    spec = result.spec
    if (spec.inner_predicate is not None
            or spec.outer_predicate is not None
            or spec.resolved_filter_policy().active):
        return None
    if result.overflow_events or result.counters.get(
            "outer_tuples_spooled"):
        return None
    config = spec.configuration
    num_sites = (machine.num_disk_nodes if config == "local"
                 else len(machine.diskless_nodes))
    inner = db.inner
    outer = db.outer
    merge_overlap = 1.0
    if result.algorithm == "sort-merge":
        # High-key catalog statistic: the merge never reads S past the
        # inner relation's maximum join-key value.
        r_idx = inner.schema.index_of(spec.inner_attribute)
        s_idx = outer.schema.index_of(spec.outer_attribute)
        r_max = max((row[r_idx] for frag in inner.fragments
                     for row in frag), default=None)
        if r_max is None or not outer.cardinality:
            merge_overlap = 0.0
        else:
            below = sum(1 for frag in outer.fragments
                        for row in frag if row[s_idx] <= r_max)
            merge_overlap = below / outer.cardinality
    workload = Workload(
        n_inner=inner.cardinality,
        inner_bytes=inner.schema.tuple_bytes,
        n_outer=outer.cardinality,
        outer_bytes=outer.schema.tuple_bytes,
        n_result=result.result_tuples,
        inner_total_bytes=inner.total_bytes,
        aggregate_memory=spec.aggregate_memory(inner.total_bytes),
        bucket_policy=spec.bucket_policy,
        num_buckets_override=spec.num_buckets,
        # The loader's declustering hash is the "avalanche" family, so
        # HPJA alignment needs the routing hash to be the same family.
        inner_aligned=(spec.hash_family == "avalanche"
                       and inner.is_hash_partitioned_on(
                           spec.inner_attribute)),
        outer_aligned=(spec.hash_family == "avalanche"
                       and outer.is_hash_partitioned_on(
                           spec.outer_attribute)),
        merge_overlap=merge_overlap,
    )
    return AnalyticModel(machine.costs, machine.num_disk_nodes,
                         num_sites, config, workload)


def assess(machine: "GammaMachine", db: "WisconsinDatabase",
           result: "JoinResult", *, rel_tol: float = REL_TOLERANCE,
           abs_tol: float | None = None,
           check: bool = False) -> dict | None:
    """Compare a simulated result against the analytic predictions.

    Returns a picklable report: per-phase simulated vs predicted
    durations with relative deltas, plus the whole-query comparison.
    ``None`` when the execution is outside the model's scope.
    ``abs_tol`` defaults to :func:`abs_tolerance` of the machine's
    cost model.  With ``check=True`` a phase outside the tolerance band raises
    :class:`ConformanceError`.
    """
    model = model_for(machine, db, result)
    if model is None:
        return None
    if abs_tol is None:
        abs_tol = abs_tolerance(machine.costs)
    estimates = model.predict(result.algorithm)
    simulated = {}
    for stat in result.phases:
        simulated[stat.name] = (simulated.get(stat.name, 0.0)
                                + stat.duration)
    phases = []
    all_within = True
    for est in estimates:
        sim = simulated.get(est.name)
        row: dict[str, typing.Any] = {
            "phase": est.name,
            "predicted": est.predicted,
            "lower": est.lower,
            "upper": est.upper,
            "simulated": sim,
        }
        if sim is None:
            row["within"] = False
            all_within = False
            if check:
                raise ConformanceError(
                    "simulator produced no phase matching the analytic "
                    "model's phase sequence",
                    invariant="analytic", phase=est.name,
                    deltas={"expected_phases": [e.name
                                                for e in estimates],
                            "simulated_phases": sorted(simulated)})
        else:
            band = rel_tol * est.predicted + abs_tol
            delta = sim - est.predicted
            row["delta"] = delta
            row["relative"] = (delta / est.predicted
                               if est.predicted else 0.0)
            row["within"] = abs(delta) <= band
            if not row["within"]:
                all_within = False
                if check:
                    raise ConformanceError(
                        "simulated phase duration falls outside the "
                        "analytic tolerance band",
                        invariant="analytic", phase=est.name,
                        deltas={"simulated": sim,
                                "predicted": est.predicted,
                                "band": band})
        phases.append(row)
    total = model.response_time(result.algorithm)
    total_band = rel_tol * total.predicted + abs_tol
    total_within = (abs(result.response_time - total.predicted)
                    <= total_band)
    if not total_within:
        all_within = False
        if check:
            raise ConformanceError(
                "simulated response time falls outside the analytic "
                "tolerance band",
                invariant="analytic", phase="total",
                deltas={"simulated": result.response_time,
                        "predicted": total.predicted,
                        "band": total_band})
    return {
        "algorithm": result.algorithm,
        "rel_tol": rel_tol,
        "abs_tol": abs_tol,
        "phases": phases,
        "total_simulated": result.response_time,
        "total_predicted": total.predicted,
        "total_lower": total.lower,
        "total_upper": total.upper,
        "within_tolerance": all_within,
    }
