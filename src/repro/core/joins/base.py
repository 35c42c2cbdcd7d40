"""Shared driver machinery for the four parallel join algorithms.

A :class:`JoinDriver` plays the role of Gamma's scheduler process for
one join query: it owns the phase structure of its algorithm, charges
scheduling costs through :class:`~repro.engine.scheduler.Scheduler`,
and assembles the :class:`JoinResult`.  Subclasses implement
``_execute`` — a simulated process generator — using the operator
building blocks of :mod:`repro.engine.operators` and the hash-join
machinery of :mod:`repro.core.joins.common`.

Conventions shared by every algorithm (§3):

* R is the smaller *inner/building* relation, S the *outer/probing*
  relation;
* result tuples are (inner ++ outer) concatenations, distributed
  round-robin to store operators at the disk nodes (§2.2);
* "available memory" is the aggregate across the joining processors:
  hash-table space for the hash algorithms, sort/merge space for
  sort-merge (§4).
"""

from __future__ import annotations

import dataclasses
import enum
import typing

from repro.catalog.pages import ColumnPage
from repro.catalog.relation import Relation
from repro.core.hash_table import JoinOverflowError
from repro.engine.machine import GammaMachine, MachineConfig
from repro.sim import ProcessCrash
from repro.engine.node import Node
from repro.engine.operators.writers import WriterStats, tempfile_writer
from repro.engine.scheduler import Scheduler
from repro.network.service import NetworkStats
from repro.storage.files import PagedFile
from repro.verify import ConformanceError

Row = typing.Tuple


class JoinConfigError(ValueError):
    """The requested join configuration is impossible or inconsistent."""


class BitFilterPolicy(enum.Enum):
    """Where bit-vector filtering is applied."""

    #: No filtering.
    OFF = "off"
    #: The paper's implementation: filters during the joining phase
    #: only, one fresh 2 KB filter packet per (sub)join (§4.2).
    JOINING_ONLY = "joining-only"
    #: The paper's proposed extension: additionally filter the outer
    #: relation during Grace/Hybrid bucket-forming (§4.2/§4.4 — "would
    #: significantly increase the performance").  Implemented as an
    #: ablation.
    WITH_BUCKET_FORMING = "with-bucket-forming"

    @property
    def active(self) -> bool:
        return self is not BitFilterPolicy.OFF


@dataclasses.dataclass(frozen=True)
class JoinSpec:
    """Everything that parameterises one join execution."""

    #: Join attribute name on the inner (building) relation.
    inner_attribute: str = "unique1"
    #: Join attribute name on the outer (probing) relation.
    outer_attribute: str = "unique1"
    #: Aggregate joining memory as a fraction of the inner relation's
    #: size — the x-axis of every figure in the paper.
    memory_ratio: float | None = None
    #: Aggregate joining memory in bytes (overrides ``memory_ratio``).
    memory_bytes: int | None = None
    #: Bit-vector filtering.  ``bit_filters=True`` is shorthand for
    #: the paper's JOINING_ONLY policy.
    bit_filters: bool = False
    filter_policy: BitFilterPolicy | None = None
    #: "local" (joins on disk nodes) or "remote" (diskless nodes).
    configuration: str = "local"
    #: Pessimistic (round bucket count up) vs optimistic (round down
    #: and lean on the overflow mechanism) — Figure 7.
    bucket_policy: str = "pessimistic"
    #: Pin the Grace/Hybrid bucket count (None = planner decides).
    num_buckets: int | None = None
    #: Hash-table sizing headroom over the nominal per-site share.
    #: Gamma's tables fit the uniform workloads exactly at integral
    #: bucket counts ("neither Grace or Hybrid joins ever experienced
    #: hash table overflow", §4); the slack absorbs the residual
    #: quantisation of hashing while leaving genuine skew (§4.4) to
    #: overflow, as it did on the real machine.
    capacity_slack: float = 1.10
    #: Overflow recursion limit before declaring the join infeasible.
    max_overflow_depth: int = 48
    #: Keep the result rows in the JoinResult for verification.
    collect_result: bool = True
    #: Which randomizing-function family the join uses:
    #: "avalanche" (the library default — a modern multiplicative
    #: hash) or "legacy" (a weak, locality-preserving function that
    #: reproduces Gamma's catastrophic skew behaviour; see
    #: repro.hashing.legacy_hash_int and the legacy-hash ablation).
    hash_family: str = "avalanche"
    #: Optional selection predicates, evaluated at the scan sites —
    #: how Gamma pushes the selections of joinAselB / joinCselAselB
    #: below the join (§4: selections execute only on disk nodes).
    inner_predicate: typing.Callable[[Row], bool] | None = None
    outer_predicate: typing.Callable[[Row], bool] | None = None

    def resolved_filter_policy(self) -> BitFilterPolicy:
        if self.filter_policy is not None:
            return BitFilterPolicy(self.filter_policy)
        return (BitFilterPolicy.JOINING_ONLY if self.bit_filters
                else BitFilterPolicy.OFF)

    def aggregate_memory(self, inner_bytes: int) -> int:
        if self.memory_bytes is not None:
            if self.memory_bytes <= 0:
                raise JoinConfigError(
                    f"memory_bytes must be positive: {self.memory_bytes}")
            return self.memory_bytes
        if self.memory_ratio is None:
            raise JoinConfigError(
                "JoinSpec needs memory_ratio or memory_bytes")
        if self.memory_ratio <= 0:
            raise JoinConfigError(
                f"memory_ratio must be positive: {self.memory_ratio}")
        return max(1, round(self.memory_ratio * inner_bytes))


@dataclasses.dataclass
class PhaseStat:
    """Timing of one phase of the join."""

    name: str
    start: float
    end: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclasses.dataclass
class JoinResult:
    """Everything measured about one join execution."""

    algorithm: str
    spec: JoinSpec
    response_time: float
    result_tuples: int
    #: Every result row, built from :attr:`result_fragments` when the
    #: spec's ``collect_result`` is set (fragment by fragment: compare
    #: it as a multiset), else None.
    result_rows: list[Row] | None
    #: Per-disk-node fragments of the stored result relation (the
    #: round-robin store layout, §2.2) — feed these to
    #: :meth:`as_relation` to chain another join over the result.
    #: Each is its result file's rows, handed over without a copy: a
    #: column page (int32 when the values fit), or an empty list for a
    #: node that stored nothing.
    result_fragments: list[typing.Sequence[Row]]
    phases: list[PhaseStat]
    network: NetworkStats
    disk_page_reads: int
    disk_page_writes: int
    num_buckets: int | None
    overflow_events: int
    overflow_levels: int
    max_chain: int
    bucket_forming_writes: WriterStats
    counters: dict[str, int]
    cpu_utilisation: dict[str, float]

    @property
    def shortcircuit_fraction(self) -> float:
        return self.network.shortcircuit_fraction

    @property
    def local_write_fraction(self) -> float:
        """Fraction of bucket-forming tuples written to the producing
        node's own disk (Table 2 of the paper)."""
        return self.bucket_forming_writes.local_fraction

    def as_relation(self, name: str, schema) -> "Relation":
        """The stored result as a catalog relation (fragment i on
        disk node i), ready to be joined again — how the three-way
        joinCselAselB plan chains its stages."""
        from repro.catalog.partitioning import RoundRobinPartitioning
        return Relation(name, schema, self.result_fragments,
                        partitioning=RoundRobinPartitioning())

    def phase_duration(self, name: str) -> float:
        return sum(p.duration for p in self.phases if p.name == name)

    def summary(self) -> str:
        """One-line human-readable summary."""
        parts = [f"{self.algorithm}: {self.response_time:.2f}s",
                 f"{self.result_tuples} results"]
        if self.num_buckets is not None:
            parts.append(f"{self.num_buckets} buckets")
        if self.overflow_events:
            parts.append(f"{self.overflow_events} overflows "
                         f"({self.overflow_levels} levels)")
        filters = self.counters.get("filter_eliminated")
        if filters:
            parts.append(f"filter dropped {filters}")
        return ", ".join(parts)


def _result_like(inner: Relation, outer: Relation) -> ColumnPage | None:
    """An empty page with the layout of the join's result rows (inner
    ++ outer), when each relation's rows all live in pages of one
    layout with no object column; else None."""
    sides = []
    for relation in (inner, outer):
        pages = [fragment for fragment in relation.fragments if fragment]
        if not pages or not all(isinstance(page, ColumnPage)
                                and page.shaped_like(pages[0])
                                for page in pages):
            return None
        sides.append(pages[0].cut(0, 0))
    return ColumnPage.hstack(*sides)


class JoinDriver:
    """Base class: one driver instance executes exactly one join."""

    #: Overridden by each algorithm ("sort-merge", "simple", ...).
    algorithm = "abstract"

    def __init__(self, machine: GammaMachine, outer: Relation,
                 inner: Relation, spec: JoinSpec) -> None:
        if machine.sim.now != 0.0:
            raise JoinConfigError(
                "machine has already run a query; response times are "
                "measured from t=0, build a fresh GammaMachine per join")
        if outer.num_fragments != machine.num_disk_nodes:
            raise JoinConfigError(
                f"outer relation {outer.name!r} has "
                f"{outer.num_fragments} fragments but the machine has "
                f"{machine.num_disk_nodes} disks")
        if inner.num_fragments != machine.num_disk_nodes:
            raise JoinConfigError(
                f"inner relation {inner.name!r} has "
                f"{inner.num_fragments} fragments but the machine has "
                f"{machine.num_disk_nodes} disks")
        self.machine = machine
        self.outer = outer
        self.inner = inner
        self.spec = spec
        self.costs = machine.costs
        self.scheduler = Scheduler(machine)
        self.config = MachineConfig(spec.configuration)
        self.join_sites: list[Node] = machine.join_nodes(self.config)
        self.disk_nodes: list[Node] = machine.disk_nodes
        self.inner_key = inner.schema.index_of(spec.inner_attribute)
        self.outer_key = outer.schema.index_of(spec.outer_attribute)
        self.filter_policy = spec.resolved_filter_policy()
        from repro import hashing as _hashing
        try:
            self.hash_value = _hashing.HASH_FAMILIES[spec.hash_family]
        except KeyError:
            raise JoinConfigError(
                f"unknown hash_family {spec.hash_family!r}; choose "
                f"from {sorted(_hashing.HASH_FAMILIES)}") from None
        self._make_hasher = _hashing.HASH_FAMILY_HASHERS[spec.hash_family]
        self._hashers: dict[int, typing.Callable] = {}
        self.aggregate_memory = spec.aggregate_memory(inner.total_bytes)
        self.result_tuple_bytes = (inner.schema.tuple_bytes
                                   + outer.schema.tuple_bytes)
        # -- measurement state -------------------------------------------
        self.phases: list[PhaseStat] = []
        self.counters: dict[str, int] = {}
        self.bucket_forming_writes = WriterStats()
        self.overflow_events = 0
        self.overflow_levels = 0
        self.max_chain = 0
        self.num_buckets: int | None = None
        like = _result_like(inner, outer)
        self._result_files = [
            PagedFile(f"result.{node.name}", self.result_tuple_bytes,
                      self.costs.page_size, columnar=True, like=like)
            for node in self.disk_nodes]
        self._ran = False
        self.monitor = machine.monitor
        if self.monitor is not None:
            self.monitor.note_driver(self)

    # -- public API ---------------------------------------------------------

    def run(self) -> JoinResult:
        """Execute the join to completion and return its measurements."""
        self.launch()
        try:
            self.machine.run_to_completion()
        except ProcessCrash as crash:
            # Domain errors (infeasible configuration, overflow
            # recursion limit) surface as themselves; genuine model
            # bugs keep the crash wrapper.
            if isinstance(crash.cause, (JoinConfigError,
                                        JoinOverflowError,
                                        ConformanceError)):
                raise crash.cause from None
            raise
        return self.collect()

    def launch(self) -> None:
        """Start this join's control process on the (possibly shared)
        machine without draining the event loop.

        Used by the multiuser-throughput extension (§5's future work):
        several drivers can be launched on one machine, the machine
        run once, and each driver's measurements collected.  A driver
        still executes exactly one join.
        """
        if self._ran:
            raise JoinConfigError(
                "a JoinDriver executes exactly one join; build a new "
                "driver (and machine) for another run")
        self._ran = True
        self._started_at = self.machine.sim.now
        self._finished_at: float | None = None
        self.machine.sim.process(self._control(),
                                 name=f"{self.algorithm}")

    def collect(self) -> JoinResult:
        """Measurements of a launched join (after the machine ran)."""
        if not self._ran:
            raise JoinConfigError("collect() before launch()")
        if self._finished_at is None:
            raise JoinConfigError(
                "join has not finished; run the machine to completion "
                "before collecting")
        fragments = [f.rows for f in self._result_files]
        result = JoinResult(
            algorithm=self.algorithm,
            spec=self.spec,
            response_time=self._finished_at - self._started_at,
            result_tuples=sum(f.num_tuples for f in self._result_files),
            result_rows=([row for fragment in fragments
                          for row in fragment]
                         if self.spec.collect_result else None),
            result_fragments=fragments,
            phases=self.phases,
            network=self.machine.network.stats.snapshot(),
            disk_page_reads=self.machine.disk_page_reads(),
            disk_page_writes=self.machine.disk_page_writes(),
            num_buckets=self.num_buckets,
            overflow_events=self.overflow_events,
            overflow_levels=self.overflow_levels,
            max_chain=self.max_chain,
            bucket_forming_writes=self.bucket_forming_writes,
            counters=dict(self.counters),
            cpu_utilisation=self.machine.cpu_utilisations(),
        )
        if self.monitor is not None:
            self.monitor.check_join(self, result)
        return result

    # -- subclass contract -----------------------------------------------------

    def _execute(self) -> typing.Generator:
        """The algorithm body (a simulated process generator)."""
        raise NotImplementedError

    def _control(self) -> typing.Generator:
        yield from self._execute()
        yield from self._finish_result_files()
        self._finished_at = self.machine.sim.now

    # -- shared helpers ---------------------------------------------------------

    def bump(self, counter: str, amount: int = 1) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + amount

    def hasher(self, level: int) -> typing.Callable:
        """A level-bound hash callable (cached; used by the page-level
        routing loops — bit-identical to ``self.hash_value(v, level)``)."""
        fn = self._hashers.get(level)
        if fn is None:
            fn = self._hashers[level] = self._make_hasher(level)
        return fn

    def phase(self, name: str) -> PhaseStat:
        stat = PhaseStat(name=name, start=self.machine.sim.now)
        self.phases.append(stat)
        return stat

    def end_phase(self, stat: PhaseStat) -> None:
        stat.end = self.machine.sim.now

    def memory_per_join_site(self) -> int:
        return self.aggregate_memory // len(self.join_sites)

    def hash_table_capacity(self) -> int:
        """Per-site hash-table capacity in tuples.

        The aggregate memory must hold at least one inner tuple;
        given that, every site gets a floor of one tuple (a hash
        table smaller than a tuple cannot exist)."""
        if (self.inner.cardinality
                and self.aggregate_memory < self.inner.schema.tuple_bytes):
            raise JoinConfigError(
                f"aggregate memory of {self.aggregate_memory} bytes "
                "gives less than one tuple of hash-table space "
                f"({self.inner.schema.tuple_bytes} bytes/tuple)")
        per_site = self.memory_per_join_site() * self.spec.capacity_slack
        return max(1, int(per_site // self.inner.schema.tuple_bytes))

    def overflow_host(self, site_index: int) -> Node:
        """The disk node holding join site ``site_index``'s overflow
        files (§3.2: each file on a single disk, different files on
        different disks).

        A local join site uses its own drive — §4.1 observes that the
        transmission of overflow tuples is short-circuited for local
        joins.  For a diskless join site the allocator assigns drives
        round-robin with a deliberate offset: Gamma's file allocation
        had no alignment with the hash congruence, so the spooling of
        overflow tuples never short-circuits in the remote
        configuration (this is why Simple's HPJA and non-HPJA remote
        curves coincide in Figure 14)."""
        node = self.join_sites[site_index]
        if node.has_disk:
            return node
        return self.disk_nodes[(site_index + 1) % len(self.disk_nodes)]

    def store_writers(self, n_producers: int
                      ) -> tuple[list[tuple[Node, typing.Generator]], str]:
        """Result-store consumers for one probe phase.

        Returns (consumers, port): one store operator per disk node,
        appending to the driver-lifetime result files (closed once at
        the end of the query)."""
        port = self.machine.fresh_port("store.result")
        consumers: list[tuple[Node, typing.Generator]] = []
        for node, file in zip(self.disk_nodes, self._result_files):
            consumers.append((node, tempfile_writer(
                self.machine, node, port, n_producers,
                select_file=lambda bucket, file=file: file)))
        return consumers, port

    def _finish_result_files(self) -> typing.Generator:
        """Close the result relation: flush each node's partial page."""
        mon = self.monitor
        for node, file in zip(self.disk_nodes, self._result_files):
            trailing = file.close()
            if trailing:
                yield from node.require_disk().write_pages(
                    trailing, sequential=True)
                if mon is not None:
                    mon.note_page_writes(node.node_id, trailing)

    def collect_site_state(self, payload_bytes_per_site: int,
                           broadcast_nodes: typing.Sequence[Node],
                           broadcast_bytes: int) -> typing.Generator:
        """Charge the control round that moves per-site join state.

        After a build phase the scheduler gathers each join site's
        overflow cutoff (and bit filter, when enabled) and rebroadcasts
        the combined packet to every node that will produce the outer
        relation (§3.2/§4.2).
        """
        scheduler_id = self.machine.scheduler_node.node_id
        for site in self.join_sites:
            yield from self.machine.network.transfer_cost(
                site.node_id, scheduler_id,
                max(32, payload_bytes_per_site))
        for node in broadcast_nodes:
            yield from self.machine.network.transfer_cost(
                scheduler_id, node.node_id, max(32, broadcast_bytes))

    def note_table_stats(self, tables: typing.Iterable) -> None:
        """Fold hash-table statistics into the driver counters."""
        for table in tables:
            if table.overflow_events:
                self.overflow_events += table.overflow_events
                self.bump("tuples_evicted", table.tuples_evicted)
            if table.max_chain > self.max_chain:
                self.max_chain = table.max_chain
            self.bump("tuples_built", table.total_inserted)
            self.machine.dataplane.probe_arena_packets += (
                table.arena_probe_pages)
