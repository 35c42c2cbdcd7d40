"""Hardware/software cost model for the simulated Gamma machine.

Every simulated delay in the reproduction comes from a named constant
in :class:`CostModel`.  The defaults are calibrated to the hardware the
paper describes:

* VAX 11/750 processors (~0.6 MIPS) with 2 MB of memory each;
* 333 MB Fujitsu 8" disk drives, 8 KB disk pages, one-page readahead;
* an 80 Mbit/s token ring with 2 KB network packets and a multiple-bit
  sliding-window datagram protocol whose per-packet CPU cost dominates
  the wire time (Gamma short-circuits same-node packets through shared
  memory, which avoids the ring but *not* the protocol CPU — §4.1 of
  the paper relies on that).

Per-tuple CPU costs are expressed in seconds per tuple.  At 0.6 MIPS
one millisecond is ~600 machine instructions, so values around
0.3–1.2 ms per tuple-touch match the instruction-path lengths reported
for Gamma-era systems.  The defaults were calibrated (see
``benchmarks/test_calibration.py`` and EXPERIMENTS.md) so that the
joinABprime query lands in the paper's measured range of tens of
seconds and — the actual reproduction target — the relative shapes of
all figures hold.

All constants can be overridden, e.g. ``CostModel(disk_page_read=0.004)``
to model faster disks, so the harness can run sensitivity ablations.

Beyond ad-hoc overrides, the module keeps a registry of **named
hardware profiles** (:data:`PROFILES`): ``gamma-1989`` is the frozen
paper calibration above, ``modern-2018`` a shared-nothing cluster of
the Chakraborty et al. (arXiv:1804.09324) era — NVMe-class flash,
10 GbE with jumbo-frame packets, multicore-era per-tuple CPU costs and
gigabytes of memory per node.  :func:`resolve_profile` is the single
entry point the machine builder uses: it accepts a profile name, a
ready :class:`CostModel`, or ``None`` (which falls back to the
``REPRO_PROFILE`` environment variable, default ``gamma-1989``).
"""

from __future__ import annotations

import dataclasses
import os
import typing


@dataclasses.dataclass(frozen=True)
class CostModel:
    """Calibrated cost constants (all times in simulated seconds)."""

    #: Registry name of the profile these constants were calibrated
    #: for (purely descriptive: reports and cache keys use it).
    profile: str = "gamma-1989"

    # ------------------------------------------------------------------ disk
    #: Size of a disk page in bytes (the paper uses 8 KB pages).
    page_size: int = 8192
    #: Sequential page read with the WiSS one-page readahead in effect:
    #: mostly rotational latency + transfer (1.8 MB/s class drive).
    disk_page_read_sequential: float = 0.0070
    #: Random page read: average seek + rotational latency + transfer.
    disk_page_read_random: float = 0.0280
    #: Sequential page write (writes go to pre-allocated temp extents).
    disk_page_write_sequential: float = 0.0085
    #: Random page write.
    disk_page_write_random: float = 0.0300

    # --------------------------------------------------------------- network
    #: Size of a data packet on the token ring in bytes.
    packet_size: int = 2048
    #: Ring bandwidth in bytes/second (80 Mbit/s).
    ring_bandwidth: float = 10e6
    #: CPU time to push one packet through the protocol stack
    #: (sender).  Reliable sliding-window datagram service in software
    #: on a ~0.6 MIPS processor costs on the order of 10k instructions
    #: per packet (checksums, window/ACK bookkeeping, buffer copies) —
    #: far more than the wire time, and more than the per-tuple join
    #: work a packet's tuples need downstream.  This asymmetry is what
    #: makes local (short-circuiting) joins beat remote ones for HPJA
    #: joins (Figure 15) while remote wins when tuples must be
    #: distributed anyway (Figure 16).
    packet_protocol_send: float = 0.0240
    #: CPU time to receive one packet through the protocol stack.
    packet_protocol_receive: float = 0.0240
    #: CPU cost of a short-circuited (same node) packet hand-off, paid
    #: once on each "end" of the transfer.  Cheaper than the full stack
    #: but, as §4.1 stresses, not free.
    packet_shortcircuit: float = 0.0015
    #: Fixed cost of a small control message (operator start/done,
    #: filter broadcast), dominated by scheduling code, per message.
    control_message: float = 0.0050
    #: Scheduler work to initiate one operator phase on one node.
    operator_startup: float = 0.0150
    #: Egress-port cost of a store-and-forward switch, per packet —
    #: only charged by the ``fabric`` interconnect topology (the
    #: shared token ring has no switching elements).  The 1989 value
    #: models a hypothetical crossbar of the era.
    switch_port_cost: float = 0.0002
    #: Per-hop forwarding latency of a hypercube link — only charged
    #: by the ``hypercube`` interconnect topology.
    hop_latency: float = 0.0001
    #: Arity of the combining tree that terminates a stream fanning out
    #: to more consumers than this (DESIGN.md §14).  0 keeps Gamma's
    #: flat rule at every fan-out — each producer sends an
    #: end-of-stream to each consumer (§2.2) — which is what the paper
    #: measured, so ``gamma-1989`` leaves it at 0.
    eos_tree_arity: int = 0

    # ---------------------------------------------------------------- memory
    #: Main memory per processor in bytes (2 MB on the VAX 11/750
    #: nodes, §2.1).  The scale-out sweeps derive each cluster's
    #: aggregate joining memory from this — the figures instead sweep
    #: the memory *ratio* directly, exactly as the paper does.
    memory_per_node: int = 2 * 1024 * 1024

    # ------------------------------------------------------------------- cpu
    #: Read the next tuple out of a buffered page and evaluate a simple
    #: selection predicate against it.
    tuple_scan: float = 0.00050
    #: Apply the randomizing (hash) function to a join attribute.
    tuple_hash: float = 0.00015
    #: Copy a tuple into an outgoing packet / page buffer and consult
    #: the split table.
    tuple_move: float = 0.00055
    #: Unpack a tuple from a received packet into operator space.
    tuple_receive: float = 0.00040
    #: Insert a tuple into an in-memory join hash table.
    tuple_build: float = 0.00060
    #: Probe the hash table with a tuple (base cost, empty chain).
    tuple_probe: float = 0.00060
    #: Extra probe cost per additional hash-chain link traversed
    #: (duplicate join values form chains — §4.4 measured 3.3 average).
    tuple_chain_link: float = 0.00010
    #: Compose one (R ++ S) result tuple.
    tuple_result: float = 0.00100
    #: Append a tuple to a store/temporary file page buffer.
    tuple_store: float = 0.00025
    #: One comparison during sorting/merging (loser-tree node visit).
    sort_compare: float = 0.00022
    #: Per-tuple bookkeeping during a sort or merge pass, on top of the
    #: comparisons (move between buffers, heap maintenance).
    sort_tuple_overhead: float = 0.00110
    #: Set one bit in a bit-vector filter.
    filter_set: float = 0.00004
    #: Test one bit in a bit-vector filter.
    filter_test: float = 0.00004
    #: Maintain the hash-value histogram on hash-table insert (used by
    #: the Simple overflow mechanism — §4.1 "Grace and Hybrid
    #: Performance over Intermediate points").
    histogram_update: float = 0.00005
    #: Scan one resident hash-table tuple while clearing 10 % of memory
    #: to the overflow file ("the CPU overhead required to repeatedly
    #: search the hash table").
    overflow_scan_tuple: float = 0.00020

    # -------------------------------------------------------------- filters
    #: Total size of a bit-vector filter in bytes: the paper's single
    #: 2 KB network packet shared across all joining sites.
    filter_bytes: int = 2048
    #: Packet header/framing overhead in *bits* subtracted from the
    #: filter before it is divided among the joining sites (2048 bits
    #: per site minus overhead gives the paper's 1 973 bits/site at 8
    #: sites).
    filter_overhead_bits_per_site: int = 75

    def __post_init__(self) -> None:
        if self.eos_tree_arity < 0 or self.eos_tree_arity == 1:
            raise ValueError(
                f"eos_tree_arity must be 0 (flat end-of-stream) or >= 2, "
                f"got {self.eos_tree_arity}")

    # -------------------------------------------------------------- derived
    def packet_wire_time(self, payload_bytes: int | None = None) -> float:
        """Transmission time of one packet over the ring."""
        size = self.packet_size if payload_bytes is None else payload_bytes
        return size / self.ring_bandwidth

    def tuples_per_packet(self, tuple_bytes: int) -> int:
        """Data tuples that fit in a ring packet (at least one)."""
        if tuple_bytes <= 0:
            raise ValueError(f"tuple_bytes must be positive: {tuple_bytes}")
        return max(1, self.packet_size // tuple_bytes)

    def tuples_per_page(self, tuple_bytes: int) -> int:
        """Data tuples that fit in a disk page (at least one)."""
        if tuple_bytes <= 0:
            raise ValueError(f"tuple_bytes must be positive: {tuple_bytes}")
        return max(1, self.page_size // tuple_bytes)

    def filter_bits_per_site(self, num_sites: int) -> int:
        """Bits of the shared filter packet available to each join site."""
        if num_sites < 1:
            raise ValueError(f"num_sites must be >= 1: {num_sites}")
        total_bits = self.filter_bytes * 8
        per_site = total_bits // num_sites - self.filter_overhead_bits_per_site
        return max(1, per_site)

    def scaled(self, cpu: float = 1.0, disk: float = 1.0,
               network: float = 1.0) -> "CostModel":
        """A copy with CPU / disk / network cost groups scaled.

        Used by the sensitivity ablations (e.g. "what if the CPUs were
        10x faster?") without touching individual constants.
        """
        cpu_fields = (
            "packet_protocol_send", "packet_protocol_receive",
            "packet_shortcircuit", "control_message", "operator_startup",
            "tuple_scan", "tuple_hash", "tuple_move", "tuple_receive",
            "tuple_build", "tuple_probe", "tuple_chain_link",
            "tuple_result", "tuple_store", "sort_compare",
            "sort_tuple_overhead", "filter_set", "filter_test",
            "histogram_update", "overflow_scan_tuple",
        )
        disk_fields = (
            "disk_page_read_sequential", "disk_page_read_random",
            "disk_page_write_sequential", "disk_page_write_random",
        )
        changes: dict[str, float] = {}
        for field in cpu_fields:
            changes[field] = getattr(self, field) * cpu
        for field in disk_fields:
            changes[field] = getattr(self, field) * disk
        changes["ring_bandwidth"] = self.ring_bandwidth / network
        changes["switch_port_cost"] = self.switch_port_cost * network
        changes["hop_latency"] = self.hop_latency * network
        return dataclasses.replace(
            self, profile=f"{self.profile}*", **changes)


#: The default, paper-calibrated cost model instance.
DEFAULT_COSTS = CostModel()

#: A shared-nothing cluster node of the Chakraborty et al.
#: (arXiv:1804.09324) era.  Calibration rationale:
#:
#: * **Disk** — NVMe-class flash: ~2 GB/s sequential streaming (4 µs
#:   per 8 KB page) and ~100 µs random 8 KB reads; writes a shade
#:   slower than reads.
#: * **Network** — 10 GbE (1.25 GB/s) with jumbo frames: 8 KB data
#:   packets, ~6 µs of kernel stack per packet, ~1 µs cut-through
#:   switch ports, sub-µs shared-memory hand-offs.
#: * **CPU** — per-tuple operations keep roughly the Gamma-era
#:   instruction-path lengths but execute at a few GIPS instead of
#:   0.6 MIPS, so every per-tuple constant shrinks by ~400x while the
#:   *ratios* between them (scan vs build vs result composition) are
#:   preserved.  This is exactly the CPU/interconnect rebalancing
#:   that inverts several 1989 conclusions.
#: * **Termination** — streams wider than 8 consumers close through
#:   an 8-ary combining tree, as a cluster runtime's barrier /
#:   reduce-broadcast collective would, not with N² datagrams.
#: * **Memory** — 4 GiB of joining memory per node, and a 64 KB bit
#:   filter packet (the 2 KB filter was sized to one ring packet).
MODERN_2018 = CostModel(
    profile="modern-2018",
    page_size=8192,
    disk_page_read_sequential=0.000004,
    disk_page_read_random=0.000100,
    disk_page_write_sequential=0.000005,
    disk_page_write_random=0.000110,
    packet_size=8192,
    ring_bandwidth=1.25e9,
    packet_protocol_send=0.000006,
    packet_protocol_receive=0.000006,
    packet_shortcircuit=0.0000004,
    control_message=0.000002,
    operator_startup=0.000020,
    switch_port_cost=0.000001,
    hop_latency=0.0000005,
    eos_tree_arity=8,
    memory_per_node=4 * 1024 ** 3,
    tuple_scan=0.00000125,
    tuple_hash=0.00000038,
    tuple_move=0.00000138,
    tuple_receive=0.00000100,
    tuple_build=0.00000150,
    tuple_probe=0.00000150,
    tuple_chain_link=0.00000025,
    tuple_result=0.00000250,
    tuple_store=0.00000063,
    sort_compare=0.00000055,
    sort_tuple_overhead=0.00000275,
    filter_set=0.00000010,
    filter_test=0.00000010,
    histogram_update=0.00000013,
    overflow_scan_tuple=0.00000050,
    filter_bytes=65536,
)

#: The named hardware profiles the harness can simulate.
#: ``gamma-1989`` is frozen to the paper calibration above — golden
#: bit-parity tests pin its figure outputs byte-for-byte.
PROFILES: dict[str, CostModel] = {
    "gamma-1989": DEFAULT_COSTS,
    "modern-2018": MODERN_2018,
}


def get_profile(name: str) -> CostModel:
    """The registered profile called ``name``."""
    try:
        return PROFILES[name]
    except KeyError:
        known = ", ".join(sorted(PROFILES))
        raise ValueError(
            f"unknown hardware profile {name!r}; registered profiles: "
            f"{known}") from None


def profile_from_environment() -> str:
    """The profile name selected by ``REPRO_PROFILE`` (validated)."""
    name = os.environ.get("REPRO_PROFILE", "gamma-1989")
    get_profile(name)
    return name


def resolve_profile(profile: "str | CostModel | None") -> CostModel:
    """Resolve a profile designator to a :class:`CostModel`.

    ``None`` falls back to the ``REPRO_PROFILE`` environment variable
    (default ``gamma-1989``); a string is looked up in the registry; a
    ready :class:`CostModel` passes through untouched.
    """
    if profile is None:
        return get_profile(profile_from_environment())
    if isinstance(profile, str):
        return get_profile(profile)
    return profile


def resolve_profile_name(profile: "str | CostModel | None") -> str:
    """The registry name a designator resolves to (for cache keys)."""
    if profile is None:
        return profile_from_environment()
    if isinstance(profile, str):
        get_profile(profile)
        return profile
    return profile.profile


_T = typing.TypeVar("_T")  # placate linters about unused typing import
