"""The effect lattice: footprints, summaries, and the conflict test.

Effects are tracked as *footprint strings* over shared simulation
state, at class-attribute granularity:

* ``attr:<Class>.<attr>`` — a read or write of an instance attribute.
  ``<Class>`` is ``*`` when the receiver's class could not be resolved
  (conservative: a wildcard overlaps every class).
* ``resource:<pattern>`` — traffic through a
  :class:`repro.sim.resources.Resource` FIFO queue (request/release/
  use), named by the normalised name pattern of its construction site
  (``resource:*.cpu``, ``resource:token-ring``).
* ``store:<pattern>`` — puts/gets on a
  :class:`repro.sim.resources.Store` mailbox.

Patterns may contain ``*`` (matches anything) and use ``#`` for digit
runs, exactly like the normalised event labels of a tie signature
(``normalise`` in ``tests/sim/tie_order.py``) — the certificate
machinery matches runtime labels against these patterns verbatim.

The lattice is a powerset lattice per field with two poisoned tops:
``opaque`` (dynamic dispatch reached — the state footprint is
unknowable) and a non-empty ``unsafe`` tuple (the callable touches
scheduler internals model code must never reach).  Joins are unions;
both tops absorb.

Pairwise verdicts
-----------------
:func:`pair_verdict` classifies two footprints:

* ``commutes`` — provably disjoint: firing order cannot change any
  observable trace (response times, conformance snapshots, final
  clock).  Both sites may schedule further events: a swap permutes
  sequence numbers only among events whose own footprints are disjoint
  by induction, which is unobservable in the trace.
* ``serialized`` — the only overlap is Resource queue traffic.  The
  FIFO discipline serializes the pair (correctness is order-free) but
  queue *positions* swap with firing order, so simulated times may
  move — reversed tie order (``tests/sim/test_tie_order.py``) moves
  figure cells by up to ~0.1 % this way.  Ordered by a held resource,
  not trace-commutative.
* ``conflicts`` — overlapping reads/writes of shared attributes,
  overlapping Store traffic (FIFO content order is observable), both
  sides drawing from the workload RNG stream, or either side opaque.
"""

from __future__ import annotations

import dataclasses
import re
import typing

def compile_pattern(pattern: str) -> "re.Pattern[str]":
    """Compile a ``*``-wildcard pattern to a full-match regex.

    Everything but ``*`` is literal — labels routinely contain ``[``,
    ``]`` and ``#``, which :mod:`fnmatch` would misread as character
    classes, so the translation is done by hand.
    """
    parts = re.escape(pattern).split(r"\*")
    return re.compile(".*".join(parts) + r"\Z")


def patterns_overlap(a: str, b: str) -> bool:
    """Could patterns ``a`` and ``b`` match a common label?

    Exact when at most one side is wildcarded.  When both carry ``*``
    the test is a conservative over-approximation (compatible literal
    prefix and suffix ⇒ overlap), which errs toward *more* conflicts —
    the sound direction for certificates.
    """
    if "*" not in a:
        if "*" not in b:
            return a == b
        return compile_pattern(b).match(a) is not None
    if "*" not in b:
        return compile_pattern(a).match(b) is not None
    prefix_a, suffix_a = a.split("*", 1)[0], a.rsplit("*", 1)[1]
    prefix_b, suffix_b = b.split("*", 1)[0], b.rsplit("*", 1)[1]
    if not (prefix_a.startswith(prefix_b)
            or prefix_b.startswith(prefix_a)):
        return False
    return suffix_a.endswith(suffix_b) or suffix_b.endswith(suffix_a)


def _sets_overlap(xs: typing.Iterable[str],
                  ys: typing.Collection[str]) -> bool:
    return any(patterns_overlap(x, y) for x in xs for y in ys)


@dataclasses.dataclass
class EffectSummary:
    """One callable's (or site's) inferred effect footprint."""

    #: Shared-state footprints read (``attr:``-prefixed patterns).
    reads: set[str] = dataclasses.field(default_factory=set)
    #: Shared-state footprints written.
    writes: set[str] = dataclasses.field(default_factory=set)
    #: Resource/Store queues touched (``resource:``/``store:``
    #: prefixed patterns).
    queues: set[str] = dataclasses.field(default_factory=set)
    #: Schedules further events (process spawns, timeouts, succeed).
    schedules: bool = False
    #: Draws from the (seeded, shared-stream) workload RNG.
    rng: bool = False
    #: Lattice top: dynamic dispatch reached, footprint unknowable.
    opaque: bool = False
    #: Kernel-safety violations: reasons this callable touches
    #: scheduler internals (``Simulator._heap``, ``run()``/``step()``,
    #: clock writes).  Model code reachable from event sites must keep
    #: this empty — it is the whole-program invariant that justifies
    #: batch-firing attributed cohorts at all.
    unsafe: tuple[str, ...] = ()

    def join(self, other: "EffectSummary") -> bool:
        """In-place lattice join; True when anything changed."""
        changed = False
        for mine, theirs in ((self.reads, other.reads),
                             (self.writes, other.writes),
                             (self.queues, other.queues)):
            if not theirs <= mine:
                mine |= theirs
                changed = True
        for flag in ("schedules", "rng", "opaque"):
            if getattr(other, flag) and not getattr(self, flag):
                setattr(self, flag, True)
                changed = True
        missing = tuple(reason for reason in other.unsafe
                        if reason not in self.unsafe)
        if missing:
            self.unsafe = self.unsafe + missing
            changed = True
        return changed

    @property
    def kernel_safe(self) -> bool:
        return not self.unsafe

    def to_json(self) -> dict[str, typing.Any]:
        return {
            "reads": sorted(self.reads),
            "writes": sorted(self.writes),
            "queues": sorted(self.queues),
            "schedules": self.schedules,
            "rng": self.rng,
            "opaque": self.opaque,
            "unsafe": list(self.unsafe),
        }

    @classmethod
    def from_json(cls, data: dict[str, typing.Any]) -> "EffectSummary":
        return cls(reads=set(data.get("reads", ())),
                   writes=set(data.get("writes", ())),
                   queues=set(data.get("queues", ())),
                   schedules=bool(data.get("schedules", False)),
                   rng=bool(data.get("rng", False)),
                   opaque=bool(data.get("opaque", True)),
                   unsafe=tuple(data.get("unsafe", ())))


#: Verdict constants (also the strings stored in the JSON table).
COMMUTES = "commutes"
SERIALIZED = "serialized"
CONFLICTS = "conflicts"


def pair_verdict(a: EffectSummary, b: EffectSummary) -> str:
    """Classify a pair of footprints (see the module docstring)."""
    if a.opaque or b.opaque:
        return CONFLICTS
    if a.rng and b.rng:
        return CONFLICTS
    if _sets_overlap(a.writes, b.writes) \
            or _sets_overlap(a.writes, b.reads) \
            or _sets_overlap(b.writes, a.reads):
        return CONFLICTS
    a_stores = {q for q in a.queues if q.startswith("store:")}
    b_stores = {q for q in b.queues if q.startswith("store:")}
    if _sets_overlap(a_stores, b_stores):
        return CONFLICTS
    a_resources = a.queues - a_stores
    b_resources = b.queues - b_stores
    if _sets_overlap(a_resources, b_resources):
        return SERIALIZED
    return COMMUTES
