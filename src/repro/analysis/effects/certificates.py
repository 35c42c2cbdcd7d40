"""Commutativity certificates: derivation and table format.

The certificate table is the machine-readable product of the analyzer
(:mod:`repro.analysis.effects.analyzer`): the attributed event-site
patterns with their effect footprints, plus the pairwise verdicts of
:func:`repro.analysis.effects.model.pair_verdict` over every pattern
pair (self-pairs included — two events from the *same* site usually
share state and do **not** commute).

A cohort — a group of same-instant events, named by their normalised
event labels — is classified in two tiers:

* **batchable** — every label of the cohort is attributed to analyzed,
  kernel-safe model code: a pure attribution property (the tie
  signatures observed on a paper workload must all have it;
  ``tests/analysis/test_certificates.py`` checks one).
* **commutative** — additionally, every pair of matched patterns (self
  pairs of duplicated labels included) has a ``commutes`` verdict:
  provably disjoint footprints, so even *reordering* the cohort cannot
  change any observable trace.  This is the tier the soundness property
  tests exercise by firing cohorts in both orders.

Verdicts use union semantics over multi-matches: a label matching
several patterns carries the union of their footprints, so a pair of
labels is commutative only if **all** combinations of their matched
patterns commute.

The table is built in memory (``python -m repro.analysis.effects
--emit-certs`` prints it); nothing loads it at run time.  The committed
``baseline.json`` next to this module holds the acknowledged suspect
inventory (kernel-unsafe callables, opaque or unresolved sites) that
``--check`` regresses against in CI.
"""

from __future__ import annotations

import pathlib
import typing

from repro.analysis.effects.model import (
    COMMUTES,
    CONFLICTS,
    SERIALIZED,
    EffectSummary,
    compile_pattern,
    pair_verdict,
)

if typing.TYPE_CHECKING:
    from repro.analysis.effects.analyzer import ProgramAnalysis

TABLE_VERSION = 1

#: The committed suspect baseline lives next to this module.
BASELINE_PATH = pathlib.Path(__file__).with_name("baseline.json")


def build_table(analysis: "ProgramAnalysis") -> dict[str, typing.Any]:
    """Derive the certificate table from a program analysis.

    Deterministic: patterns are sorted, pair lists are index pairs
    ``i <= j`` in pattern order, every set is emitted sorted — so the
    emitted JSON is reproducible byte-for-byte.
    """
    patterns = sorted(analysis.sites)
    closure_safe = analysis.sites_kernel_safe
    entries: list[dict[str, typing.Any]] = []
    summaries: list[EffectSummary] = []
    for pattern in patterns:
        site = analysis.sites[pattern]
        summary = analysis.site_summaries[pattern]
        summaries.append(summary)
        # An unresolved site's generators could not be traced; its
        # batch eligibility then rests on the closed-world invariant
        # that no site-reachable callable in the analyzed packages is
        # kernel-unsafe.
        kernel_safe = summary.kernel_safe and (site.resolved
                                               or closure_safe)
        entries.append({
            "pattern": pattern,
            "origin": site.origin,
            "callables": sorted(site.callables),
            "resolved": site.resolved,
            "kernel_safe": kernel_safe,
            "effects": summary.to_json(),
        })
    commutes: list[list[int]] = []
    serialized: list[list[int]] = []
    for i, left in enumerate(summaries):
        for j in range(i, len(summaries)):
            verdict = pair_verdict(left, summaries[j])
            if verdict == COMMUTES:
                commutes.append([i, j])
            elif verdict == SERIALIZED:
                serialized.append([i, j])
    return {
        "version": TABLE_VERSION,
        "generator": "repro.analysis.effects",
        "kernel_safe_closure": closure_safe,
        "patterns": entries,
        "pairs": {"commutes": commutes, "serialized": serialized},
        "stats": {
            "patterns": len(patterns),
            "kernel_safe_patterns": sum(
                1 for e in entries if e["kernel_safe"]),
            "opaque_patterns": sum(
                1 for s in summaries if s.opaque),
            "commuting_pairs": len(commutes),
            "serialized_pairs": len(serialized),
            "conflicting_pairs": (
                len(summaries) * (len(summaries) + 1) // 2
                - len(commutes) - len(serialized)),
        },
    }


def build_baseline(analysis: "ProgramAnalysis"
                   ) -> dict[str, typing.Any]:
    """The acknowledged suspect inventory ``--check`` regresses
    against."""
    return {
        "version": TABLE_VERSION,
        "suspects": analysis.suspects(),
    }


class CertificateTable:
    """Compiled form of the table.

    Label-to-pattern matching is memoised per normalised label (the
    label universe is small and highly repetitive), so the
    per-cohort classification cost after warm-up is set lookups only.
    """

    __slots__ = ("source", "patterns", "_kernel_safe", "_opaque",
                 "_regexes", "_commutes", "_serialized", "_memo")

    def __init__(self, data: dict[str, typing.Any],
                 source: str = "<memory>") -> None:
        version = data.get("version")
        if version != TABLE_VERSION:
            raise ValueError(
                f"certificate table {source}: version {version!r} "
                f"unsupported (expected {TABLE_VERSION})")
        entries = data.get("patterns", [])
        self.source = source
        self.patterns = tuple(e["pattern"] for e in entries)
        self._kernel_safe = tuple(bool(e.get("kernel_safe"))
                                  for e in entries)
        self._opaque = tuple(
            bool(e.get("effects", {}).get("opaque", True))
            for e in entries)
        self._regexes = tuple(compile_pattern(p)
                              for p in self.patterns)
        pairs = data.get("pairs", {})
        self._commutes = frozenset(
            (min(i, j), max(i, j)) for i, j in pairs.get("commutes", ()))
        self._serialized = frozenset(
            (min(i, j), max(i, j))
            for i, j in pairs.get("serialized", ()))
        self._memo: dict[str, tuple[int, ...]] = {}

    def __len__(self) -> int:
        return len(self.patterns)

    def match(self, label: str) -> tuple[int, ...]:
        """Indices of the patterns matching a normalised label."""
        found = self._memo.get(label)
        if found is None:
            found = tuple(i for i, regex in enumerate(self._regexes)
                          if regex.match(label))
            self._memo[label] = found
        return found

    def classify(self, labels: typing.Sequence[str]
                 ) -> tuple[bool, bool]:
        """``(batchable, commutative)`` for a cohort's labels.

        ``labels`` is the cohort's label multiset (duplicates
        included).  A tie signature split on its separator gives the
        distinct labels, which are all batchability depends on.
        """
        matches = []
        for label in labels:
            found = self.match(label)
            if not found:
                return (False, False)
            if not all(self._kernel_safe[i] for i in found):
                return (False, False)
            matches.append(found)
        for found in matches:
            if any(self._opaque[i] for i in found):
                return (True, False)
        for x in range(len(labels)):
            for y in range(x + 1, len(labels)):
                for i in matches[x]:
                    for j in matches[y]:
                        key = (i, j) if i <= j else (j, i)
                        if key not in self._commutes:
                            return (True, False)
        return (True, True)

    def batchable(self, labels: typing.Sequence[str]) -> bool:
        return self.classify(labels)[0]

    def commutative(self, labels: typing.Sequence[str]) -> bool:
        return self.classify(labels)[1]

    def verdict(self, label_a: str, label_b: str) -> str:
        """Pairwise verdict between two labels (union semantics)."""
        a, b = self.match(label_a), self.match(label_b)
        if not a or not b:
            return CONFLICTS
        worst = COMMUTES
        for i in a:
            for j in b:
                key = (i, j) if i <= j else (j, i)
                if key in self._commutes:
                    continue
                if key in self._serialized:
                    worst = SERIALIZED
                else:
                    return CONFLICTS
        return worst
