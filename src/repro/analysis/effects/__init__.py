"""Whole-program effect analysis and commutativity certificates.

This package derives what can be *proved* about same-timestamp event
cohorts: it walks every module of the sim-scoped packages, infers
per-callable effect summaries (reads/writes of shared simulation
state, event scheduling, resource/store queue traffic, RNG draws, with
a conservative "opaque" lattice top for dynamic dispatch), attributes
the event-site labels of tied events (recorded at run time by the
tests' tie-order driver, ``tests/sim/tie_order.py``) to the spawn and
resource-construction sites that produce them, and derives pairwise
**commutativity certificates** between those site patterns.

Layout
------
* :mod:`~repro.analysis.effects.model` — the effect lattice: footprint
  strings, :class:`~repro.analysis.effects.model.EffectSummary`, the
  pairwise conflict test.
* :mod:`~repro.analysis.effects.sites` — the label-pattern algebra:
  deriving a normalised label pattern from a name expression, wrapper
  template substitution, and the label pattern matcher.
* :mod:`~repro.analysis.effects.analyzer` — the AST walker: call
  graph over the sim packages (reusing the alias resolution of
  :class:`repro.analysis.rules.ModuleContext`), effect inference with
  fixpoint propagation, spawn-wrapper recognition, kernel-safety.
* :mod:`~repro.analysis.effects.certificates` — certificate
  derivation, the JSON table format and the in-memory
  :class:`~repro.analysis.effects.certificates.CertificateTable`.

Run ``python -m repro.analysis.effects --emit-certs`` to print the
table (see DESIGN.md §12); nothing loads it at run time.
"""

from repro.analysis.effects.certificates import (
    CertificateTable,
    build_table,
)
from repro.analysis.effects.model import EffectSummary, pair_verdict

__all__ = [
    "CertificateTable",
    "EffectSummary",
    "build_table",
    "pair_verdict",
]
