"""Runtime conformance checking for the simulator (``REPRO_VERIFY=1``).

After three PRs of hot-path rewriting (kernel fast paths, vectorized
data plane) the only safety net was bit-parity against golden figures.
This package adds an *independent* check of what the numbers mean,
the way Schneider & DeWitt validate their measurements against the
Appendix-A analytic model:

* :mod:`repro.verify.invariants` — a :class:`ConformanceMonitor`
  hooked into the machine, operators and join drivers.  It keeps its
  own ledgers (tuples scanned/routed/received, pages read/written,
  packets sent/delivered) and cross-checks them against the engine's
  counters when the simulation drains.
* :mod:`repro.verify.analytic` — an Appendix-A-style cost model that
  predicts per-phase response times for all four join algorithms from
  catalog statistics and :mod:`repro.costs` constants and asserts the
  simulated result lands within a documented tolerance band.

Everything is gated by the ``REPRO_VERIFY`` environment variable
(default off): with the gate closed no monitor is constructed and the
hot paths see only a ``monitor is None`` test, so the default
configuration pays nothing.

This module deliberately imports nothing from the rest of the package
at import time — :mod:`repro.engine.machine` imports it to read the
gate.  The simulation kernel does not read it: conformance runs take
the same event loop as every other run.
"""

from __future__ import annotations

import os
import typing


def verify_enabled() -> bool:
    """Is runtime conformance checking requested? (``REPRO_VERIFY=1``)"""
    return os.environ.get("REPRO_VERIFY", "0") not in ("", "0")


class ConformanceError(AssertionError):
    """An invariant the simulation promises to uphold was violated.

    Carries enough structure for a report: the invariant's short name,
    the node and phase it was detected at (when attributable), and the
    counter deltas that disagreed.
    """

    def __init__(self, message: str, *,
                 invariant: str | None = None,
                 node: int | str | None = None,
                 phase: str | None = None,
                 deltas: typing.Mapping[str, typing.Any] | None = None,
                 ) -> None:
        self.invariant = invariant
        self.node = node
        self.phase = phase
        self.deltas = dict(deltas) if deltas else {}
        parts = [message]
        if invariant is not None:
            parts.insert(0, f"[{invariant}]")
        if node is not None:
            parts.append(f"node={node}")
        if phase is not None:
            parts.append(f"phase={phase}")
        if self.deltas:
            rendered = ", ".join(
                f"{key}={value!r}" for key, value in self.deltas.items())
            parts.append(f"deltas: {rendered}")
        super().__init__(" ".join(parts))


__all__ = ["ConformanceError", "verify_enabled"]
