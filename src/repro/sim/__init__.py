"""Discrete-event simulation kernel.

This package is the timing substrate for the whole reproduction: a
deterministic, generator-based discrete-event simulator in the style of
SimPy, small enough to audit and with no third-party dependencies.

The kernel provides:

* :class:`~repro.sim.engine.Simulator` — the event loop and clock.
* :class:`~repro.sim.events.Event`, :class:`~repro.sim.events.Timeout`,
  :class:`~repro.sim.events.AllOf`, :class:`~repro.sim.events.AnyOf` —
  the waitable primitives.
* :class:`~repro.sim.process.Process` — a lightweight process wrapping a
  Python generator that ``yield``\\ s events.
* :class:`~repro.sim.resources.Resource` — a FIFO-queued, fixed-capacity
  resource (used for CPUs, disks, and the token ring).
* :class:`~repro.sim.resources.Store` — an unbounded FIFO message queue
  (used for operator mailboxes).

Determinism: given the same inputs the simulation produces bit-identical
event orders and final times.  Ties in time are broken first by event
priority, then by scheduling order.

The hot paths run compiled where the host has a C compiler and the
Python headers, and as Python otherwise; :func:`activate` pins one
(:mod:`repro.sim.kernel`).
"""

from repro.sim.engine import Simulator
from repro.sim.events import AllOf, AnyOf, Event, Timeout
from repro.sim.kernel import KernelUnavailable, activate
from repro.sim.process import Process, ProcessCrash
from repro.sim.resources import Resource, Store

__all__ = [
    "AllOf",
    "AnyOf",
    "Event",
    "KernelUnavailable",
    "Process",
    "ProcessCrash",
    "Resource",
    "Simulator",
    "Store",
    "Timeout",
    "activate",
]
