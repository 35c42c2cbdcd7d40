"""The simulation event loop.

:class:`Simulator` owns the clock and the event heap.  Model code never
touches the heap directly; it creates :class:`~repro.sim.events.Event`
objects (or the convenience wrappers below) and lets processes wait on
them.

The loop is deterministic: the heap is keyed by
``(time, priority, sequence)`` where ``sequence`` is a monotonically
increasing counter, so same-time events fire in scheduling order within
a priority class.

Fast paths
----------
These kernel optimisations shrink the constant factor without changing
a single simulated timestamp or kernel count (see DESIGN.md §7):

* **grant-and-hold events** — :meth:`repro.sim.resources.Resource.use`
  marks its grant event with a hold duration; the run loop re-keys such
  an event ``hold`` seconds into the future on its first pop instead of
  firing it.  The sequence number for the re-keyed entry is allocated
  at exactly the moment the classic request→grant→timeout chain would
  have allocated the timeout's, so heap ordering — and therefore every
  simulated time — is bit-identical, while one full generator resume
  per resource use is skipped.  The hold event names its resource in
  ``_resource``; the loop releases it as the event fires, before any
  callback.
* **an urgent FIFO lane** — every URGENT schedule in the kernel is
  delay-0 (resource grants, grant-and-hold first legs, store puts), so
  such events are appended to a plain deque instead of the heap.  All
  ``(now, URGENT)`` entries sort before everything else in the heap and
  tie-break by scheduling order, which is exactly FIFO — so popping the
  deque first reproduces heap order while replacing two O(log n) heap
  operations per grant with O(1) deque operations.  ``_schedule``
  rejects an URGENT schedule with a non-zero delay to keep the
  invariant honest.
* **an inlined run loop** — :meth:`run` performs the pop/fire cycle
  with hoisted locals instead of delegating to :meth:`step`.  When a
  re-key leaves the urgent lane empty, the push and the next pop are
  one ``heappushpop`` (heap keys are unique, so the pop is the same).
* **synchronous fast-forward** — while the loop fires an event whose
  only callback is the caller (``_sole_callback``), ``Resource.use``
  and ``Store.get`` complete in place whenever nothing else could
  happen before the queue round trip they replace would end; the
  ``sync_holds``/``sync_gets`` counters show how often.

Only the unbounded :meth:`run` takes the inlined loop and the
synchronous paths; ``run(until=…)`` is a short loop over :meth:`step`,
and a plain :meth:`step` loop is the oracle the kernel tests hold the
inlined one to.  The tests also drive the queue with same-instant ties
fired in reversed order (``tests/sim/tie_order.py``).  The classic
chain survives as the public
:meth:`~repro.sim.resources.Resource.request` /
:meth:`~repro.sim.resources.Resource.release` idiom; the kernel tests
hold ``use()`` to its clock and trace.

Two kernels implement the hot paths: this module's Python code, and a
compiled one (``_kernel.c``) that replaces the unbounded loop
(:meth:`Simulator._drain`), ``Resource.use``, ``Store.get``/``put`` and
``Process._resume`` with line-for-line C ports over the same slots.
The host chooses, at the first :class:`Simulator`
(:func:`repro.sim.kernel.activate`): the Python kernel runs where no C
compiler or Python headers are found, and it is the oracle the tests
hold the compiled one to.
"""

from __future__ import annotations

import collections
import gc
import heapq
import typing

from repro.sim import kernel
from repro.sim.events import (
    PRIORITY_NORMAL,
    PRIORITY_URGENT,
    AllOf,
    AnyOf,
    Event,
    Timeout,
)
from repro.sim.process import Process


class SimulationError(RuntimeError):
    """Raised when the simulation reaches an inconsistent state."""


class Simulator:
    """A deterministic discrete-event simulator.

    Examples
    --------
    >>> sim = Simulator()
    >>> log = []
    >>> def worker(name, delay):
    ...     yield sim.timeout(delay)
    ...     log.append((sim.now, name))
    >>> _ = sim.process(worker("b", 2.0))
    >>> _ = sim.process(worker("a", 1.0))
    >>> sim.run()
    >>> log
    [(1.0, 'a'), (2.0, 'b')]
    """

    # Slots, so the compiled kernel reads and writes the very state
    # this class does (repro.sim.kernel).
    __slots__ = ("now", "_heap", "_urgent", "_sequence", "_event_serial",
                 "_crashed", "_sole_callback", "events_fired",
                 "fastpath_holds", "heap_peak", "sync_holds", "sync_gets")

    def __init__(self) -> None:
        if kernel.active is None:
            kernel.activate()
        self.now: float = 0.0
        self._heap: list[tuple[float, int, int, Event]] = []
        #: FIFO lane for delay-0 URGENT events (see module docstring).
        #: Always drained before the heap.
        self._urgent: collections.deque[Event] = collections.deque()
        self._sequence = 0
        #: Event-creation serial counter (stable debug identity;
        #: see Event.__repr__).
        self._event_serial = 0
        self._crashed: list[Process] = []
        #: True while the inlined run() is not firing a multi-callback
        #: event: model code then runs only as the sole callback of the
        #: event being fired, and Resource.use / Store.get may complete
        #: synchronously (see the module docstring).
        self._sole_callback = False
        # -- diagnostics counters (satellite: kernel observability) ----
        #: Events whose callbacks have run.
        self.events_fired = 0
        #: Grant-and-hold re-keys taken instead of full grant+timeout
        #: event pairs (fast-path hits).
        self.fastpath_holds = 0
        #: High-water mark of the event queue (heap plus urgent lane).
        self.heap_peak = 0
        #: Holds and mailbox gets completed synchronously (each is
        #: also counted in events_fired, and a hold in fastpath_holds).
        self.sync_holds = 0
        self.sync_gets = 0

    # -- event factories ----------------------------------------------------

    def event(self) -> Event:
        """A fresh, untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: typing.Any = None) -> Timeout:
        """An event that fires after ``delay`` simulated seconds."""
        return Timeout(self, delay, value)

    def all_of(self, events: typing.Sequence[Event]) -> AllOf:
        """An event that fires when all of ``events`` have fired."""
        return AllOf(self, events)

    def any_of(self, events: typing.Sequence[Event]) -> AnyOf:
        """An event that fires when any of ``events`` has fired."""
        return AnyOf(self, events)

    def process(self, generator: typing.Generator,
                name: str | None = None) -> Process:
        """Start a new process executing ``generator`` immediately.

        The process body runs at the current simulated time as soon as
        the loop regains control; its first ``yield`` suspends it.
        """
        return Process(self, generator, name=name)

    # -- kernel interface ----------------------------------------------------

    def _schedule(self, event: Event, delay: float,
                  priority: int = PRIORITY_NORMAL) -> None:
        if not delay >= 0:  # also rejects NaN
            raise ValueError(
                f"cannot schedule into the past or at NaN: {delay!r}")
        if priority == PRIORITY_URGENT:
            # Urgent FIFO lane: (now, URGENT) entries pop before
            # anything else in the heap and tie-break in scheduling
            # order, so a deque reproduces heap order exactly.  The
            # deque skips sequence allocation; relative order of the
            # remaining heap entries' sequence numbers — the only thing
            # the counter decides — is unchanged by the gaps.
            if delay != 0.0:
                raise ValueError(
                    "URGENT events must be delay-0 (urgent-lane "
                    f"invariant); got delay={delay!r}")
            self._urgent.append(event)
        else:
            self._sequence += 1
            heapq.heappush(
                self._heap,
                (self.now + delay, priority, self._sequence, event))
        pending = self.queued_events
        if pending > self.heap_peak:
            self.heap_peak = pending

    def kernel_counters(self) -> dict:
        """Diagnostics snapshot for the experiment harness."""
        return {
            "events_fired": self.events_fired,
            "fastpath_holds": self.fastpath_holds,
            "heap_peak": self.heap_peak,
            "queued_events": self.queued_events,
            "sync_holds": self.sync_holds,
            "sync_gets": self.sync_gets,
            "sim_engine": kernel.active,
        }

    # -- running -------------------------------------------------------------

    def step(self) -> None:
        """Fire the single next event.

        Held (grant-and-hold) urgent entries encountered on the way are
        re-keyed transparently; one call always fires exactly one
        event.
        """
        heap = self._heap
        urgent = self._urgent
        while True:
            if urgent:
                event = urgent.popleft()
                hold = event._hold
                if hold is not None:
                    self._rekey(event, hold)
                    continue
            elif heap:
                when, _priority, _seq, event = heapq.heappop(heap)
                if when < self.now:  # pragma: no cover - _schedule guards
                    raise SimulationError("time moved backwards")
                self.now = when
            else:
                raise SimulationError("nothing scheduled")
            event._fire()
            self.events_fired += 1
            if self._crashed:
                process = self._crashed[0]
                raise process.crash_error
            return

    def _rekey(self, event: Event, hold: float) -> None:
        """Move a grant-and-hold event, on its first pop, ``hold``
        seconds ahead (the sequence number is taken at the instant the
        classic chain would have scheduled its timeout)."""
        event._hold = None
        self._sequence += 1
        heapq.heappush(self._heap, (self.now + hold, PRIORITY_NORMAL,
                                    self._sequence, event))
        self.fastpath_holds += 1

    def run(self, until: float | None = None) -> None:
        """Run until the event queue drains.

        With ``until``, fire only the events due by ``until`` and leave
        the clock at ``until``, whether or not the queue drained first.

        Raises
        ------
        ProcessCrash
            If any process terminates with an unhandled exception the
            error propagates out of ``run`` immediately (fail fast).
        ValueError
            If ``until`` lies before the current simulated time.
        """
        if until is None:
            self._drain()
        else:
            self._run_until(until)

    def _drain(self) -> None:
        """The unbounded run: fire events until the queue drains (the
        compiled kernel replaces this method)."""
        heap = self._heap
        urgent = self._urgent
        # Inlined pop/fire cycle — semantically identical to calling
        # step() in a loop, with the hot locals hoisted.
        #
        # Cyclic GC is deferred for the duration of the loop: the
        # kernel allocates millions of short-lived events and frames,
        # all of which die by reference counting — generational scans
        # find nothing to free (measured: zero cyclic garbage after a
        # full sweep) while costing ~10 % of the wall clock.
        urgent_popleft = urgent.popleft
        urgent_append = urgent.append
        heappop = heapq.heappop
        heappush = heapq.heappush
        heappushpop = heapq.heappushpop
        crashed = self._crashed
        events_fired = 0
        holds = 0
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        # No model code runs between fires, so the flag stays up there
        # and drops only around multi-callback fires.
        self._sole_callback = True
        try:
            while True:
                if urgent:
                    event = urgent_popleft()
                    # Grant-and-hold events only ever travel the urgent
                    # lane (use() appends there; the re-key clears
                    # _hold before the heap push), so heap pops skip
                    # the hold check.
                    hold = event._hold
                    if hold is not None:
                        event._hold = None
                        self._sequence += 1
                        holds += 1
                        entry = (self.now + hold, PRIORITY_NORMAL,
                                 self._sequence, event)
                        if urgent:
                            heappush(heap, entry)
                            continue
                        # Fused re-key: the next iteration would pop
                        # the heap head, and with unique keys the head
                        # after a push is what heappushpop returns.
                        self.now, _priority, _seq, event = heappushpop(
                            heap, entry)
                elif heap:
                    self.now, _priority, _seq, event = heappop(heap)
                else:
                    break
                resource = event._resource
                if resource is not None:
                    # A hold expires: Resource._release_hold, inlined
                    # (it runs before the callbacks, as in Event._fire).
                    waiting = resource._waiting
                    if waiting:
                        waiter, grant = waiting.popleft()
                        resource.total_acquisitions += 1
                        waiter._triggered = True
                        waiter._value = grant
                        urgent_append(waiter)
                    else:
                        resource._in_use -= 1
                event._fired = True
                callbacks = event.callbacks
                if len(callbacks) == 1:
                    callbacks[0](event)
                elif callbacks:
                    self._sole_callback = False
                    for callback in callbacks:
                        callback(event)
                    self._sole_callback = True
                events_fired += 1
                if crashed:
                    raise crashed[0].crash_error
        finally:
            self._sole_callback = False
            if gc_was_enabled:
                gc.enable()
            self.events_fired += events_fired
            self.fastpath_holds += holds

    def _run_until(self, until: float) -> None:
        """``run(until=…)``: a loop over :meth:`step` (both kernels)."""
        if until < self.now:
            raise ValueError(
                f"cannot run into the past: until={until!r} is "
                f"before now={self.now!r}")
        heap = self._heap
        urgent = self._urgent
        # Held urgent events are re-keyed before the bound is checked,
        # as step() would re-key them first: only then is the heap
        # head the next event that can move the clock, so a bound
        # between now and a hold's end stops the run before the hold
        # fires.
        while True:
            while urgent:
                hold = urgent[0]._hold
                if hold is None:
                    break
                self._rekey(urgent.popleft(), hold)
            if not urgent and (not heap or heap[0][0] > until):
                self.now = until
                return
            self.step()

    @property
    def queued_events(self) -> int:
        """Number of events waiting to fire (diagnostics only).

        O(1) — ``_schedule`` reads this on every call for the
        ``heap_peak`` high-water mark.
        """
        return len(self._heap) + len(self._urgent)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<Simulator now={self.now:.6f} "
                f"queued={self.queued_events}>")
