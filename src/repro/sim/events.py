"""Waitable event primitives for the simulation kernel.

An :class:`Event` is the unit of synchronisation: processes ``yield``
events and are resumed when the event *fires*.  Events fire at a
specific simulated time, carry an optional value, and invoke their
callbacks in registration order.

The lifecycle is strictly one-way::

    pending --succeed()/fail()--> triggered --(heap pop)--> fired

``succeed`` may be called at most once; firing an event twice is a
programming error and raises :class:`RuntimeError`.
"""

from __future__ import annotations

import typing

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Simulator
    from repro.sim.resources import Resource

# Events scheduled at the same time fire in priority order, then in the
# order they were scheduled.  URGENT is used by the kernel for resource
# grants so that a released resource is re-granted before ordinary
# timeouts at the same instant.
PRIORITY_URGENT = 0
PRIORITY_NORMAL = 1


class Event:
    """A one-shot occurrence that processes can wait on.

    Parameters
    ----------
    sim:
        The owning simulator.  Events are bound to exactly one simulator
        and may only be waited on by processes of that simulator.
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "_triggered",
                 "_fired", "_hold", "_resource", "_serial")

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        # Stable per-engine creation serial: event counts are
        # deterministic, so serials reproduce across runs — unlike
        # id(), which is allocator-dependent (REPRO003).
        sim._event_serial = self._serial = sim._event_serial + 1
        self.callbacks: list[typing.Callable[[Event], None]] = []
        self._value: typing.Any = None
        self._ok = True
        self._triggered = False
        self._fired = False
        # Kernel fast path (see Simulator.run): when set, the first
        # heap pop re-keys this event ``_hold`` seconds later instead
        # of firing it — the grant-and-hold lane of Resource.use.
        self._hold: float | None = None
        # The resource a grant-and-hold event holds: firing the event
        # releases it before any callback runs.
        self._resource: Resource | None = None

    # -- state inspection -------------------------------------------------

    @property
    def triggered(self) -> bool:
        """True once the event has been scheduled to fire."""
        return self._triggered

    @property
    def fired(self) -> bool:
        """True once callbacks have run."""
        return self._fired

    @property
    def ok(self) -> bool:
        """False when the event carries an exception (see :meth:`fail`)."""
        return self._ok

    @property
    def value(self) -> typing.Any:
        """The value the event fired with (or the carried exception)."""
        return self._value

    # -- triggering --------------------------------------------------------

    def succeed(self, value: typing.Any = None, delay: float = 0.0,
                priority: int = PRIORITY_NORMAL) -> "Event":
        """Schedule this event to fire successfully after ``delay``."""
        if self._triggered:
            raise RuntimeError(f"{self!r} has already been triggered")
        self._triggered = True
        self._value = value
        self.sim._schedule(self, delay, priority)
        return self

    def fail(self, exception: BaseException, delay: float = 0.0,
             priority: int = PRIORITY_NORMAL) -> "Event":
        """Schedule this event to fire carrying ``exception``.

        A process waiting on a failed event has the exception thrown
        into its generator at the ``yield`` statement.
        """
        if self._triggered:
            raise RuntimeError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._triggered = True
        self._ok = False
        self._value = exception
        self.sim._schedule(self, delay, priority)
        return self

    # -- kernel hooks --------------------------------------------------------

    def _fire(self) -> None:
        """Release a held resource, then run callbacks.  Called exactly
        once by the step() loop (:meth:`Simulator.run` inlines it).

        The callback list is not swapped out: nothing appends to a
        fired event (process resumes and conditions check ``_fired``
        first), so the list is complete once firing starts.
        """
        self._fired = True
        resource = self._resource
        if resource is not None:
            resource._release_hold()
        for callback in self.callbacks:
            callback(self)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "fired" if self._fired else (
            "triggered" if self._triggered else "pending")
        return f"<{type(self).__name__} #{self._serial} {state}>"


class Timeout(Event):
    """An event that fires ``delay`` simulated seconds after creation."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float,
                 value: typing.Any = None) -> None:
        if not delay >= 0:  # also rejects NaN
            raise ValueError(f"negative or NaN timeout delay: {delay!r}")
        super().__init__(sim)
        self.delay = delay
        self.succeed(value, delay=delay)


class _Condition(Event):
    """Shared machinery for :class:`AllOf` / :class:`AnyOf`."""

    __slots__ = ("events", "_remaining")

    def __init__(self, sim: "Simulator",
                 events: typing.Sequence[Event]) -> None:
        super().__init__(sim)
        self.events = tuple(events)
        for event in self.events:
            if event.sim is not sim:
                raise ValueError("all events must belong to one simulator")
        self._remaining = len(self.events)
        if not self.events:
            self.succeed([])
            return
        for event in self.events:
            if event.fired:
                self._observe(event)
            else:
                event.callbacks.append(self._observe)

    def _observe(self, event: Event) -> None:
        raise NotImplementedError

    def _settle(self, ok: bool, value: typing.Any) -> None:
        """Trigger, dropping the constituents: a fired constituent
        keeps its callback list, so constituent → ``_observe`` → self →
        ``events`` would otherwise be a reference cycle."""
        self.events = ()
        if ok:
            self.succeed(value)
        else:
            self.fail(value)


class AllOf(_Condition):
    """Fires when every constituent event has fired.

    The value is the list of constituent values in constructor order.
    If any constituent fails, the condition fails with that exception
    (first failure wins).
    """

    __slots__ = ()

    def _observe(self, event: Event) -> None:
        if self.triggered:
            return
        if not event.ok:
            self._settle(False, event.value)
            return
        self._remaining -= 1
        if self._remaining == 0:
            self._settle(True, [e.value for e in self.events])


class AnyOf(_Condition):
    """Fires as soon as any constituent event fires.

    The value is the (event, value) pair of the first event to fire.
    """

    __slots__ = ()

    def _observe(self, event: Event) -> None:
        if self.triggered:
            return
        if not event.ok:
            self._settle(False, event.value)
            return
        self._settle(True, (event, event.value))
