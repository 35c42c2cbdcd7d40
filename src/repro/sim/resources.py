"""Contended resources and message stores.

:class:`Resource` models a fixed-capacity server with a FIFO wait queue
— one per CPU, one per disk arm, one for the token ring.  The usage
idiom is::

    grant = yield resource.request()
    try:
        yield sim.timeout(service_time)
    finally:
        resource.release(grant)

or, equivalently, the one-shot helper ``yield from resource.use(dt)``.

:class:`Store` is an unbounded FIFO queue of items used as a process
mailbox: ``put`` never blocks, ``get`` returns an event that fires when
an item is available.  Items are delivered in arrival order, one per
waiting getter, never duplicated and never lost (tested property-based).

``use`` and ``get`` complete synchronously — returning an event that
has already fired — when nothing else in the simulation could happen
before the queue round trip they replace would end (see their
docstrings and DESIGN.md §7).  Both must therefore be yielded at once:
``yield from resource.use(dt)``, ``item = yield store.get()``.
"""

from __future__ import annotations

import collections
import typing

from repro.sim.events import PRIORITY_URGENT, Event

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Simulator


class Grant:
    """Token proving a request was granted; required for release."""

    __slots__ = ("resource", "released")

    def __init__(self, resource: "Resource") -> None:
        self.resource = resource
        self.released = False


class Resource:
    """A FIFO-queued resource with ``capacity`` concurrent users.

    Tracks utilisation statistics (total busy time integrated over
    users) so the experiment harness can report CPU utilisation the way
    §5 of the paper does for local vs remote joins.
    """

    __slots__ = ("sim", "capacity", "name", "_in_use", "_waiting",
                 "busy_time", "_last_change", "total_acquisitions")

    def __init__(self, sim: "Simulator", capacity: int = 1,
                 name: str = "resource") -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._in_use = 0
        #: FIFO of (event, grant) waiters; fast-path holds queue with
        #: a None grant (release is inline, no token to return).
        self._waiting: collections.deque[tuple[Event, Grant | None]] = (
            collections.deque())
        # Statistics
        self.busy_time = 0.0
        self._last_change = 0.0
        self.total_acquisitions = 0

    # -- acquisition -----------------------------------------------------

    def request(self) -> Event:
        """An event that fires with a :class:`Grant` when capacity frees."""
        event = Event(self.sim)
        grant = Grant(self)
        if self._in_use < self.capacity:
            self._account()
            self._in_use += 1
            self.total_acquisitions += 1
            event.succeed(grant, priority=PRIORITY_URGENT)
        else:
            self._waiting.append((event, grant))
        return event

    def release(self, grant: Grant) -> None:
        """Return capacity; hands it to the oldest waiter, if any."""
        if grant.resource is not self:
            raise ValueError("grant belongs to a different resource")
        if grant.released:
            raise RuntimeError("double release of a resource grant")
        grant.released = True
        if self._waiting:
            event, next_grant = self._waiting.popleft()
            self.total_acquisitions += 1
            event.succeed(next_grant, priority=PRIORITY_URGENT)
        else:
            self._account()
            self._in_use -= 1

    def use(self, duration: float) -> typing.Iterable[Event]:
        """``yield from`` helper: acquire, hold for ``duration``, release.

        The request→grant→timeout→release event chain is collapsed
        into a single *grant-and-hold* event: the grant is scheduled
        exactly like :meth:`request`'s, but carries the hold duration,
        and the run loop re-keys it ``duration`` seconds ahead on its
        first pop — at the very moment the classic chain's process
        resume would have scheduled its timeout, so the heap sequence
        numbering (and every simulated time) is unchanged while one
        full generator resume per use is saved.  Waiters of both
        flavours share the same FIFO queue and are granted identically.

        Returns a plain 1-tuple rather than a generator (one less frame
        per use on the kernel's hottest chain).  The hold event names
        this resource in its ``_resource`` slot, and firing it releases
        the resource before any callback runs — before the waiting
        process resumes, exactly when the classic chain's ``release``
        would have run, so event ordering is unchanged.  The hold event
        always carries value ``None``, which is what makes
        ``yield from`` over a plain tuple legal (PEP 380 sends ``None``
        as ``next()``).

        **Synchronous hold.**  When the run loop is firing an event
        whose only callback is the caller, the urgent lane is empty,
        the resource is free and the hold ends strictly before the heap
        head, nothing else in the simulation can happen before the hold
        ends.  The round trip through the queue is then done here, in
        its order: grant, re-key bookkeeping, clock advance, release;
        the returned event has already fired, so the caller continues
        without a kernel pass.  On an equal end time the heap entry has
        the lower sequence number and fires first, so equality takes
        the queue.  This is exact only for the ``yield from`` idiom:
        nothing may run between this call and the caller's yield.
        """
        if not duration >= 0:  # also rejects NaN
            raise ValueError(f"hold duration must be >= 0, got {duration!r}")
        sim = self.sim
        # Inlined Event(sim) + hold setup (one Python frame per use
        # saved on the kernel's single hottest allocation site).
        event = Event.__new__(Event)
        event.sim = sim
        sim._event_serial = event._serial = sim._event_serial + 1
        event.callbacks = []
        event._value = None
        event._ok = True
        event._resource = self
        # Busy time is credited as the hold duration up front: every
        # use() holds for exactly ``duration`` once granted, so the sum
        # of durations equals the in_use-integral the classic
        # _account() bookkeeping computes at any drained instant;
        # utilisation() subtracts what has not elapsed yet.
        self.busy_time += duration
        if self._in_use < self.capacity:
            self.total_acquisitions += 1
            event._triggered = True
            if sim._sole_callback and not sim._urgent:
                heap = sim._heap
                end = sim.now + duration
                if not heap or end < heap[0][0]:
                    # Synchronous hold (see above).  The grant's
                    # in_use += 1 and the release's -= 1 cancel; a free
                    # resource has no waiters to hand over to.
                    sim._sequence += 1
                    sim.fastpath_holds += 1
                    sim.events_fired += 1
                    sim.sync_holds += 1
                    sim.now = end
                    event._hold = None
                    event._fired = True
                    return (event,)
            self._in_use += 1
            # Inlined _schedule for the urgent lane (delay-0 URGENT
            # events go to the FIFO deque, never the heap).
            sim._urgent.append(event)
        else:
            event._triggered = False
            self._waiting.append((event, None))
        event._hold = duration
        event._fired = False
        return (event,)

    def _release_hold(self) -> None:
        """Release (no Grant token) as a :meth:`use` hold event fires.

        Called by ``Event._fire``; :meth:`Simulator.run` inlines the
        same steps.  The urgent-lane append is an inlined URGENT
        delay-0 succeed.
        """
        if self._waiting:
            waiter, next_grant = self._waiting.popleft()
            self.total_acquisitions += 1
            waiter._triggered = True
            waiter._value = next_grant
            self.sim._urgent.append(waiter)
        else:
            self._in_use -= 1

    # -- introspection ------------------------------------------------------

    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def queue_length(self) -> int:
        return len(self._waiting)

    def _account(self) -> None:
        now = self.sim.now
        self.busy_time += self._in_use * (now - self._last_change)
        self._last_change = now

    def _holds_ahead(self) -> tuple[int, float]:
        """(:meth:`use` holds granted and still running, the busy time
        queued and running holds will add after now).

        One scan of the event queues at read time, so :meth:`use`
        keeps its up-front credit and pays nothing per call.
        """
        if not self._in_use and not self._waiting:
            return 0, 0.0
        sim = self.sim
        now = sim.now
        held = 0
        ahead = 0.0
        for event in sim._urgent:  # granted, not yet re-keyed
            hold = event._hold
            if hold is not None and event._resource is self:
                held += 1
                ahead += hold
        for when, _priority, _seq, event in sim._heap:  # re-keyed
            if event._resource is self:
                held += 1
                ahead += when - now
        for event, grant in self._waiting:
            if grant is None:
                assert event._hold is not None
                ahead += event._hold
        return held, ahead

    def utilisation(self, horizon: float | None = None) -> float:
        """Fraction of ``horizon`` (default: now) this resource was busy.

        Reads only, so a mid-run read never moves a later one.
        :meth:`request` grants are integrated up to now; :meth:`use`
        holds are credited in full when issued, so the part of each
        queued or running hold that lies after now is taken back out.
        Once the run drains both corrections are zero.  The two terms
        assume one protocol per resource (as every resource in the
        model is driven).
        """
        now = self.sim.now
        horizon = now if horizon is None else horizon
        if horizon <= 0:
            return 0.0
        held, ahead = self._holds_ahead()
        busy = (self.busy_time
                + (self._in_use - held) * (now - self._last_change)
                - ahead)
        return busy / (horizon * self.capacity)

    def conformance_snapshot(self) -> dict[str, typing.Any]:
        """Introspection as plain data (the ``REPRO_VERIFY`` monitor
        reads this after the event loop drains; valid any time, but
        :meth:`use` credits each hold's busy time at issue, so busy-time
        comparisons only balance once no holds are in flight)."""
        return {
            "name": self.name,
            "capacity": self.capacity,
            "in_use": self._in_use,
            "queue_length": len(self._waiting),
            "busy_time": self.busy_time,
            "acquisitions": self.total_acquisitions,
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<Resource {self.name!r} {self._in_use}/{self.capacity} "
                f"queue={len(self._waiting)}>")


class Store:
    """Unbounded FIFO item queue (process mailbox)."""

    __slots__ = ("sim", "name", "_items", "_getters", "total_puts",
                 "total_gets")

    def __init__(self, sim: "Simulator", name: str = "store") -> None:
        self.sim = sim
        self.name = name
        self._items: collections.deque[typing.Any] = collections.deque()
        self._getters: collections.deque[Event] = collections.deque()
        self.total_puts = 0
        self.total_gets = 0

    def put(self, item: typing.Any) -> None:
        """Deposit ``item``; wakes the oldest waiting getter."""
        self.total_puts += 1
        if self._getters:
            getter = self._getters.popleft()
            self.total_gets += 1
            # Inlined succeed() for the urgent lane (delay-0 URGENT
            # events go to the FIFO deque, never the heap) — one of the
            # kernel's hottest schedule sites.
            getter._triggered = True
            getter._value = item
            self.sim._urgent.append(getter)
        else:
            self._items.append(item)

    def get(self) -> Event:
        """An event that fires with the next item.

        **Synchronous get.**  With an item ready, the event would go to
        the urgent lane; when that lane is empty and the run loop is
        firing an event whose only callback is the caller, it would be
        the very next event to fire, so it is returned already fired
        (and counted as fired) instead.  Exact for the
        ``item = yield store.get()`` idiom.
        """
        sim = self.sim
        # Inlined Event(sim) + urgent-lane succeed (one mailbox get per
        # delivered message makes this a kernel-rate allocation site).
        event = Event.__new__(Event)
        event.sim = sim
        sim._event_serial = event._serial = sim._event_serial + 1
        event.callbacks = []
        event._ok = True
        event._hold = None
        event._resource = None
        if self._items:
            self.total_gets += 1
            event._triggered = True
            event._value = self._items.popleft()
            if sim._sole_callback and not sim._urgent:
                sim.events_fired += 1
                sim.sync_gets += 1
                event._fired = True
            else:
                event._fired = False
                sim._urgent.append(event)
        else:
            event._triggered = False
            event._fired = False
            event._value = None
            self._getters.append(event)
        return event

    @property
    def pending_items(self) -> int:
        return len(self._items)

    @property
    def waiting_getters(self) -> int:
        return len(self._getters)

    def conformance_snapshot(self) -> dict[str, typing.Any]:
        """Introspection as plain data (``REPRO_VERIFY`` drain checks:
        a finished query must leave puts == gets, nothing pending and
        no stranded getters)."""
        return {
            "name": self.name,
            "total_puts": self.total_puts,
            "total_gets": self.total_gets,
            "pending_items": len(self._items),
            "waiting_getters": len(self._getters),
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<Store {self.name!r} items={len(self._items)} "
                f"getters={len(self._getters)}>")
