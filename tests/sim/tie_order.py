"""Same-instant tie order, as a test-side oracle.

The kernel's heap is keyed ``(time, priority, sequence)``: entries that
coexist under one ``(time, priority)`` key fire in the order they were
scheduled, and only the sequence counter decides it.  :func:`drive`
runs a simulator to completion the way a loop over
:meth:`~repro.sim.engine.Simulator.step` does, one *batch* at a time —
the heap head plus every entry sharing its key at that moment — and
can

* fire each batch in reversed order, a probe of how much of a
  simulated result rests on the insertion-order tie-break
  (``test_tie_order.py`` holds the paper figures to it), and
* count the batches of two or more events by *signature*: the sorted,
  distinct labels of their events, digit runs normalised
  (``process:node-3`` → ``process:node-#``), joined by
  :data:`SEPARATOR`.

Events a batch's fires schedule at the same key are causal followers,
not ties: they form a later batch.  The urgent lane, whose order is
FIFO by design, drains between the fires of a batch exactly as the
in-order kernel drains it.
"""

import heapq
import re

_DIGITS = re.compile(r"\d+")

#: Joins the labels of a tie signature (labels never contain it).
SEPARATOR = " + "


def event_label(event):
    """A readable, allocator-independent label for an event.

    A hold expiry is labelled by the resource it releases; otherwise
    by the named owner of its first callback that has one (the process
    the firing resumes), then by the event's own name (a completing
    process), and finally by its type.
    """
    owner = event._resource
    if owner is not None:
        return f"{type(owner).__name__.lower()}:{owner.name}"
    for callback in event.callbacks:
        owner = getattr(callback, "__self__", None)
        name = getattr(owner, "name", None)
        if isinstance(name, str):
            return f"{type(owner).__name__.lower()}:{name}"
    name = getattr(event, "name", None)
    if isinstance(name, str):
        return f"done:{name}"
    return type(event).__name__.lower()


def normalise(label):
    """Collapse digit runs so symmetric peers share one label."""
    return _DIGITS.sub("#", label)


def drive(sim, reverse=False, ties=None):
    """Run ``sim`` until its queue drains.

    In order, this fires the events ``sim.run()`` fires, in the same
    order and at the same times, without the synchronous fast paths;
    ``heap_peak`` may read lower, since a batch leaves the heap before
    it fires.  ``reverse`` fires each batch last-scheduled first.
    ``ties``, a :class:`collections.Counter`, gains one count per
    batch of two or more events, keyed by its signature.
    """
    heap, urgent = sim._heap, sim._urgent

    def fire(event):
        event._fire()
        sim.events_fired += 1
        if sim._crashed:
            raise sim._crashed[0].crash_error

    def drain_urgent():
        # Only urgent events fire here.  A held one is re-keyed into the
        # heap, whose head may be a *future* event while the rest of a
        # batch waits in a local list: popping it would move the clock
        # mid-batch.
        while urgent:
            event = urgent.popleft()
            if event._hold is None:
                fire(event)
            else:
                sim._rekey(event, event._hold)

    drain_urgent()
    while heap:
        key = heap[0][:2]
        sim.now = key[0]
        batch = []
        while heap and heap[0][:2] == key:
            batch.append(heapq.heappop(heap)[3])
        if ties is not None and len(batch) > 1:
            labels = {normalise(event_label(event)) for event in batch}
            ties[SEPARATOR.join(sorted(labels))] += 1
        for event in reversed(batch) if reverse else batch:
            fire(event)
            drain_urgent()
