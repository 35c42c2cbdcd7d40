"""Generator-based simulated processes.

A process is a Python generator that ``yield``\\ s
:class:`~repro.sim.events.Event` objects.  Yielding suspends the process
until the event fires; the event's value becomes the value of the
``yield`` expression.  A process is itself an event that fires (with the
generator's return value) when the generator finishes, so processes can
wait on each other::

    def parent(sim):
        child_proc = sim.process(child(sim))
        result = yield child_proc          # join
        ...

Unhandled exceptions inside a process are wrapped in
:class:`ProcessCrash` and propagated out of :meth:`Simulator.run` —
model bugs fail fast instead of silently deadlocking the simulation.
"""

from __future__ import annotations

import typing

from repro.sim.events import Event

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Simulator


class ProcessCrash(RuntimeError):
    """An unhandled exception escaped a simulated process."""

    def __init__(self, process: "Process", cause: BaseException) -> None:
        super().__init__(
            f"process {process.name!r} crashed: {cause!r}")
        self.process = process
        self.cause = cause


class Process(Event):
    """A running simulated process (also an event: fires on completion)."""

    __slots__ = ("generator", "name", "crash_error", "_send",
                 "_resume_cb", "__weakref__")

    def __init__(self, sim: "Simulator", generator: typing.Generator,
                 name: str | None = None) -> None:
        super().__init__(sim)
        if not hasattr(generator, "send"):
            raise TypeError(
                f"Process body must be a generator, got {generator!r} — "
                "did you call a plain function instead of a generator "
                "function?")
        self.generator = generator
        #: generator.send cached once — _resume runs once per fired
        #: event, so the per-call bound-method lookup is hoisted here.
        self._send = generator.send
        #: _resume bound once (it is appended to every event the
        #: process waits on); deleted when the generator finishes, so
        #: the self-reference does not outlive the process.
        self._resume_cb = self._resume
        self.name = name or getattr(generator, "__name__", "process")
        self.crash_error: ProcessCrash | None = None
        # Kick off the process at the current instant.
        start = Event(sim)
        start.callbacks.append(self._resume_cb)
        start.succeed()

    @property
    def alive(self) -> bool:
        """True while the generator has not finished."""
        return not self.triggered

    def _resume(self, event: Event) -> None:
        """Advance the generator by one event.

        Hot path: runs once per fired event, so the event state is read
        through slots rather than the public properties and the
        generator methods are hoisted out of the loop.
        """
        generator = self.generator
        send = self._send
        while True:
            try:
                if event._ok:
                    target = send(event._value)
                else:
                    target = generator.throw(event._value)
            except StopIteration as stop:
                del self._resume_cb
                self.succeed(stop.value)
                return
            except BaseException as exc:  # noqa: BLE001 - fail fast
                self._crash(exc)
                return
            try:
                if target._fired:
                    # The event already happened — continue
                    # synchronously with its value, not re-queueing.
                    # Resource.use and Store.get return such events
                    # when they complete synchronously.
                    event = target
                    continue
                target.callbacks.append(self._resume_cb)
                return
            except AttributeError:
                self._bad_yield(target)
                return

    def _crash(self, exc: BaseException) -> None:
        """The generator raised ``exc``: record the crash, which
        :meth:`Simulator.run` raises after this fire (fail fast)."""
        del self._resume_cb
        self.crash_error = ProcessCrash(self, exc)
        self.crash_error.__cause__ = exc
        self.sim._crashed.append(self)
        # Still trigger so waiters do not hang forever; the simulator
        # raises before any waiter observes this.
        self.fail(self.crash_error)

    def _bad_yield(self, target: typing.Any) -> None:
        """The generator yielded ``target``, which is not an event."""
        del self._resume_cb
        error = TypeError(
            f"process {self.name!r} yielded {target!r}; processes "
            "may only yield Event instances")
        self.crash_error = ProcessCrash(self, error)
        self.sim._crashed.append(self)
        self.fail(self.crash_error)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "done" if self.triggered else "alive"
        return f"<Process {self.name!r} {state}>"
