"""Generator-based simulation processes.

A *process* is a Python generator that ``yield``\\ s :class:`~repro.sim.events.Event`
objects; the kernel resumes it with the event's value when the event fires.
A process is itself an event — it fires when the generator returns — so
processes can wait on each other directly.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator

from .errors import SimulationError, StopProcess
from .events import Event, PRIORITY_URGENT

if TYPE_CHECKING:  # pragma: no cover
    from .engine import Engine

ProcessGenerator = Generator[Event, Any, Any]


class Process(Event):
    """A running simulation process wrapping a generator.

    Created via :meth:`repro.sim.engine.Engine.spawn`.  The process event
    succeeds with the generator's return value, or fails with any exception
    that escapes the generator.
    """

    __slots__ = ("generator", "name")

    def __init__(self, engine: "Engine", generator: ProcessGenerator, name: str = ""):
        if not hasattr(generator, "throw"):
            raise TypeError(f"{generator!r} is not a generator")
        super().__init__(engine)
        self.generator = generator
        #: Human-readable label used in traces.
        self.name = name or getattr(generator, "__name__", "process")
        # Kick off the process at the current simulation time.
        init = Event(engine)
        init._ok = True
        init._value = None
        init.callbacks.append(self._resume)
        engine._enqueue(init, PRIORITY_URGENT)

    # ----------------------------------------------------------------- public
    @property
    def is_alive(self) -> bool:
        """``True`` while the generator has not finished."""
        return not self.triggered

    # --------------------------------------------------------------- internal
    def _resume(self, event: Event) -> None:
        """Send ``event``'s outcome into the generator and rearm."""
        self.engine._active_process = self
        try:
            while True:
                try:
                    if event._ok:
                        target = self.generator.send(event._value)
                    else:
                        event._defused = True
                        target = self.generator.throw(event._value)
                except StopIteration as exc:
                    self.succeed(exc.value)
                    return
                except StopProcess as exc:
                    self.generator.close()
                    self.succeed(exc.value)
                    return
                except BaseException as exc:
                    if isinstance(exc, (KeyboardInterrupt, SystemExit)):
                        raise
                    self.fail(exc)
                    return
                if not isinstance(target, Event):
                    err = SimulationError(
                        f"process {self.name!r} yielded a non-event: {target!r}"
                    )
                    # Deliver the error into the generator so it can clean up.
                    event = Event(self.engine)
                    event._ok = False
                    event._value = err
                    event._defused = True
                    continue
                if target.engine is not self.engine:
                    raise SimulationError(
                        f"process {self.name!r} yielded an event from a "
                        f"different engine"
                    )
                if target._processed:
                    # Already done: loop immediately without a queue round-trip.
                    event = target
                    continue
                target.callbacks.append(self._resume)
                return
        finally:
            self.engine._active_process = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Process {self.name!r} {'alive' if self.is_alive else 'done'}>"
