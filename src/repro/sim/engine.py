"""The discrete-event simulation engine.

:class:`Engine` owns the virtual clock and the pending-event heap.  Events
scheduled for the same timestamp are ordered by (priority, insertion
sequence), which makes every run fully deterministic.

A heap entry is ``(when, priority, seq, fn, arg)`` and takes one of two
shapes.  An :class:`Event` entry has ``fn is None`` and the event in
``arg``: dispatch runs its callbacks.  A *continuation* entry (pushed by
:meth:`Engine._call` / :meth:`Engine._call_at`) dispatches as
``fn(arg)`` with no event at all — the shape of the simulator's own
internal steps (CPU timers, NIC and wire hops, transmit pumps) that no
process ever waits on.  Both shapes share the key, the sequence counter,
the trace hook and the ``events_processed`` accounting.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Iterable, List, Optional, Tuple

from . import events as _events
from .errors import EmptySchedule, SimulationError
from .events import AllOf, AnyOf, Event, PRIORITY_NORMAL, Timeout
from .process import Process, ProcessGenerator

#: Infinity, used as the default run-until horizon.
INFINITY = float("inf")


class Engine:
    """A deterministic discrete-event simulation engine.

    Parameters
    ----------
    start_time:
        Initial value of the virtual clock, in seconds.
    trace:
        Optional :class:`repro.sim.trace.Tracer` receiving kernel events.
    """

    __slots__ = ("_now", "_queue", "_seq", "_active_process", "trace",
                 "events_processed")

    def __init__(self, start_time: float = 0.0, trace=None):
        self._now = float(start_time)
        self._queue: List[Tuple[float, int, int, Any, Any]] = []
        self._seq = 0
        self._active_process: Optional[Process] = None
        self.trace = trace
        #: Heap events dispatched so far — the cost model of the simulator
        #: itself.  The NIC fast pump exists to shrink this number; the
        #: bench tooling and the event-count regression tests read it.
        self.events_processed = 0

    # ----------------------------------------------------------------- clock
    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently being resumed, if any."""
        return self._active_process

    # ------------------------------------------------------------- factories
    def event(self) -> Event:
        """Create a fresh untriggered :class:`Event`."""
        return Event(self)

    def timeout(self, delay_s: float, value: Any = None) -> Timeout:
        """Create an event firing ``delay_s`` seconds from now."""
        return Timeout(self, delay_s, value)

    def spawn(self, generator: ProcessGenerator, name: str = "") -> Process:
        """Start a new :class:`Process` running ``generator``."""
        return Process(self, generator, name=name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Composite event firing when all ``events`` have fired."""
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Composite event firing when any of ``events`` has fired."""
        return AnyOf(self, events)

    # ------------------------------------------------------------- scheduling
    def _enqueue(self, event: Event, priority: int, delay_s: float = 0.0) -> None:
        """Insert a triggered event into the pending heap."""
        if delay_s < 0.0 and self.trace is not None:
            # Scheduling in the past is a causality corruption the sanitizer
            # must see at the source; the float compare keeps the untraced
            # hot path free of any extra work.
            self.trace.record(self._now, "engine", "schedule_past", (delay_s,))
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._queue,
                       (self._now + delay_s, priority, seq, None, event))

    def _call(
        self, fn: Callable[[Any], None], arg: Any, delay_s: float = 0.0,
        priority: int = PRIORITY_NORMAL,
    ) -> None:
        """Schedule the continuation ``fn(arg)`` after ``delay_s`` seconds.

        The entry takes exactly the key an :class:`Event` enqueued here
        would take (same ``now + delay_s`` float, same priority, the next
        sequence number), so swapping an internal event for a continuation
        changes neither the dispatch order nor the event count.  Use it
        only for steps no process waits on: nothing can yield, cancel or
        inspect a continuation.
        """
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._queue, (self._now + delay_s, priority, seq, fn, arg))

    def _call_at(self, fn: Callable[[Any], None], arg: Any, when_s: float) -> None:
        """Schedule ``fn(arg)`` at an *absolute* time (no ``now`` + ``delay``
        round-trip, which costs a ulp the fast pump's merged emission
        can't afford when reproducing legacy event times exactly)."""
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._queue, (when_s, PRIORITY_NORMAL, seq, fn, arg))

    def schedule_callback(
        self, delay_s: float, fn: Callable[[], None], priority: int = PRIORITY_NORMAL
    ) -> Event:
        """Run ``fn()`` after ``delay_s`` seconds; returns the trigger event."""
        ev = self.timeout(delay_s)
        ev.callbacks.append(lambda _e: fn())
        return ev

    # -------------------------------------------------------------- execution
    def peek(self) -> float:
        """Time of the next scheduled event, or ``INFINITY`` if none."""
        return self._queue[0][0] if self._queue else INFINITY

    def fast_forward(self, until_s: float) -> bool:
        """Analytically advance the clock across a quiescent span.

        When the caller knows nothing can change state before ``until_s``
        (it is the only runnable activity and is idle), and no heap event
        precedes ``until_s``, the clock jumps straight there — no events
        are dispatched, no bookkeeping grinds.  Returns ``True`` if the
        clock moved, ``False`` if a pending event forbids the jump (the
        caller must then wait through the event loop as usual).
        """
        if until_s <= self._now:
            return False
        if self._queue and self._queue[0][0] <= until_s:
            # An event *at* ``until_s`` also forbids the jump: whether it
            # would fire before or after the caller's continuation depends
            # on heap sequence numbers the caller cannot know, so the safe
            # answer is to make it wait through the event loop.
            return False
        self._now = until_s
        return True

    def step(self) -> None:
        """Process the single next event.

        Raises
        ------
        EmptySchedule
            If no events remain.
        """
        try:
            when, _prio, _seq, fn, event = heapq.heappop(self._queue)
        except IndexError:
            raise EmptySchedule("no scheduled events remain") from None
        if when < self._now:  # pragma: no cover - defensive
            raise SimulationError("event scheduled in the past")
        self._now = when
        self.events_processed += 1
        if fn is not None:
            if self.trace is not None:
                self.trace.record_kernel(when, fn)
            fn(event)
            return
        callbacks, event.callbacks = event.callbacks, None
        event._processed = True
        if self.trace is not None:
            self.trace.record_kernel(self._now, event)
        if callbacks:
            for callback in callbacks:
                callback(event)
        if not event._ok and not event._defused:
            exc = event._value
            raise exc

    def run(self, until: Any = None) -> Any:
        """Run the simulation.

        ``until`` may be:

        * ``None`` — run until the schedule is empty;
        * a number — run until that simulation time (clock lands exactly on
          it even if no event is scheduled there);
        * an :class:`Event` — run until that event is processed, returning
          its value (or raising its exception).
        """
        if until is None:
            stop_at = INFINITY
            stop_event = None
        elif isinstance(until, Event):
            stop_event = until
            stop_at = INFINITY
        else:
            stop_at = float(until)
            stop_event = None
            if stop_at < self._now:
                raise SimulationError(
                    f"run(until={stop_at}) is in the past (now={self._now})"
                )

        # The event loop below is :meth:`step` inlined (minus the defensive
        # past-event check): this is the simulator's hottest code, and the
        # method-call + heap-access overhead per event is measurable at
        # production sweep scale.  Semantics are identical — keep the two
        # in sync.
        queue = self._queue
        pop = heapq.heappop
        trace = self.trace  # set at construction only; safe to hoist
        n_done = 0
        try:
            if stop_event is not None:
                while not stop_event._processed:
                    if not queue:
                        raise SimulationError(
                            "simulation ran out of events before the awaited "
                            "event fired (deadlock?)"
                        )
                    when, _prio, _seq, fn, event = pop(queue)
                    self._now = when
                    n_done += 1
                    if fn is not None:
                        if trace is not None:
                            trace.record_kernel(when, fn)
                        fn(event)
                        continue
                    callbacks, event.callbacks = event.callbacks, None
                    event._processed = True
                    if trace is not None:
                        trace.record_kernel(when, event)
                    if callbacks:
                        for callback in callbacks:
                            callback(event)
                    if not event._ok and not event._defused:
                        raise event._value
                if stop_event._ok:
                    return stop_event._value
                raise stop_event._value
            while queue and queue[0][0] <= stop_at:
                when, _prio, _seq, fn, event = pop(queue)
                self._now = when
                n_done += 1
                if fn is not None:
                    if trace is not None:
                        trace.record_kernel(when, fn)
                    fn(event)
                    continue
                callbacks, event.callbacks = event.callbacks, None
                event._processed = True
                if trace is not None:
                    trace.record_kernel(when, event)
                if callbacks:
                    for callback in callbacks:
                        callback(event)
                if not event._ok and not event._defused:
                    raise event._value
            if stop_at != INFINITY:
                self._now = max(self._now, stop_at)
            return None
        finally:
            self.events_processed += n_done

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Engine t={self._now:.9f} pending={len(self._queue)}>"


#: The pure-Python reference engine, importable regardless of backend.
PyEngine = Engine

if _events._BACKEND == "c":
    # The events module already imported the extension and rebound Event;
    # swap the engine too and hand over the engine-side classes.  Both
    # swaps key off the same flag, so the two C types always travel
    # together (a C Engine typechecks events against the C Event base).
    from repro import _simcore as _sc

    Engine = _sc.Engine  # type: ignore[assignment,misc]
    _sc._install(EmptySchedule=EmptySchedule, Process=Process)
