"""Shared-resource primitives: FIFO resources, stores, and capacity pipes.

These model contention points in the hardware layer: a DMA engine, a wire,
a switch port.  All queueing is FIFO (optionally priority-ordered), which
keeps runs deterministic.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import TYPE_CHECKING, Any, Callable, Deque, List, Optional, Tuple

from .errors import SimulationError
from .events import Event

if TYPE_CHECKING:  # pragma: no cover
    from .engine import Engine


class Request(Event):
    """Event granted when a :class:`Resource` slot becomes available.

    Use as a context value: hold it, then pass it to :meth:`Resource.release`.
    """

    __slots__ = ("resource", "priority", "_order")

    def __init__(self, resource: "Resource", priority: int):
        super().__init__(resource.engine)
        self.resource = resource
        self.priority = priority
        self._order = resource._next_order()

    def cancel(self) -> None:
        """Withdraw an ungranted request (no-op if already granted)."""
        self.resource._cancel(self)


class Resource:
    """A resource with ``capacity`` identical slots and a FIFO/priority queue.

    Lower ``priority`` values are served first; ties are FIFO.
    """

    def __init__(self, engine: "Engine", capacity: int = 1, name: str = ""):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.engine = engine
        self.capacity = capacity
        self.name = name
        self._users: List[Request] = []
        # Two waiting lanes: the overwhelmingly common constant-priority
        # (0) case rides a plain FIFO deque; any other priority falls back
        # to the heap.  Grant order merges the two by (priority, order), so
        # semantics are identical to a single priority heap.
        self._waiting: List[Tuple[int, int, Request]] = []
        self._fifo: Deque[Request] = deque()
        self._order = 0

    def _next_order(self) -> int:
        self._order += 1
        return self._order

    @property
    def count(self) -> int:
        """Number of slots currently held."""
        return len(self._users)

    @property
    def queue_length(self) -> int:
        """Number of requests waiting for a slot."""
        return len(self._waiting) + len(self._fifo)

    def request(self, priority: int = 0) -> Request:
        """Ask for a slot; the returned event fires when granted."""
        req = Request(self, priority)
        if len(self._users) < self.capacity and not self._waiting and not self._fifo:
            self._users.append(req)
            req.succeed(req)
        elif priority == 0:
            self._fifo.append(req)
        else:
            heapq.heappush(self._waiting, (priority, req._order, req))
        return req

    def release(self, request: Request) -> None:
        """Return a previously granted slot."""
        try:
            self._users.remove(request)
        except ValueError:
            raise SimulationError("releasing a request that does not hold a slot")
        self._grant_next()

    def _cancel(self, request: Request) -> None:
        try:
            self._fifo.remove(request)
            return
        except ValueError:
            pass
        self._waiting = [(p, o, r) for (p, o, r) in self._waiting if r is not request]
        heapq.heapify(self._waiting)

    def _pop_next(self) -> Optional[Request]:
        if self._fifo and (
            not self._waiting
            or (0, self._fifo[0]._order) < self._waiting[0][:2]
        ):
            return self._fifo.popleft()
        if self._waiting:
            return heapq.heappop(self._waiting)[2]
        return None

    def _grant_next(self) -> None:
        while len(self._users) < self.capacity:
            req = self._pop_next()
            if req is None:
                return
            if req.triggered:  # cancelled/failed elsewhere
                continue
            self._users.append(req)
            req.succeed(req)


class Store:
    """An unbounded FIFO queue of items with event-based ``get``.

    ``put`` never blocks; ``get`` returns an event that fires with the next
    item (immediately if one is waiting).
    """

    def __init__(self, engine: "Engine", name: str = ""):
        self.engine = engine
        self.name = name
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        """Append ``item``; wakes the oldest waiting getter, if any."""
        while self._getters:
            getter = self._getters.popleft()
            if not getter.triggered:
                getter.succeed(item)
                return
        self._items.append(item)

    def get(self) -> Event:
        """Event firing with the next available item (FIFO)."""
        ev = Event(self.engine)
        if self._items:
            ev.succeed(self._items.popleft())
        else:
            self._getters.append(ev)
        return ev

    def try_get(self) -> Tuple[bool, Any]:
        """Non-blocking pop: ``(True, item)`` or ``(False, None)``."""
        if self._items:
            return True, self._items.popleft()
        return False, None

    def peek_all(self) -> list:
        """Snapshot of queued items (for inspection/tests)."""
        return list(self._items)


class Pipe:
    """A serialized transfer stage with fixed per-item setup and byte rate.

    Models a wire, a DMA engine, or a bus: transfers queue FIFO; each
    occupies the stage for ``setup_s + nbytes / bandwidth_Bps`` seconds,
    after which the completion event fires (:meth:`transfer`) or the
    caller's continuation runs (:meth:`transfer_then`).

    Parameters
    ----------
    engine:
        Owning engine.
    bandwidth_Bps:
        Sustained byte rate of the stage.
    setup_s:
        Fixed occupancy cost per item (header time, descriptor setup...).
    latency_s:
        Additional *pipelined* delay between stage exit and delivery — does
        not consume stage occupancy (propagation delay).
    """

    def __init__(
        self,
        engine: "Engine",
        bandwidth_Bps: float,
        setup_s: float = 0.0,
        latency_s: float = 0.0,
        name: str = "",
    ):
        if bandwidth_Bps <= 0:
            raise ValueError("bandwidth must be positive")
        if setup_s < 0 or latency_s < 0:
            raise ValueError("setup/latency must be non-negative")
        self.engine = engine
        self.bandwidth_Bps = float(bandwidth_Bps)
        self.setup_s = float(setup_s)
        self.latency_s = float(latency_s)
        self.name = name
        self._busy_until = 0.0
        #: Total bytes that have entered the pipe (occupancy accounting).
        self.total_bytes = 0
        self.total_items = 0

    def occupancy_time(self, nbytes: int) -> float:
        """Stage occupancy for an item of ``nbytes``."""
        return self.setup_s + nbytes / self.bandwidth_Bps

    def _reserve(self, nbytes: int) -> float:
        """Queue ``nbytes`` on the stage; return the delay from now until
        delivery."""
        if nbytes < 0:
            raise ValueError("negative transfer size")
        now = self.engine._now
        start = self._busy_until
        if start < now:
            start = now
        # Inlined occupancy_time — parenthesized to keep the exact float
        # association of start + (setup + nbytes / bandwidth).
        done = start + (self.setup_s + nbytes / self.bandwidth_Bps)
        self._busy_until = done
        self.total_bytes += nbytes
        self.total_items += 1
        return (done + self.latency_s) - now

    def transfer(self, nbytes: int, payload: Any = None) -> Event:
        """Enqueue a transfer; returns an event firing at *delivery* time
        with ``payload`` as its value."""
        delay_s = self._reserve(nbytes)
        ev = Event(self.engine)
        ev._ok = True
        ev._value = payload
        self.engine._enqueue(ev, 1, delay_s)
        return ev

    def transfer_then(self, nbytes: int, fn: Callable[[Any], None],
                      arg: Any = None) -> None:
        """Like :meth:`transfer`, but call ``fn(arg)`` at delivery time
        instead of firing an event — the same heap key, with no event for
        callers that never wait on one."""
        self.engine._call(fn, arg, self._reserve(nbytes))

    def transfer_at_then(self, res_time_s: float, nbytes: int,
                         fn: Callable[[Any], None], arg: Any = None) -> None:
        """Like :meth:`transfer_then`, but reserving the stage at
        ``res_time_s`` (a future instant the caller has computed
        analytically).

        Only valid on an *exclusive* stage: between now and ``res_time_s``
        no other caller may reserve, so committing the slot early is
        indistinguishable from calling :meth:`transfer_then` at
        ``res_time_s``.
        """
        start = max(res_time_s, self._busy_until)
        done = start + (self.setup_s + nbytes / self.bandwidth_Bps)
        self._busy_until = done
        self.total_bytes += nbytes
        self.total_items += 1
        # Reproduce the delivery time's float arithmetic as if called at
        # res_time_s — the now + (x - now) round-trip is part of the bit
        # pattern the legacy path produces.
        when = res_time_s + ((done + self.latency_s) - res_time_s)
        self.engine._call_at(fn, arg, when)

    @property
    def busy_until(self) -> float:
        """Simulation time at which the stage drains (given current queue)."""
        return self._busy_until
