"""The capacity pipe: the hardware layer's one contention primitive.

A :class:`Pipe` models a DMA engine, a wire or a bus.  Transfers queue
FIFO, which keeps runs deterministic.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable

if TYPE_CHECKING:  # pragma: no cover
    from .engine import Engine


class Pipe:
    """A serialized transfer stage with fixed per-item setup and byte rate.

    Models a wire, a DMA engine, or a bus: transfers queue FIFO; each
    occupies the stage for ``setup_s + nbytes / bandwidth_Bps`` seconds,
    after which the caller's continuation runs (:meth:`transfer_then`).

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

    def transfer_then(self, nbytes: int, fn: Callable[[Any], None],
                      arg: Any = None) -> None:
        """Enqueue a transfer of ``nbytes``; call ``fn(arg)`` at *delivery*
        time (stage exit plus ``latency_s``) as a heap continuation."""
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
