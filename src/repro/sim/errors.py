"""Exception types raised by the discrete-event simulation kernel."""

from __future__ import annotations


class SimulationError(Exception):
    """Base class for all simulation kernel errors."""


class EmptySchedule(SimulationError):
    """Raised by :meth:`repro.sim.engine.Engine.step` when no events remain."""


class StopProcess(SimulationError):
    """Raised inside a process generator to terminate it early.

    The process completes successfully with ``value`` as its result, exactly
    as if the generator had executed ``return value``.
    """

    def __init__(self, value=None):
        super().__init__(value)
        self.value = value
