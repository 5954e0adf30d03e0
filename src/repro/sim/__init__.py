"""Deterministic discrete-event simulation kernel.

The kernel is deliberately small: events, generator processes, a heap-driven
engine, and the capacity :class:`Pipe`.  Everything above it (CPUs,
NICs, MPI) is built from these pieces.
"""

from .engine import Engine, INFINITY
from .errors import EmptySchedule, SimulationError, StopProcess
from .events import AllOf, AnyOf, Condition, Event, Timeout
from .monitor import Monitor, TimeSeries, sparkline
from .process import Process
from .resources import Pipe
from .rng import RngRegistry
from .trace import TraceRecord, Tracer

__all__ = [
    "AllOf",
    "AnyOf",
    "Condition",
    "EmptySchedule",
    "Engine",
    "Event",
    "INFINITY",
    "Monitor",
    "Pipe",
    "Process",
    "RngRegistry",
    "SimulationError",
    "StopProcess",
    "TimeSeries",
    "Timeout",
    "sparkline",
    "TraceRecord",
    "Tracer",
]
