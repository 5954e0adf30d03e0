"""The heap-entry contract: events and continuations share one schedule.

A heap entry is ``(when, priority, seq, fn, arg)``.  Event entries carry
``fn=None`` and the event in ``arg``; continuation entries, pushed by
``Engine._call`` / ``Engine._call_at``, dispatch as ``fn(arg)``.  The
simulator's internal steps (CPU timers, NIC and wire hops, both transmit
pumps) ride continuations, and each takes its sequence number exactly
where the event it replaced was enqueued — so dispatch order, every float
and every event count are unchanged.  This module pins that contract on
the pure engine and, whenever ``repro._simcore`` is built, on the C
engine too; the event counts of reference points are pinned to the
values the event-based implementation produced.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.config import gm_system, portals_system
from repro.core import PointTask
from repro.core.accounting import drain_events
from repro.core.executor import run_task
from repro.obs import Observer, use_observer
from repro.sim.engine import PyEngine
from repro.sim.events import Event
from repro.sim.trace import Tracer

from tests.test_verify_golden_drift import (
    ALLREDUCE_CFG,
    HALO_CFG,
    POLL_CFG,
    PWW_CFG,
)


def _kernels():
    """(engine class, event class) per available kernel backend.  The pure
    engine runs the process's active ``Event`` class (the C one under
    ``COMB_COMPILED=1``), which its ``run(until=event)`` type check
    expects."""
    out = [pytest.param((PyEngine, Event), id="pure")]
    try:
        from repro import _simcore
    except ImportError:
        out.append(pytest.param(
            None, id="c",
            marks=pytest.mark.skip(reason="repro._simcore not built")))
    else:
        out.append(pytest.param((_simcore.Engine, _simcore.Event), id="c"))
    return out


KERNELS = _kernels()


class _KernelLog(Tracer):
    """Records every ``record_kernel`` call as ``(time, subject)``."""

    def __init__(self):
        super().__init__()
        self.kernel = []

    def record_kernel(self, time, event):
        self.kernel.append((time, event))


# ------------------------------------------------------------- ordering
#: One scheduled entry: (shape, time, priority).  Times come from a tiny
#: set so equal-time ties are the common case, not the corner case.
_ENTRY = st.tuples(
    st.sampled_from(["succeed", "timeout", "call", "call_at"]),
    st.sampled_from([0.0, 0.25, 0.5]),
    st.sampled_from([0, 1]),
)


def _schedule(engine, event_cls, entries, seen):
    """Enqueue ``entries`` at t=0; return each entry's (when, priority)."""
    keys = []
    for i, (shape, t, prio) in enumerate(entries):
        if shape == "succeed":  # fires now, at the given priority
            ev = event_cls(engine)
            ev.callbacks.append(lambda e, i=i: seen.append(i))
            ev.succeed(i, priority=prio)
            keys.append((0.0, prio))
        elif shape == "timeout":  # Timeout's enqueue: delay, priority 1
            ev = event_cls(engine)
            ev._ok = True
            ev._value = i
            ev.callbacks.append(lambda e, i=i: seen.append(i))
            engine._enqueue(ev, 1, t)
            keys.append((t, 1))
        elif shape == "call":
            engine._call(seen.append, i, t, prio)
            keys.append((t, prio))
        else:  # call_at: absolute time, priority 1
            engine._call_at(seen.append, i, t)
            keys.append((t, 1))
    return keys


@pytest.mark.parametrize("kernel", KERNELS)
@given(entries=st.lists(_ENTRY, min_size=1, max_size=40))
def test_dispatch_order_is_the_key_order(kernel, entries):
    engine_cls, event_cls = kernel
    engine = engine_cls()
    seen = []
    keys = _schedule(engine, event_cls, entries, seen)
    engine.run()
    expected = sorted(range(len(entries)), key=lambda i: (*keys[i], i))
    assert seen == expected
    assert engine.events_processed == len(entries)


# ------------------------------------------------------- engine surface
@pytest.mark.parametrize("kernel", KERNELS)
class TestContinuationSlots:
    def test_queue_entries_have_five_fields(self, kernel):
        engine_cls, event_cls = kernel
        engine = engine_cls()
        fn = [].append
        engine._call(fn, "arg", 1.0)
        ev = event_cls(engine)
        ev.succeed()
        engine._call_at(fn, "late", 2.0)
        assert sorted(engine._queue, key=lambda e: e[:3]) == [
            (0.0, 1, 1, None, ev),
            (1.0, 1, 0, fn, "arg"),
            (2.0, 1, 2, fn, "late"),
        ]

    def test_call_defaults_and_priority(self, kernel):
        engine_cls, _ = kernel
        engine = engine_cls()
        engine._call(print, None)
        engine._call(print, None, 0.0, 0)
        assert sorted(e[:3] for e in engine._queue) == [
            (0.0, 0, 1), (0.0, 1, 0)]

    def test_step_dispatches_one_continuation(self, kernel):
        engine_cls, _ = kernel
        engine = engine_cls()
        seen = []
        engine._call(seen.append, "a", 0.5)
        engine._call(seen.append, "b", 1.0)
        engine.step()
        assert (seen, engine.now, engine.events_processed) == (["a"], 0.5, 1)

    def test_run_until_time_includes_the_boundary(self, kernel):
        engine_cls, _ = kernel
        engine = engine_cls()
        seen = []
        engine._call(seen.append, "at", 1.0)
        engine._call(seen.append, "after", 1.5)
        engine.run(until=1.0)
        assert seen == ["at"]
        assert engine.now == 1.0 and engine.events_processed == 1
        assert engine.peek() == 1.5

    def test_run_until_event_stops_after_it(self, kernel):
        engine_cls, event_cls = kernel
        engine = engine_cls()
        seen = []
        stop = event_cls(engine)
        engine._call(seen.append, "before", 0.5)
        engine._call(lambda _arg: stop.succeed("done"), None, 1.0)
        engine._call(seen.append, "after", 1.0)
        assert engine.run(until=stop) == "done"
        # The trigger, the same-instant continuation queued ahead of the
        # event, then the event itself; nothing later.
        assert seen == ["before", "after"]
        assert engine.events_processed == 4 and engine._queue == []

    def test_peek_and_fast_forward_see_continuations(self, kernel):
        engine_cls, _ = kernel
        engine = engine_cls()
        engine._call(print, None, 2.0)
        assert engine.peek() == 2.0
        assert engine.fast_forward(2.0) is False  # at the slot: refuse
        assert engine.fast_forward(1.5) is True
        assert engine.now == 1.5 and engine.events_processed == 0

    def test_failing_continuation_propagates_and_counts(self, kernel):
        engine_cls, _ = kernel
        engine = engine_cls()

        def boom(arg):
            raise KeyError(arg)

        engine._call(boom, "k")
        with pytest.raises(KeyError):
            engine.run()
        assert engine.events_processed == 1

    def test_trace_sees_every_slot(self, kernel):
        engine_cls, event_cls = kernel
        log = _KernelLog()
        engine = engine_cls(trace=log)
        seen = []
        engine._call(seen.append, 1, 0.5)
        ev = event_cls(engine)
        ev.succeed()
        engine._call_at(seen.append, 2, 1.0)
        engine.step()
        engine.run()
        assert log.kernel == [(0.0, ev), (0.5, seen.append),
                              (1.0, seen.append)]
        assert len(log.kernel) == engine.events_processed == 3


# ------------------------------------------------------ pinned counts
#: Heap slots dispatched per reference point, as the event-based
#: implementation of every converted step dispatched them.  Any change is
#: a change of the event structure, never noise.
EVENT_COUNTS = {
    "GM.polling": (PointTask("polling", gm_system(), POLL_CFG), 3179),
    "GM.pww": (PointTask("pww", gm_system(), PWW_CFG), 2208),
    "Portals.polling": (PointTask("polling", portals_system(), POLL_CFG),
                        4270),
    "Portals.pww": (PointTask("pww", portals_system(), PWW_CFG), 5386),
    "GM.halo2d": (PointTask("pattern", gm_system(), HALO_CFG), 7875),
    "Portals.allreduce": (PointTask("pattern", portals_system(),
                                    ALLREDUCE_CFG), 12589),
    # Traced: the legacy NIC loop and the Portals pump carry every packet.
    "Portals.polling.traced": (
        PointTask("polling", portals_system(), POLL_CFG), 5278),
    "Portals.halo2d.fattree": (
        PointTask("pattern", portals_system(),
                  dataclasses.replace(HALO_CFG, topology="fattree")), 16758),
}


@pytest.mark.parametrize("name", sorted(EVENT_COUNTS))
def test_events_processed_is_pinned(name):
    task, expected = EVENT_COUNTS[name]
    drain_events()
    if name.endswith(".traced"):
        with use_observer(Observer()):
            run_task(task)
    else:
        run_task(task)
    assert drain_events() == expected
