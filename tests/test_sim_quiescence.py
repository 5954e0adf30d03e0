"""Tests: the engine-level quiescence fast-forward.

:meth:`repro.sim.engine.Engine.fast_forward` is a kernel facility — an
analytic clock jump across a span the caller knows to be quiescent.  No
model code calls it (a measured point always has traffic in flight, so
the jump never applied); it stays, with its kernel contract pinned
here, until the benchmark stops reading ``sim.ff.*``.  The contract:
the jump refuses whenever a pending heap event could be reordered
against the caller's continuation.
"""

import pytest

from repro.config import gm_system
from repro.core import PwwConfig, run_pww
from repro.obs import Observer
from repro.obs.context import use_observer
from repro.sim import Engine


@pytest.fixture
def engine():
    return Engine()


class TestFastForward:
    def test_empty_heap_jumps(self, engine):
        assert engine.fast_forward(2.5) is True
        assert engine.now == 2.5
        # An analytic jump dispatches nothing.
        assert engine.events_processed == 0

    def test_refuses_past_and_present(self, engine):
        engine.fast_forward(1.0)
        assert engine.fast_forward(0.5) is False
        assert engine.fast_forward(1.0) is False
        assert engine.now == 1.0

    def test_pending_event_before_target_refuses(self, engine):
        engine.timeout(1.0)
        assert engine.fast_forward(2.0) is False
        assert engine.now == 0.0

    def test_pending_event_exactly_at_target_refuses(self, engine):
        """An event *at* the target is ordered against the caller's
        continuation by heap sequence numbers the caller cannot know —
        the jump must refuse rather than guess."""
        engine.timeout(2.0)
        assert engine.fast_forward(2.0) is False
        assert engine.now == 0.0

    def test_pending_event_after_target_allows(self, engine):
        engine.timeout(3.0)
        assert engine.fast_forward(2.0) is True
        assert engine.now == 2.0
        engine.run()
        assert engine.now == 3.0


def test_pww_quiescent_equals_legacy_traced():
    """End to end: a PWW point with a long work phase is bit-identical
    bare and traced (traced runs disable the fast pump)."""
    cfg = PwwConfig(msg_bytes=64 * 1024, work_interval_iters=2_000_000,
                    batches=4, warmup_batches=1)
    bare = run_pww(gm_system(), cfg)
    with use_observer(Observer()):
        traced = run_pww(gm_system(), cfg)
    assert bare == traced
