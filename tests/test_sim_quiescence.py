"""Tests: the engine-level quiescence fast-forward and its appliers.

:meth:`repro.sim.engine.Engine.fast_forward` is the engine facility —
an analytic clock jump across a span the caller knows to be quiescent.
:mod:`repro.core.quiescence` holds the two appliers the method drivers
share: :func:`quiescent_compute` (PWW / workloop dry intervals) and
:func:`absorb_empty_cycles` (polling's empty-poll-cycle aggregation).
Correctness rests on two contracts pinned here: the jump refuses
whenever a pending heap event could be reordered against the caller's
continuation, and the appliers' time/accounting arithmetic equals the
legacy compute path bit for bit.
"""

import pytest

from repro.config import CpuConfig, gm_system
from repro.core import PwwConfig, run_pww
from repro.core.quiescence import quiescent_compute
from repro.hardware.cpu import CPU
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


class TestQuiescentCompute:
    def _cpu(self, engine):
        return CPU(engine, CpuConfig(), name="cpu")

    def test_quiet_cpu_jumps_with_exact_accounting(self, engine):
        cpu = self._cpu(engine)
        ctx = cpu.new_context("a")

        def proc():
            yield from quiescent_compute(cpu, ctx, 0.25)
            return engine.now

        p = engine.spawn(proc())
        engine.run(p)
        assert p.value == 0.25
        assert ctx.user_time_s == 0.25
        assert cpu.user_time_s == 0.25
        # The span was analytic: no heap events beyond process start-up.
        assert engine.events_processed <= 2

    def test_pending_event_falls_back_to_compute(self, engine):
        cpu = self._cpu(engine)
        ctx = cpu.new_context("a")
        engine.timeout(0.1)  # forbids the jump

        def proc():
            yield from quiescent_compute(cpu, ctx, 0.25)
            return engine.now

        p = engine.spawn(proc())
        engine.run(p)
        # The legacy timeslicing path accumulates quantum float error the
        # analytic jump does not have; approximate equality is its spec.
        assert p.value == pytest.approx(0.25)
        assert ctx.user_time_s == pytest.approx(0.25)

    def test_contended_cpu_falls_back(self, engine):
        cpu = self._cpu(engine)
        a, b = cpu.new_context("a"), cpu.new_context("b")
        done = []

        def worker(ctx, t):
            yield from quiescent_compute(cpu, ctx, t)
            done.append((ctx.name, engine.now))

        engine.spawn(worker(a, 0.2))
        engine.spawn(worker(b, 0.2))
        engine.run()
        # Two runnable contexts share the core round-robin: neither span
        # is quiescent, so both must take the legacy timeslicing path and
        # finish around 0.4 (not 0.2 twice in zero wall time).
        assert len(done) == 2
        assert all(t == pytest.approx(0.4, rel=0.1) for _n, t in done)
        assert a.user_time_s == pytest.approx(0.2)
        assert b.user_time_s == pytest.approx(0.2)

    def test_zero_span_is_legacy(self, engine):
        cpu = self._cpu(engine)
        ctx = cpu.new_context("a")

        def proc():
            yield from quiescent_compute(cpu, ctx, 0.0)
            return engine.now

        p = engine.spawn(proc())
        engine.run(p)
        assert p.value == 0.0


def test_pww_quiescent_equals_legacy_traced():
    """End to end: the PWW dry work phase (the heaviest quiescent-span
    user) must be bit-identical with the fast-forward active (bare) and
    inactive (traced runs disable the fast pump but keep quiescence —
    the jump itself must be exact either way)."""
    cfg = PwwConfig(msg_bytes=64 * 1024, work_interval_iters=2_000_000,
                    batches=4, warmup_batches=1)
    bare = run_pww(gm_system(), cfg)
    with use_observer(Observer()):
        traced = run_pww(gm_system(), cfg)
    assert bare == traced
