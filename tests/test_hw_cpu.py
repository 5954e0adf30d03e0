"""Unit tests: the preemptible CPU model.

The availability metric rests entirely on this model being exact, so these
tests pin down the arithmetic: compute durations, interrupt stealing,
round-robin sharing, quantum continuation, spins and traps.
"""

import pytest

from repro.config import CpuConfig
from repro.hardware.cpu import CPU
from repro.sim import Engine, SimulationError


@pytest.fixture
def engine():
    return Engine()


@pytest.fixture
def cpu(engine):
    return CPU(engine, CpuConfig(), name="cpu")


def run_proc(engine, gen):
    p = engine.spawn(gen)
    engine.run(p)
    return p


class TestCompute:
    def test_exact_duration(self, engine, cpu):
        ctx = cpu.new_context("a")

        def proc():
            yield ctx.compute(0.25)
            return engine.now

        assert run_proc(engine, proc()).value == pytest.approx(0.25)
        assert ctx.user_time_s == pytest.approx(0.25)

    def test_zero_compute_completes_immediately(self, engine, cpu):
        ctx = cpu.new_context("a")

        def proc():
            yield ctx.compute(0.0)
            return engine.now

        assert run_proc(engine, proc()).value == 0.0

    def test_negative_compute_rejected(self, cpu):
        ctx = cpu.new_context("a")
        with pytest.raises(ValueError):
            ctx.compute(-1.0)

    def test_concurrent_compute_on_same_context_rejected(self, engine, cpu):
        ctx = cpu.new_context("a")
        ctx.compute(1.0)
        with pytest.raises(SimulationError):
            ctx.compute(1.0)

    def test_busy_flag(self, engine, cpu):
        ctx = cpu.new_context("a")
        assert not ctx.busy
        ctx.compute(1.0)
        assert ctx.busy
        engine.run()
        assert not ctx.busy

    def test_back_to_back_computes_no_gap(self, engine, cpu):
        ctx = cpu.new_context("a")

        def proc():
            for _ in range(5):
                yield ctx.compute(0.1)
            return engine.now

        assert run_proc(engine, proc()).value == pytest.approx(0.5)


class TestKernelPreemption:
    def test_kernel_stretches_user_wall_time(self, engine, cpu):
        ctx = cpu.new_context("a")
        done = {}

        def proc():
            yield ctx.compute(1.0)
            done["at"] = engine.now

        engine.spawn(proc())
        engine.schedule_callback(0.5, lambda: cpu.kernel_work(0.2))
        engine.run()
        assert done["at"] == pytest.approx(1.2)
        assert ctx.user_time_s == pytest.approx(1.0)
        assert cpu.kernel_time_s == pytest.approx(0.2)

    def test_kernel_fifo_when_queued(self, engine, cpu):
        order = []
        cpu.kernel_work(0.1, fn=lambda: order.append("first"))
        cpu.kernel_work(0.1, fn=lambda: order.append("second"))
        engine.run()
        assert order == ["first", "second"]
        assert engine.now == pytest.approx(0.2)

    def test_nested_kernel_work_keeps_fifo_and_conservation(self, engine,
                                                            cpu):
        """A completion ``fn`` that submits kernel work while other jobs
        are queued must not start two jobs at once."""
        order = []

        def first():
            order.append(("first", engine.now))
            cpu.kernel_work(1.0, fn=lambda: order.append(("third",
                                                         engine.now)))

        cpu.kernel_work(1.0, fn=first)
        cpu.kernel_work(1.0, fn=lambda: order.append(("second", engine.now)))
        engine.run()
        assert order == [("first", 1.0), ("second", 2.0), ("third", 3.0)]
        snap = cpu.snapshot()
        assert snap["kernel_s"] == cpu.kernel_time_s == 3.0
        assert snap["idle_s"] == 0.0
        assert (snap["user_s"] + snap["kernel_s"] + snap["idle_s"]
                == cpu.elapsed())

    def test_kernel_on_idle_cpu_runs_immediately(self, engine, cpu):
        fired = []
        cpu.kernel_work(0.3, fn=lambda: fired.append(engine.now))
        engine.run()
        assert fired == [pytest.approx(0.3)]

    def test_negative_kernel_cost_rejected(self, cpu):
        with pytest.raises(ValueError):
            cpu.kernel_work(-0.1)

    def test_interrupt_storm_accounting(self, engine, cpu):
        ctx = cpu.new_context("a")
        done = {}

        def proc():
            yield ctx.compute(1.0)
            done["at"] = engine.now

        def storm():
            for _ in range(100):
                yield engine.timeout(0.005)
                cpu.kernel_work(0.001)

        engine.spawn(proc())
        engine.spawn(storm())
        engine.run()
        assert done["at"] == pytest.approx(1.1)
        snap = cpu.snapshot()
        assert snap["user_s"] == pytest.approx(1.0)
        assert snap["kernel_s"] == pytest.approx(0.1)
        assert snap["idle_s"] == pytest.approx(0.0, abs=1e-9)

    def test_in_kernel_flag(self, engine, cpu):
        assert not cpu.in_kernel
        cpu.kernel_work(0.1)
        assert cpu.in_kernel
        engine.run()
        assert not cpu.in_kernel


class TestRoundRobin:
    def test_two_hogs_share_evenly(self, engine):
        cpu = CPU(engine, CpuConfig(timeslice_s=0.01))
        a, b = cpu.new_context("a"), cpu.new_context("b")
        finish = {}

        def proc(ctx, key):
            yield ctx.compute(0.05)
            finish[key] = engine.now

        engine.spawn(proc(a, "a"))
        engine.spawn(proc(b, "b"))
        engine.run()
        # Interleaved in 10 ms slices: a ends at 90 ms, b at 100 ms.
        assert finish["a"] == pytest.approx(0.09)
        assert finish["b"] == pytest.approx(0.10)

    def test_short_task_finishes_within_first_slice(self, engine):
        cpu = CPU(engine, CpuConfig(timeslice_s=0.01))
        a, b = cpu.new_context("a"), cpu.new_context("b")
        finish = {}

        def proc(ctx, key, dur):
            yield ctx.compute(dur)
            finish[key] = engine.now

        engine.spawn(proc(a, "a", 0.002))
        engine.spawn(proc(b, "b", 0.03))
        engine.run()
        assert finish["a"] == pytest.approx(0.002)
        assert finish["b"] == pytest.approx(0.032)

    def test_quantum_continuation_across_calls(self, engine):
        # A context chaining many small computes must not lose its slot to
        # a competitor after each one (syscall-heavy process semantics).
        cpu = CPU(engine, CpuConfig(timeslice_s=0.01))
        chatty, hog = cpu.new_context("chatty"), cpu.new_context("hog")
        finish = {}

        def chatty_proc():
            for _ in range(50):
                yield chatty.compute(0.0001)  # 5 ms total, within one slice
            finish["chatty"] = engine.now

        def hog_proc():
            yield hog.compute(0.05)
            finish["hog"] = engine.now

        engine.spawn(chatty_proc())
        engine.spawn(hog_proc())
        engine.run()
        # Chatty runs its 5 ms inside its first quantum, not 50 quanta.
        assert finish["chatty"] <= 0.016


class TestSpin:
    def test_spin_consumes_user_time_until_event(self, engine, cpu):
        ctx = cpu.new_context("a")
        ev = engine.event()
        out = {}

        def proc():
            yield cpu.spin_until(ctx, ev)
            out["wall"] = engine.now
            out["user"] = cpu.context_time(ctx)

        engine.spawn(proc())
        engine.schedule_callback(0.02, lambda: cpu.kernel_work(0.01))
        engine.schedule_callback(0.05, ev.succeed)
        engine.run()
        assert out["wall"] == pytest.approx(0.05)
        assert out["user"] == pytest.approx(0.04)  # 10 ms stolen by kernel

    def test_spin_on_triggered_event_returns_instantly(self, engine, cpu):
        ctx = cpu.new_context("a")
        ev = engine.event().succeed()

        def proc():
            yield cpu.spin_until(ctx, ev)
            return engine.now

        assert run_proc(engine, proc()).value == 0.0
        assert ctx.user_time_s == 0.0

    def test_spin_release_deferred_until_scheduled(self, engine):
        # Event fires while the spinner is off-CPU: the spinner observes it
        # only when scheduled again.
        cpu = CPU(engine, CpuConfig(timeslice_s=0.01))
        spinner, hog = cpu.new_context("s"), cpu.new_context("h")
        ev = engine.event()
        out = {}

        def spin_proc():
            yield cpu.spin_until(spinner, ev)
            out["observed"] = engine.now

        def hog_proc():
            yield hog.compute(0.03)

        engine.spawn(spin_proc())
        engine.spawn(hog_proc())
        # Fire while the hog holds the CPU (spinner rotated out at 10 ms;
        # hog runs 10–20 ms; event at 15 ms).
        engine.schedule_callback(0.015, ev.succeed)
        engine.run()
        assert out["observed"] == pytest.approx(0.02)

    def test_spin_while_busy_rejected(self, engine, cpu):
        ctx = cpu.new_context("a")
        ctx.compute(1.0)
        with pytest.raises(SimulationError):
            cpu.spin_until(ctx, engine.event())


class TestTrap:
    def test_trap_keeps_slot_against_competitor(self, engine):
        cpu = CPU(engine, CpuConfig(timeslice_s=0.01))
        syscaller, hog = cpu.new_context("sys"), cpu.new_context("hog")
        finish = {}

        def sys_proc():
            for _ in range(3):
                yield syscaller.compute(0.001)
                yield syscaller.trap(0.001)
            finish["sys"] = engine.now

        def hog_proc():
            yield hog.compute(0.05)
            finish["hog"] = engine.now

        engine.spawn(sys_proc())
        engine.spawn(hog_proc())
        engine.run()
        # All six 1 ms segments run contiguously (traps preempt the hog
        # and the syscaller keeps its quantum between them).
        assert finish["sys"] == pytest.approx(0.006)

    def test_trap_counts_as_kernel_time(self, engine, cpu):
        ctx = cpu.new_context("a")

        def proc():
            yield ctx.trap(0.02)

        run_proc(engine, proc())
        assert cpu.kernel_time_s == pytest.approx(0.02)
        assert ctx.user_time_s == 0.0

    def test_trap_fn_runs_at_completion(self, engine, cpu):
        ctx = cpu.new_context("a")
        fired = []

        def proc():
            yield ctx.trap(0.01, fn=lambda: fired.append(engine.now))

        run_proc(engine, proc())
        assert fired == [pytest.approx(0.01)]


class TestAccounting:
    def test_conservation_with_everything_mixed(self, engine):
        cpu = CPU(engine, CpuConfig(timeslice_s=0.01))
        a, b = cpu.new_context("a"), cpu.new_context("b")

        def proc(ctx, dur):
            yield ctx.compute(dur)
            yield engine.timeout(0.01)
            yield ctx.compute(dur / 2)

        def irqs():
            for _ in range(20):
                yield engine.timeout(0.003)
                cpu.kernel_work(0.0005)

        engine.spawn(proc(a, 0.02))
        engine.spawn(proc(b, 0.03))
        engine.spawn(irqs())
        engine.run()
        snap = cpu.snapshot()
        total = snap["user_s"] + snap["kernel_s"] + snap["idle_s"]
        assert total == pytest.approx(cpu.elapsed())
        assert snap["user_s"] == pytest.approx(0.02 + 0.01 + 0.03 + 0.015)
        assert snap["kernel_s"] == pytest.approx(20 * 0.0005)

    def test_context_time_includes_running_segment(self, engine, cpu):
        ctx = cpu.new_context("a")
        samples = []

        def proc():
            yield ctx.compute(0.1)

        def sampler():
            yield engine.timeout(0.05)
            samples.append(cpu.context_time(ctx))

        engine.spawn(proc())
        engine.spawn(sampler())
        engine.run()
        assert samples[0] == pytest.approx(0.05)

    def test_elapsed_relative_to_creation(self):
        eng = Engine()
        eng.timeout(5.0)
        eng.run()
        cpu = CPU(eng, CpuConfig())
        eng.timeout(2.0)
        eng.run()
        assert cpu.elapsed() == pytest.approx(2.0)
