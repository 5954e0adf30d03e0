"""Tests: SMP extension and what-if systems."""

import pytest

from repro.config import portals_system, gm_system
from repro.core import PollingConfig, PwwConfig, run_polling, run_pww
from repro.ext import (
    OffloadNicDevice,
    coalesced_portals,
    offload_nic_system,
    run_smp_polling,
    smp_system,
)

KB = 1024

FAST = dict(measure_s=0.015, warmup_s=0.003, min_cycles=3)


class TestSmp:
    def test_requires_multiple_cpus(self, portals):
        with pytest.raises(ValueError):
            run_smp_polling(portals, PollingConfig())

    def test_interrupts_hit_only_cpu0(self, portals):
        system = smp_system(portals, 2)
        result = run_smp_polling(system, PollingConfig(
            msg_bytes=100 * KB, poll_interval_iters=1_000, **FAST,
        ))
        assert len(result.per_cpu_availability) == 2
        cpu0, cpu1 = result.per_cpu_availability
        assert cpu0 < 0.6          # shares with worker + interrupts
        assert cpu1 > 0.97         # untouched by communication

    def test_four_way_node(self, portals):
        system = smp_system(portals, 4)
        result = run_smp_polling(system, PollingConfig(
            msg_bytes=100 * KB, poll_interval_iters=1_000, **FAST,
        ))
        assert len(result.per_cpu_availability) == 4
        assert all(a > 0.97 for a in result.per_cpu_availability[1:])

    def test_naive_figure_is_cpu0(self, portals):
        system = smp_system(portals, 2)
        result = run_smp_polling(system, PollingConfig(
            msg_bytes=100 * KB, poll_interval_iters=1_000, **FAST,
        ))
        assert result.naive_availability == result.per_cpu_availability[0]


class TestCoalescing:
    def test_improves_cpu_efficiency(self):
        """The Portals pipeline is CPU-bound, so the cycles coalescing
        saves surface as *throughput* at comparable availability: bytes
        moved per CPU-second consumed goes up."""
        stock = run_polling(portals_system(), PollingConfig(
            msg_bytes=100 * KB, poll_interval_iters=1_000, measure_s=0.05,
        ))
        better = run_polling(coalesced_portals(), PollingConfig(
            msg_bytes=100 * KB, poll_interval_iters=1_000, measure_s=0.05,
        ))

        def efficiency(pt):
            return pt.bandwidth_Bps / max(1e-9, 1.0 - pt.availability)

        assert efficiency(better) > efficiency(stock) * 1.03

    def test_counts_coalesced_interrupts(self):
        from repro.mpi import build_world

        world = build_world(coalesced_portals())
        engine = world.engine
        h0 = world.endpoint(0).bind(world.cluster[0].new_context("a"))
        h1 = world.endpoint(1).bind(world.cluster[1].new_context("b"))

        def rank0():
            yield from h0.recv(1, 100 * KB, tag=1)

        def rank1():
            yield from h1.send(0, 100 * KB, tag=1)

        p0 = engine.spawn(rank0())
        engine.spawn(rank1())
        engine.run(p0)
        assert world.cluster[0].irq.coalesced > 0


class TestOffloadNic:
    def test_best_of_both_worlds(self):
        """Offload + no interrupts: GM-class availability with Portals-class
        progress semantics — the design direction the paper motivates."""
        system = offload_nic_system()
        poll = run_polling(system, PollingConfig(
            msg_bytes=100 * KB, poll_interval_iters=1_000, **FAST,
        ))
        assert poll.availability > 0.85
        assert poll.bandwidth_MBps > 70
        assert poll.interrupts == 0

        pww = run_pww(system, PwwConfig(
            msg_bytes=100 * KB, work_interval_iters=5_000_000,
            batches=4, warmup_batches=1,
        ))
        assert pww.wait_s < 1e-4          # offloaded
        assert abs(pww.overhead_s) < 5e-5  # and interrupt-free

    def test_registered_device_builds_world(self):
        """``register_device`` is the plug-in path: every world built for
        the registered system name runs the custom device."""
        from repro.mpi import build_world

        world = build_world(offload_nic_system())
        assert world.size == 2
        assert all(isinstance(ep.device, OffloadNicDevice)
                   for ep in world.endpoints)
