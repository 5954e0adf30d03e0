"""Parity: ``Engine.run()`` is ``Engine.step()`` inlined.

The run loop duplicates :meth:`~repro.sim.engine.Engine.step`'s body for
speed (the simulator's hottest code), which creates a drift hazard: an
edit to one that misses the other would silently fork the semantics.
This test drives a *complete* benchmark scenario — a full polling
measurement with transports, DMA, interrupts, and both fast paths live —
once through ``run()`` and once through a manual ``step()`` loop, and
requires byte-identical measurements and identical event accounting.
"""

from repro.config import gm_system, portals_system
from repro.core.polling import PollingConfig, spawn_polling
from repro.mpi import build_world
from repro.patterns import PatternConfig
from repro.patterns.runner import _assemble, _rank_proc, build_pattern_world

import pytest

KB = 1024

CFG = PollingConfig(msg_bytes=100 * KB, poll_interval_iters=1_000,
                    measure_s=0.01, warmup_s=0.002, min_cycles=2)


def _run_with(system, stepped: bool):
    world = build_world(system)
    worker = spawn_polling(world, CFG)
    if stepped:
        # run(until=worker) stops after *processing* the worker's
        # termination event; stepping to `triggered` would stop one
        # event short and skew the accounting comparison.
        while not worker.processed:
            world.engine.step()
    else:
        world.engine.run(worker)
    assert worker.value is not None
    return worker.value, world.engine.events_processed


@pytest.mark.parametrize("factory", [gm_system, portals_system],
                         ids=["gm", "portals"])
def test_stepped_run_is_byte_identical(factory):
    via_run, n_run = _run_with(factory(), stepped=False)
    via_step, n_step = _run_with(factory(), stepped=True)
    assert via_step == via_run
    assert n_step == n_run


def _run_pattern_with(system, cfg, stepped: bool):
    """One multi-rank pattern point, via run() or a manual step() loop."""
    world = build_pattern_world(system, cfg)
    samples = {}
    procs = [
        world.engine.spawn(_rank_proc(world, cfg, rank, samples),
                           name=f"pattern.rank{rank}")
        for rank in range(cfg.ranks)
    ]
    # Both paths drive the same all_of gate: its completion is itself one
    # processed event, so stepping only until the last rank finishes
    # would come up one event short of run()'s accounting.
    gate = world.engine.all_of(procs)
    if stepped:
        while not gate.processed:
            world.engine.step()
    else:
        world.engine.run(gate)
    return _assemble(system, cfg, samples), world.engine.events_processed


@pytest.mark.parametrize("pattern,kwargs", [
    ("halo2d", dict(ranks=4)),
    ("allreduce", dict(ranks=5, algorithm="rd")),
], ids=["halo", "allreduce"])
@pytest.mark.parametrize("factory", [gm_system, portals_system],
                         ids=["gm", "portals"])
def test_stepped_pattern_run_is_byte_identical(factory, pattern, kwargs):
    # The N-rank completion path (all_of) exercises run()'s multi-waiter
    # bookkeeping, which the two-rank polling scenario above never hits.
    cfg = PatternConfig(pattern=pattern, msg_bytes=20 * KB,
                        work_interval_iters=20_000, iterations=3,
                        warmup_iterations=1, **kwargs)
    via_run, n_run = _run_pattern_with(factory(), cfg, stepped=False)
    via_step, n_step = _run_pattern_with(factory(), cfg, stepped=True)
    assert via_step == via_run
    assert n_step == n_run
