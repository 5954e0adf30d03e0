"""The calibrated work loop and its dry-run measurement.

COMB's unit of "computation" is an iteration of an empty delay loop.  The
*dry run* phase times the loop with no communication at all; that figure is
the numerator of the availability metric:

    availability = time(work without messaging)
                   / time(work plus MPI calls while messaging)
"""

from __future__ import annotations

from typing import Dict, Iterator

from ..config import SystemConfig
from ..hardware.cluster import Cluster
from ..sim.engine import Engine

#: Iterations used by the honest dry-run measurement.
DRY_RUN_ITERS = 1_000_000


def dry_run_iter_time(system: SystemConfig) -> float:
    """Measure seconds per work-loop iteration on an otherwise idle node.

    This *runs* the loop through the simulated CPU rather than reading the
    configured constant, so scheduler or SMP effects (if any are configured)
    are captured — mirroring COMB's real dry-run phase.
    """
    engine = Engine()
    cluster = Cluster(engine, system, n_nodes=2)
    ctx = cluster[0].new_context("dryrun")
    iter_s = system.machine.cpu.work_iter_s
    result: Dict[str, float] = {}

    def loop() -> Iterator[object]:
        t0 = engine.now
        yield ctx.compute(DRY_RUN_ITERS * iter_s)
        result["elapsed"] = engine.now - t0

    proc = engine.spawn(loop(), name="dryrun")
    engine.run(proc)
    return result["elapsed"] / DRY_RUN_ITERS


def work_time(system: SystemConfig, iters: float) -> float:
    """Dry (no-communication) duration of ``iters`` loop iterations."""
    return iters * system.machine.cpu.work_iter_s
