"""Multi-processor nodes (the paper's §7 future work).

The paper notes its availability metric breaks on SMP nodes: a single
dry-run ratio cannot tell *which* processor lost cycles to communication.
This extension builds nodes with several CPUs (interrupts still routed to
CPU 0, as on the era's Linux) and measures availability *per CPU* with one
calibrated load process on each, while rank 0's worker drives the polling
method on CPU 0.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import List

from ..config import SystemConfig
from ..core.polling import PollingConfig, spawn_polling
from ..mpi.world import build_world


@dataclass
class SmpAvailability:
    """Per-CPU availability on the worker node of an SMP polling run."""

    system: str
    msg_bytes: int
    poll_interval_iters: int
    #: Availability measured by the COMB worker on CPU 0 (work iterations
    #: vs wall time, as in the uniprocessor method).
    worker_availability: float
    #: Availability seen by an independent compute load on each CPU
    #: (index 0 = the CPU shared with the worker and the interrupts).
    per_cpu_availability: List[float]
    bandwidth_Bps: float

    @property
    def naive_availability(self) -> float:
        """What the uniprocessor method would report: CPU 0's figure,
        silently wrong for every other processor."""
        return self.per_cpu_availability[0]


def run_smp_polling(system: SystemConfig, cfg: PollingConfig) -> SmpAvailability:
    """Run the polling method on an SMP node, measuring every CPU.

    CPUs 1..N-1 run pure compute loads; their availability isolates how
    much communication (interrupts target CPU 0) perturbs each processor.
    """
    if system.cpus_per_node < 2:
        raise ValueError("run_smp_polling needs cpus_per_node >= 2")
    world = build_world(system)
    engine = world.engine
    node0 = world.cluster[0]
    iter_s = system.machine.cpu.work_iter_s

    worker = spawn_polling(world, cfg)

    # One measured load per extra CPU; plus a probe sharing CPU 0.
    loads = {}

    def load(cpu_index: int):
        ctx = node0.new_context(f"smp.load{cpu_index}", cpu_index=cpu_index)
        iters = 0
        t0 = engine.now
        chunk = 100_000
        while not worker.triggered:
            yield ctx.compute(chunk * iter_s)
            iters += chunk
        loads[cpu_index] = (iters * iter_s) / (engine.now - t0)

    load_procs = [
        engine.spawn(load(i), name=f"smp.load{i}")
        for i in range(1, system.cpus_per_node)
    ]
    pt = engine.run(worker)
    # Let each load finish its current chunk and record its figure.
    for proc in load_procs:
        engine.run(proc)

    # CPU 0's independent availability equals the worker's own measurement
    # (it shares the processor with the interrupt stream).
    per_cpu = [pt.availability] + [loads[i] for i in sorted(loads)]
    return SmpAvailability(
        system=system.name,
        msg_bytes=cfg.msg_bytes,
        poll_interval_iters=cfg.poll_interval_iters,
        worker_availability=pt.availability,
        per_cpu_availability=per_cpu,
        bandwidth_Bps=pt.bandwidth_Bps,
    )


def smp_system(base: SystemConfig, n_cpus: int = 2) -> SystemConfig:
    """Copy ``base`` with ``n_cpus`` processors per node."""
    return dataclasses.replace(base, cpus_per_node=n_cpus)
