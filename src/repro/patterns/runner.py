"""Pattern runner: N rank processes on a topology, measured PWW-style.

Protocol (per rank): ``warmup_iterations`` untimed iterations, a
dissemination barrier, a per-rank measurement snapshot, ``iterations``
measured iterations, a per-rank closing snapshot.  Each measured
iteration emits the standard ``pww_phase`` trace event from source
``rank{r}.pattern`` when a tracer is attached, so the PR 5 span/
attribution machinery decomposes multi-rank stalls unchanged.

The paper's 8-port SAN switch caps a physical crossbar at 8 hosts;
larger crossbar worlds model an idealized single-stage fabric by
widening the switch to the rank count (the fat-tree is the physical
story at scale).  Two-rank worlds are untouched — the differential tests
pin them bit-identically against the recorded goldens.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterator

from ..config import SystemConfig
from ..core.accounting import tally_events
from ..hardware.topology import TopologyError, make_topology
from ..mpi.collectives import barrier_all
from ..mpi.world import World, build_world
from .allreduce import AllreducePlan
from .config import PatternConfig, validate_config
from .halo import HaloPlan
from .results import PatternPoint, RankSample, _median
from .sweep import SweepPlan

_PLANS = {
    "halo2d": HaloPlan,
    "halo3d": HaloPlan,
    "sweep": SweepPlan,
    "allreduce": AllreducePlan,
}


def _pattern_system(system: SystemConfig, cfg: PatternConfig) -> SystemConfig:
    """Widen the crossbar switch when the rank count exceeds its ports."""
    ports = system.machine.switch.ports
    if cfg.topology == "crossbar" and cfg.ranks > ports:
        machine = dataclasses.replace(
            system.machine,
            switch=dataclasses.replace(system.machine.switch,
                                       ports=cfg.ranks),
        )
        return dataclasses.replace(system, machine=machine)
    return system


def check_pattern(system: SystemConfig, cfg: PatternConfig) -> None:
    """Raise ``ValueError`` unless ``cfg`` can run on ``system`` — the
    config itself and its topology, checked before any world is built."""
    validate_config(cfg)
    topology = make_topology(cfg.topology, cfg.arity)
    capacity = topology.capacity(_pattern_system(system, cfg))
    if cfg.ranks > capacity:
        raise TopologyError(
            f"{cfg.ranks} ranks exceed the {cfg.topology}'s "
            f"{capacity}-node capacity"
        )


def build_pattern_world(system: SystemConfig, cfg: PatternConfig) -> World:
    """A fresh world shaped for ``cfg`` (topology + rank count)."""
    topology = make_topology(cfg.topology, cfg.arity)
    return build_world(_pattern_system(system, cfg), n_nodes=cfg.ranks,
                       topology=topology)


def run_pattern(system: SystemConfig, cfg: PatternConfig) -> PatternPoint:
    """Run one pattern point on a fresh world and return it."""
    check_pattern(system, cfg)
    world = build_pattern_world(system, cfg)
    samples: Dict[int, RankSample] = {}
    procs = [
        world.engine.spawn(
            _rank_proc(world, cfg, rank, samples),
            name=f"pattern.rank{rank}",
        )
        for rank in range(cfg.ranks)
    ]
    world.engine.run(world.engine.all_of(procs))
    tally_events(world.engine.events_processed)
    return _assemble(system, cfg, samples)


def _rank_proc(
    world: World, cfg: PatternConfig, rank: int, samples: Dict[int, RankSample]
) -> Iterator[object]:
    engine = world.engine
    node = world.cluster[rank]
    ctx = node.new_context(f"pattern.rank{rank}")
    h = world.endpoint(rank).bind(ctx)
    trace = engine.trace
    plan = _PLANS[cfg.pattern](cfg, rank)

    iter_s = world.system.machine.cpu.work_iter_s
    work_dry_s = cfg.work_interval_iters * iter_s

    for _ in range(cfg.warmup_iterations):
        yield from plan.iteration(h, ctx, work_dry_s)
    yield from barrier_all(h)

    t_start_s = engine.now
    stats_start = h.device.stats.snapshot()
    irq_start = node.irq.count

    total = cfg.warmup_iterations + cfg.iterations
    for b in range(cfg.warmup_iterations, total):
        t0 = engine.now
        post_s, work_s, wait_s = yield from plan.iteration(h, ctx, work_dry_s)
        if trace is not None:
            # Schema: (batch_index, cycle_start_s, post_s, work_s, wait_s)
            # — identical to the PWW driver's, so attribution reuses it.
            trace.record(engine.now, f"rank{rank}.pattern", "pww_phase",
                         (b, t0, post_s, work_s, wait_s))

    elapsed_s = engine.now - t_start_s
    delta = h.device.stats.delta(stats_start)
    samples[rank] = RankSample(
        rank=rank,
        elapsed_s=elapsed_s,
        availability=(cfg.iterations * work_dry_s) / elapsed_s,
        payload_bytes=delta.bytes_send_done + delta.bytes_recv_done,
        msgs_sent=delta.msgs_send_done,
        interrupts=node.irq.count - irq_start,
    )


def _assemble(
    system: SystemConfig, cfg: PatternConfig, samples: Dict[int, RankSample]
) -> PatternPoint:
    ordered = [samples[r] for r in range(cfg.ranks)]
    elapsed_s = max(s.elapsed_s for s in ordered)
    payload = sum(s.payload_bytes for s in ordered)
    per_rank = [s.availability for s in ordered]
    return PatternPoint(
        system=system.name,
        pattern=cfg.pattern,
        ranks=cfg.ranks,
        topology=cfg.topology,
        msg_bytes=cfg.msg_bytes,
        work_interval_iters=cfg.work_interval_iters,
        availability=_median(per_rank),
        bandwidth_Bps=payload / elapsed_s,
        elapsed_s=elapsed_s,
        iterations=cfg.iterations,
        availability_per_rank=per_rank,
        elapsed_per_rank=[s.elapsed_s for s in ordered],
        msgs=sum(s.msgs_sent for s in ordered),
        interrupts=sum(s.interrupts for s in ordered),
        algorithm=cfg.algorithm if cfg.pattern == "allreduce" else "",
    )
