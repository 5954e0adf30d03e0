"""Fan-in pattern: the polling method with many support peers.

The paper measures one worker against one support process; real
applications talk to several neighbours at once.  This pattern runs the
polling method with ``n_peers`` support processes (one per extra node),
all streaming messages at the single worker.  It answers: how do the
worker's CPU availability and aggregate bandwidth scale as communication
partners multiply?

For kernel transports the answer compounds badly — every peer's packets
interrupt the same worker CPU — while OS-bypass stacks only saturate the
worker's host bus.

The world is built through the :class:`~repro.hardware.topology.
Topology` seam, so fan-in runs on the fat-tree too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..config import SystemConfig
from ..core.polling import COMB_TAG, PollingConfig, _empty_poll_cost
from ..core.results import PollingPoint
from ..core.workloop import work_time
from ..hardware.topology import Topology
from ..mpi.world import World, build_world


@dataclass
class FanInPoint:
    """One multi-peer polling measurement."""

    point: PollingPoint
    n_peers: int

    @property
    def per_peer_bandwidth_Bps(self) -> float:
        """Aggregate bandwidth divided by peer count."""
        return self.point.bandwidth_Bps / self.n_peers


def run_fanin_polling(
    system: SystemConfig,
    cfg: PollingConfig,
    n_peers: int,
    topology: "Topology | None" = None,
) -> FanInPoint:
    """Polling method with ``n_peers`` support nodes feeding rank 0.

    ``topology`` selects the fabric; ``None`` keeps the paper's crossbar
    switch, whose port count caps the world at ``ports - 1`` peers.
    """
    if n_peers < 1:
        raise ValueError("need at least one peer")
    if topology is None and n_peers + 1 > system.machine.switch.ports:
        raise ValueError(
            f"{n_peers} peers + worker exceed the "
            f"{system.machine.switch.ports}-port switch"
        )
    world = build_world(system, n_nodes=n_peers + 1, topology=topology)
    state: dict = {}
    worker = world.engine.spawn(
        _fanin_worker(world, cfg, n_peers, state), name="fanin.worker"
    )
    for peer in range(1, n_peers + 1):
        world.engine.spawn(
            _fanin_support(world, cfg, peer), name=f"fanin.support{peer}"
        )
    world.engine.run(worker)
    return FanInPoint(point=state["result"], n_peers=n_peers)


def _fanin_worker(world: World, cfg: PollingConfig, n_peers: int, state: dict):
    engine = world.engine
    system = world.system
    node = world.cluster[0]
    ctx = node.new_context("fanin.worker")
    h = world.endpoint(0).bind(ctx)
    dev = h.device
    cpu = ctx.cpu

    iter_s = system.machine.cpu.work_iter_s
    p_iters = cfg.poll_interval_iters
    work_s = p_iters * iter_s
    cycle_s = work_s + _empty_poll_cost(system)

    # One pipeline per peer.
    recv_reqs = {}
    for peer in range(1, n_peers + 1):
        reqs = []
        for _ in range(cfg.queue_depth):
            r = yield from h.irecv(peer, cfg.msg_bytes, tag=COMB_TAG)
            reqs.append(r)
        recv_reqs[peer] = reqs
        for _ in range(cfg.queue_depth):
            yield from h.isend(peer, cfg.msg_bytes, tag=COMB_TAG)

    iters_done = 0.0
    measuring = False
    t_start_s = iters_start = 0.0
    stats_start = None
    irq_start = 0
    warmup_end = engine.now + max(cfg.warmup_s, 3 * cycle_s)
    t_end_s = float("inf")
    flat = [(peer, i) for peer, reqs in recv_reqs.items()
            for i in range(len(reqs))]

    while True:
        yield ctx.compute(work_s)
        iters_done += p_iters
        all_reqs = [recv_reqs[p][i] for p, i in flat]
        done_idx = yield from h.testsome(all_reqs)
        if done_idx:
            for k in done_idx:
                peer, i = flat[k]
                yield from h.isend(peer, cfg.msg_bytes, tag=COMB_TAG)
                recv_reqs[peer][i] = yield from h.irecv(
                    peer, cfg.msg_bytes, tag=COMB_TAG
                )
        elif not dev.has_work() and not any(r.done for r in all_reqs):
            horizon_at = t_end_s if measuring else warmup_end
            remaining = horizon_at - engine.now
            if remaining > 0:
                wake = dev.wakeup()
                stop_ev = engine.any_of([wake, engine.timeout(remaining)])
                u0 = cpu.context_time(ctx)
                yield cpu.spin_until(ctx, stop_ev)
                spun = cpu.context_time(ctx) - u0
                cycles = math.floor(spun / cycle_s) + 1
                leftover = cycles * cycle_s - spun
                if leftover > 0:
                    yield ctx.compute(leftover)
                iters_done += cycles * p_iters

        now = engine.now
        if not measuring:
            if now >= warmup_end:
                measuring = True
                t_start_s, iters_start = now, iters_done
                stats_start = dev.stats.snapshot()
                irq_start = node.irq.count
                t_end_s = t_start_s + max(cfg.measure_s, cfg.min_cycles * cycle_s)
        elif now >= t_end_s:
            break

    elapsed_s = engine.now - t_start_s
    iters = iters_done - iters_start
    delta = dev.stats.delta(stats_start)
    state["result"] = PollingPoint(
        system=system.name,
        msg_bytes=cfg.msg_bytes,
        poll_interval_iters=p_iters,
        availability=work_time(system, iters) / elapsed_s,
        bandwidth_Bps=(delta.bytes_send_done + delta.bytes_recv_done) / elapsed_s,
        elapsed_s=elapsed_s,
        iters=iters,
        polls=0,
        msgs=delta.msgs_send_done + delta.msgs_recv_done,
        interrupts=node.irq.count - irq_start,
    )


def _fanin_support(world: World, cfg: PollingConfig, rank: int):
    ctx = world.cluster[rank].new_context(f"fanin.support{rank}")
    h = world.endpoint(rank).bind(ctx)
    recv_reqs = []
    for _ in range(cfg.queue_depth):
        r = yield from h.irecv(0, cfg.msg_bytes, tag=COMB_TAG)
        recv_reqs.append(r)
    for _ in range(cfg.queue_depth):
        yield from h.isend(0, cfg.msg_bytes, tag=COMB_TAG)
    while True:
        yield from h.waitany(recv_reqs)
        for i, r in enumerate(recv_reqs):
            if r.done:
                yield from h.isend(0, cfg.msg_bytes, tag=COMB_TAG)
                recv_reqs[i] = yield from h.irecv(
                    0, cfg.msg_bytes, tag=COMB_TAG
                )
