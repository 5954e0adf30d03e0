"""The COMB Post-Work-Wait (PWW) Method (paper §2.2, Fig 3).

Each cycle the worker: (1) posts a batch of non-blocking receives and
sends, (2) computes for a fixed *work interval* making **no** MPI calls,
(3) waits for the whole batch.  The strict post→work→wait order means the
underlying system can only overlap communication with the work phase if it
progresses messages without library intervention — i.e. if it provides
*application offload*.  Per-phase wall-clock durations are recorded; they
localize where host time goes (Figs 10–13).

Variants (paper §4.3):

* ``tests_in_work > 0`` inserts that many ``MPI_Test`` calls early in the
  work phase (Fig 17) — with a library-polled stack this single call is
  enough to launch the rendezvous data transfer and recover overlap.
* ``interleave > 1`` keeps several batches outstanding (the older PWW
  formulation the paper describes as redundant with the polling method).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator, Iterator, List

import numpy as np

from ..config import SystemConfig
from ..mpi.request import Request
from ..mpi.world import World, build_world
from .accounting import tally_events
from .results import PwwPoint

#: Message tag used by the benchmark streams.
COMB_TAG = 12


@dataclass
class PwwConfig:
    """Parameters of one PWW measurement."""

    #: Message payload size.
    msg_bytes: int = 100 * 1024
    #: Work-loop iterations in the work phase (the method's primary
    #: variable; the paper sweeps ~10^3 … 10^8).
    work_interval_iters: int = 100_000
    #: Messages per batch per direction (1 in the paper's final method).
    batch_msgs: int = 1
    #: Batches measured (after warmup).
    batches: int = 12
    #: Batches discarded as warmup.
    warmup_batches: int = 3
    #: ``MPI_Test`` calls inserted early in the work phase (Fig 17).
    tests_in_work: int = 0
    #: Fraction of the work interval executed before the first inserted
    #: test ("early in the work phase").
    test_at_frac: float = 0.1
    #: Outstanding batches (legacy interleaved formulation; 1 = paper's).
    interleave: int = 1


@dataclass
class PwwBatch:
    """Wall-clock phase durations of one PWW cycle."""

    post_s: float
    work_s: float
    wait_s: float


def run_pww(system: SystemConfig, cfg: PwwConfig) -> PwwPoint:
    """Run one PWW point on a fresh world and return it."""
    if cfg.work_interval_iters < 0:
        raise ValueError("work interval must be non-negative")
    if cfg.batch_msgs < 1 or cfg.batches < 1 or cfg.interleave < 1:
        raise ValueError("batch_msgs, batches and interleave must be >= 1")
    if not (0.0 <= cfg.test_at_frac <= 1.0):
        raise ValueError("test_at_frac must be within [0, 1]")
    world = build_world(system)
    worker = world.engine.spawn(_worker(world, cfg), name="comb.pww.worker")
    world.engine.spawn(_support(world, cfg), name="comb.pww.support")
    point: PwwPoint = world.engine.run(worker)
    tally_events(world.engine.events_processed)
    return point


def _worker(
    world: World, cfg: PwwConfig
) -> Generator[object, Any, PwwPoint]:
    engine = world.engine
    system = world.system
    node = world.cluster[0]
    ctx = node.new_context("comb.pww.worker")
    h = world.endpoint(0).bind(ctx)
    # Tracer seam (observability): hoisted so the detached path pays one
    # ``is None`` check per batch and nothing else.
    trace = engine.trace

    iter_s = system.machine.cpu.work_iter_s
    work_dry_s = cfg.work_interval_iters * iter_s
    total_batches = cfg.warmup_batches + cfg.batches

    records: List[PwwBatch] = []
    t_meas_start_s = None
    stats_start = None
    irq_start = 0

    # Legacy interleaving: keep a backlog of posted batches; wait on the
    # oldest once `interleave` batches are outstanding.
    backlog: List[List[Request]] = []

    for b in range(total_batches):
        if b == cfg.warmup_batches:
            t_meas_start_s = engine.now
            stats_start = h.device.stats.snapshot()
            irq_start = node.irq.count

        t0 = engine.now
        reqs: List[Request] = []
        for _ in range(cfg.batch_msgs):
            r = yield from h.irecv(src=1, nbytes=cfg.msg_bytes, tag=COMB_TAG)
            reqs.append(r)
        for _ in range(cfg.batch_msgs):
            s = yield from h.isend(1, cfg.msg_bytes, tag=COMB_TAG)
            reqs.append(s)
        backlog.append(reqs)
        t1 = engine.now

        # ---------------------------------------------------- work phase
        if cfg.tests_in_work > 0 and cfg.work_interval_iters > 0:
            head = cfg.work_interval_iters * cfg.test_at_frac
            yield ctx.compute(head * iter_s)
            for _ in range(cfg.tests_in_work):
                yield from h.testsome(reqs)
            yield ctx.compute((cfg.work_interval_iters - head) * iter_s)
        else:
            yield ctx.compute(work_dry_s)
        t2 = engine.now

        # ---------------------------------------------------- wait phase
        if len(backlog) >= cfg.interleave:
            oldest = backlog.pop(0)
            yield from h.waitall(oldest)
        t3 = engine.now
        records.append(PwwBatch(post_s=t1 - t0, work_s=t2 - t1, wait_s=t3 - t2))
        if trace is not None:
            # Schema: (batch_index, cycle_start_s, post_s, work_s, wait_s).
            trace.record(t3, "rank0.pww", "pww_phase",
                         (b, t0, t1 - t0, t2 - t1, t3 - t2))

    # Drain any interleaved leftovers outside the measurement (the last
    # measured batch's wait already happened above when interleave == 1).
    for reqs in backlog:
        yield from h.waitall(reqs)

    measured = records[cfg.warmup_batches:]
    # With interleave == 1 the backlog drain above was a no-op, so this is
    # exactly the sum of the measured cycles; with interleave > 1 it also
    # covers the tail drain (in-flight batches the window paid for).
    elapsed_s = engine.now - t_meas_start_s
    delta = h.device.stats.delta(stats_start)
    payload = delta.bytes_send_done + delta.bytes_recv_done
    return PwwPoint(
        system=system.name,
        msg_bytes=cfg.msg_bytes,
        work_interval_iters=cfg.work_interval_iters,
        availability=(len(measured) * work_dry_s) / elapsed_s,
        bandwidth_Bps=payload / elapsed_s,
        elapsed_s=elapsed_s,
        batches=len(measured),
        post_s=float(np.mean([r.post_s for r in measured])),
        work_s=float(np.mean([r.work_s for r in measured])),
        wait_s=float(np.mean([r.wait_s for r in measured])),
        work_dry_s=work_dry_s,
        batch_msgs=cfg.batch_msgs,
        tests_in_work=cfg.tests_in_work,
        interrupts=node.irq.count - irq_start,
    )


def _support(world: World, cfg: PwwConfig) -> Iterator[object]:
    """Mirror the worker's batches with no work phase."""
    ctx = world.cluster[1].new_context("comb.pww.support")
    h = world.endpoint(1).bind(ctx)
    while True:
        reqs: List[Request] = []
        for _ in range(cfg.batch_msgs):
            r = yield from h.irecv(src=0, nbytes=cfg.msg_bytes, tag=COMB_TAG)
            reqs.append(r)
        for _ in range(cfg.batch_msgs):
            s = yield from h.isend(0, cfg.msg_bytes, tag=COMB_TAG)
            reqs.append(s)
        yield from h.waitall(reqs)
