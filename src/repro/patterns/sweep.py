"""Kripke-style KBA sweep: wavefront dependencies on a 2D process grid.

Koch-Baker-Alcouffe transport sweeps order work along a diagonal
wavefront: rank ``(i, j)`` cannot start its block until its upstream
neighbours ``(i-1, j)`` and ``(i, j-1)`` deliver their boundary angular
fluxes; after computing it forwards its own boundary downstream.  The
phase records therefore read differently from halo's: the *work* segment
includes the upstream pipeline-fill stall (the wavefront's structural
idleness), and the *wait* segment is the downstream send drain.  Corner
ranks see the widest availability spread — exactly the per-rank
min/median/max the aggregate metrics expose.
"""

from __future__ import annotations

from typing import Iterator, List

from ..mpi.request import Request
from .config import (
    PATTERN_TAG,
    PatternConfig,
    balanced_grid,
    grid_coords,
    grid_rank,
)


class SweepPlan:
    """Per-rank KBA-sweep iteration driver (sweep corner: rank 0)."""

    def __init__(self, cfg: PatternConfig, rank: int):
        self.shape = tuple(cfg.grid) if cfg.grid else balanced_grid(
            cfg.ranks, 2
        )
        coords = grid_coords(rank, self.shape)
        self.upstream: List[int] = []
        self.downstream: List[int] = []
        for ax in range(len(self.shape)):
            if coords[ax] > 0:
                up = list(coords)
                up[ax] -= 1
                self.upstream.append(grid_rank(up, self.shape))
            if coords[ax] < self.shape[ax] - 1:
                down = list(coords)
                down[ax] += 1
                self.downstream.append(grid_rank(down, self.shape))
        self.upstream.sort()
        self.downstream.sort()
        self.nbytes = cfg.msg_bytes

    def iteration(self, h, ctx, work_dry_s: float) -> Iterator[object]:
        """One wavefront step; returns phase durations."""
        engine = h.engine
        t0 = engine.now
        rreqs: List[Request] = []
        for peer in self.upstream:
            r = yield from h.irecv(peer, self.nbytes, tag=PATTERN_TAG)
            rreqs.append(r)
        t1 = engine.now
        if rreqs:
            yield from h.waitall(rreqs)
        yield ctx.compute(work_dry_s)
        t2 = engine.now
        sreqs: List[Request] = []
        for peer in self.downstream:
            s = yield from h.isend(peer, self.nbytes, tag=PATTERN_TAG)
            sreqs.append(s)
        if sreqs:
            yield from h.waitall(sreqs)
        t3 = engine.now
        return (t1 - t0, t2 - t1, t3 - t2)
