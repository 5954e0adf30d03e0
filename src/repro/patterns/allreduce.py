"""Allreduce pattern: the implicit-solver iteration skeleton.

Each iteration works for the configured interval, then enters a global
reduction — the dot products and convergence checks that bound every
Krylov solve.  There is nothing to post ahead, so the cycle's post phase
is empty and the whole collective lands in the wait segment; overlap
comes only from inside the collective (progress during the tree/exchange
rounds), which is what makes the allreduce scaling curve the sharpest
contrast between library-polled and offloaded stacks.
"""

from __future__ import annotations

from typing import Iterator

from ..mpi.collectives import (
    allreduce,
    allreduce_msgs,
    allreduce_rd,
    allreduce_rd_msgs,
)
from .config import PatternConfig


def expected_allreduce_msgs(algorithm: str, nranks: int) -> int:
    """Analytic total message count of one allreduce invocation."""
    if algorithm == "rd":
        return allreduce_rd_msgs(nranks)
    return allreduce_msgs(nranks)


class AllreducePlan:
    """Per-rank work + allreduce iteration driver."""

    def __init__(self, cfg: PatternConfig, rank: int):
        self.nbytes = cfg.msg_bytes
        self.collective = allreduce_rd if cfg.algorithm == "rd" else allreduce

    def iteration(self, h, ctx, work_dry_s: float) -> Iterator[object]:
        """One work → allreduce cycle; returns phase durations."""
        engine = h.engine
        t0 = engine.now
        yield ctx.compute(work_dry_s)
        t2 = engine.now
        yield from self.collective(h, self.nbytes)
        t3 = engine.now
        return (0.0, t2 - t0, t3 - t2)
