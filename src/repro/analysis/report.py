"""Reproduction report: regenerate figures, check claims, render text."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, List, Optional, Sequence

from ..core.executor import SweepExecutor, use_executor
from .ascii_plot import render
from .claims import ALL_CLAIMS, ClaimResult
from .registry import PAPER_FIGURES, FigureData, build_figure, figure_spec


@dataclass
class FigureReport:
    """One regenerated figure plus its claim checks."""

    figure: FigureData
    claims: List[ClaimResult] = field(default_factory=list)
    #: Wall-clock spent regenerating this figure (ledger/stream feed).
    wall_s: float = 0.0

    @property
    def ok(self) -> bool:
        """All claims for this figure hold."""
        return all(c.ok for c in self.claims)


def run_figure(fig_id: str, executor: Optional[SweepExecutor] = None,
               **knobs: Any) -> FigureReport:
    """Regenerate one registry figure and check its claims.

    ``knobs`` go to :func:`~repro.analysis.registry.build_figure`
    (``per_decade``, ``sizes``, ``msg_bytes``, ``grid``, …).
    ``executor`` parallelizes/caches the figure's sweeps (see
    :class:`~repro.core.executor.SweepExecutor`); ``None`` keeps the
    serial reference path.
    """
    spec = figure_spec(fig_id)
    telemetry = executor.telemetry if executor is not None else None
    timed = telemetry is not None or (
        executor is not None and executor.point_log
    )
    if telemetry is not None:
        telemetry.emit("figure_start", figure=fig_id)
    t0_wall = time.perf_counter() if timed else 0.0
    with use_executor(executor):
        fig = build_figure(spec, **knobs)
    wall_s = time.perf_counter() - t0_wall if timed else 0.0
    if telemetry is not None:
        telemetry.emit("figure_end", figure=fig_id, wall_s=wall_s)
    claims = ALL_CLAIMS[spec.claims_id or fig_id](fig)
    return FigureReport(fig, claims, wall_s=wall_s)


def run_all(per_decade: int = 2,
            fig_ids: Optional[Sequence[str]] = None,
            executor: Optional[SweepExecutor] = None) -> List[FigureReport]:
    """Regenerate every requested figure (default: :data:`PAPER_FIGURES`).

    Every id is looked up before the first figure runs.  A shared
    ``executor`` makes overlapping figures nearly free: points already
    simulated for an earlier figure come back from its memo/cache.  Its
    :attr:`~repro.core.executor.SweepExecutor.point_records` are stamped
    with the ``figure`` that requested them (the run ledger's feed).
    """
    ids = list(fig_ids) if fig_ids else list(PAPER_FIGURES)
    for fid in ids:
        figure_spec(fid)
    reports: List[FigureReport] = []
    for fid in ids:
        start = len(executor.point_records) if executor is not None else 0
        reports.append(run_figure(fid, executor=executor,
                                  per_decade=per_decade))
        if executor is not None:
            for point in executor.point_records[start:]:
                point["figure"] = fid
    return reports


def format_report(reports: Sequence[FigureReport], plots: bool = True) -> str:
    """Human-readable reproduction report."""
    lines: List[str] = []
    n_ok = sum(1 for r in reports for c in r.claims if c.ok)
    n_all = sum(len(r.claims) for r in reports)
    lines.append(f"COMB reproduction report — {n_ok}/{n_all} claims hold")
    lines.append("=" * 64)
    for rep in reports:
        lines.append("")
        if plots:
            lines.append(render(rep.figure))
        else:
            lines.append(f"{rep.figure.fig_id}: {rep.figure.title}")
        for c in rep.claims:
            mark = "PASS" if c.ok else "FAIL"
            lines.append(f"  [{mark}] {c.claim} ({c.detail})")
        if rep.figure.notes:
            lines.append(f"  note: {rep.figure.notes}")
    return "\n".join(lines)
