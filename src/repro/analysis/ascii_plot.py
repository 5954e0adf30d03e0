"""Terminal plotting: render :class:`FigureData` as ASCII scatter plots.

The benchmark harness has no display; these plots make the regenerated
figures reviewable straight from a terminal or a CI log.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence

from .registry import Curve, FigureData

#: Markers assigned to curves in order.
MARKERS = "ox+*#@%&"


def _transform(v: float, scale: str) -> float:
    if scale == "log":
        return math.log10(v) if v > 0 else float("-inf")
    return v


def render(fig: FigureData, width: int = 72, height: int = 20) -> str:
    """Render the figure into a character grid with axes and a legend."""
    xs: List[float] = []
    ys: List[float] = []
    for c in fig.curves:
        for x, y in zip(c.x, c.y):
            tx, ty = _transform(x, fig.xscale), _transform(y, fig.yscale)
            if math.isfinite(tx) and math.isfinite(ty):
                xs.append(tx)
                ys.append(ty)
    if not xs:
        return f"[{fig.fig_id}: no finite data]"
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if fig.yscale == "linear":
        y_lo = min(y_lo, 0.0)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0

    grid = [[" "] * width for _ in range(height)]

    def place(x: float, y: float, mark: str) -> None:
        tx, ty = _transform(x, fig.xscale), _transform(y, fig.yscale)
        if not (math.isfinite(tx) and math.isfinite(ty)):
            return
        col = int(round((tx - x_lo) / (x_hi - x_lo) * (width - 1)))
        row = int(round((ty - y_lo) / (y_hi - y_lo) * (height - 1)))
        grid[height - 1 - row][col] = mark

    for i, curve in enumerate(fig.curves):
        mark = MARKERS[i % len(MARKERS)]
        for x, y in zip(curve.x, curve.y):
            place(x, y, mark)

    def fmt(v: float, scale: str) -> str:
        if scale == "log":
            return f"1e{v:.1f}"
        return f"{v:.3g}"

    lines = [f"{fig.fig_id}: {fig.title}"]
    top_label = fmt(y_hi, fig.yscale)
    bot_label = fmt(y_lo, fig.yscale)
    label_w = max(len(top_label), len(bot_label))
    for r, row in enumerate(grid):
        if r == 0:
            prefix = top_label.rjust(label_w)
        elif r == height - 1:
            prefix = bot_label.rjust(label_w)
        else:
            prefix = " " * label_w
        lines.append(f"{prefix} |{''.join(row)}")
    lines.append(" " * label_w + " +" + "-" * width)
    lines.append(
        " " * label_w + f"  {fmt(x_lo, fig.xscale)}"
        + f"{fig.xlabel:^{max(0, width - 16)}}"
        + f"{fmt(x_hi, fig.xscale)}"
    )
    legend = "   ".join(
        f"{MARKERS[i % len(MARKERS)]} {c.label}" for i, c in enumerate(fig.curves)
    )
    lines.append(" " * label_w + f"  [{fig.ylabel}]  {legend}")
    return "\n".join(lines)
