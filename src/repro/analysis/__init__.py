"""Analysis layer: figure regeneration, claim checks, plots, export."""

from .ascii_plot import render
from .claims import ALL_CLAIMS, ClaimResult
from .export import export_figures, write_csv, write_json
from .svg_plot import render_svg, write_svg
from .knees import Knee, find_knee_iters, format_knees, knee_table, measure_knee
from .registry import (
    FIGURE_SPECS,
    PAPER_FIGURES,
    Curve,
    CurveSpec,
    FigureData,
    FigureSpec,
    build_figure,
    figure_spec,
)
from .report import FigureReport, format_report, run_all, run_figure
from .tables import (
    HEADERS,
    SystemSummary,
    format_table,
    summarize_system,
    system_comparison,
)

__all__ = [
    "ALL_CLAIMS",
    "ClaimResult",
    "Curve",
    "CurveSpec",
    "FIGURE_SPECS",
    "FigureData",
    "FigureReport",
    "FigureSpec",
    "PAPER_FIGURES",
    "build_figure",
    "figure_spec",
    "HEADERS",
    "Knee",
    "SystemSummary",
    "export_figures",
    "format_report",
    "find_knee_iters",
    "format_knees",
    "format_table",
    "knee_table",
    "measure_knee",
    "render",
    "render_svg",
    "write_svg",
    "summarize_system",
    "system_comparison",
    "run_all",
    "run_figure",
    "write_csv",
    "write_json",
]
