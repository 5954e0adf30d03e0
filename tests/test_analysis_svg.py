"""Tests: the dependency-free SVG renderer."""

import math

import pytest

from repro.analysis import Curve, FigureData
from repro.analysis.svg_plot import (
    _fmt,
    _log_ticks,
    _nice_ticks,
    render_svg,
    write_svg,
)


def fig(xscale="log", yscale="linear", curves=None):
    return FigureData(
        "figXX", "A <Title> & more", "X axis", "Y axis",
        curves if curves is not None else [
            Curve("GM", [10, 100, 1000], [88, 85, 20]),
            Curve("Portals", [10, 100, 1000], [50, 48, 10]),
        ],
        xscale=xscale, yscale=yscale,
    )


class TestTickHelpers:
    def test_nice_ticks_round_values(self):
        ticks = _nice_ticks(0, 97)
        assert all(t == round(t, 10) for t in ticks)
        assert ticks[0] >= 0 and ticks[-1] <= 97 + 1e-9
        assert len(ticks) >= 3

    def test_nice_ticks_degenerate(self):
        assert _nice_ticks(5, 5) == [5]

    def test_log_ticks_powers_of_ten(self):
        ticks = _log_ticks(30, 40000)
        assert ticks == [10.0, 100.0, 1000.0, 10000.0, 100000.0]

    def test_fmt(self):
        assert _fmt(0) == "0"
        assert _fmt(100000) == "1e5"
        assert _fmt(0.5) == "0.5"
        assert _fmt(3.2e7) == "3.2e7"


class TestRenderSvg:
    def test_contains_structure(self):
        svg = render_svg(fig())
        assert svg.startswith("<svg")
        assert svg.count("<polyline") == 2
        assert svg.count("<circle") == 6
        assert "GM" in svg and "Portals" in svg

    def test_escapes_markup(self):
        svg = render_svg(fig())
        assert "&lt;Title&gt;" in svg and "&amp;" in svg
        assert "<Title>" not in svg

    def test_linear_axes(self):
        svg = render_svg(fig(xscale="linear"))
        assert "<svg" in svg

    def test_log_y_axis(self):
        svg = render_svg(fig(yscale="log"))
        assert "<svg" in svg

    def test_log_scale_drops_nonpositive_points(self):
        svg = render_svg(fig(curves=[Curve("c", [0, 10, 100], [1, 2, 3])]))
        # Point at x=0 cannot be mapped on a log axis; two remain.
        assert svg.count("<circle") == 2

    def test_empty_figure(self):
        svg = render_svg(fig(curves=[Curve("e", [], [])]))
        assert "no data" in svg

    def test_write_svg(self, tmp_path):
        path = write_svg(fig(), tmp_path / "nested" / "f.svg")
        assert path.exists()
        assert path.read_text().startswith("<svg")

    def test_export_writes_all_three_formats(self, tmp_path):
        from repro.analysis import export_figures

        written = export_figures([fig()], tmp_path)
        suffixes = sorted(p.suffix for p in written)
        assert suffixes == [".csv", ".json", ".svg"]
