"""Tests: figure generation, claims, ASCII plots, export, report."""

import json

import pytest

from repro.analysis import (
    ALL_CLAIMS,
    FIGURE_SPECS,
    PAPER_FIGURES,
    Curve,
    FigureData,
    export_figures,
    render,
    run_figure,
    write_csv,
    write_json,
)
from repro.analysis.claims import (
    check_fig08,
    check_fig11,
    check_fig13,
)


def synthetic_fig(fig_id="fig08", curves=None):
    return FigureData(
        fig_id=fig_id,
        title="t",
        xlabel="x",
        ylabel="y",
        curves=curves or [
            Curve("GM", [1, 10, 100], [88, 88, 40]),
            Curve("Portals", [1, 10, 100], [50, 50, 20]),
        ],
    )


class TestFigureData:
    def test_curve_lookup(self):
        fig = synthetic_fig()
        assert fig.curve("GM").y[0] == 88
        with pytest.raises(KeyError):
            fig.curve("nope")

    def test_to_dict_roundtrips_json(self):
        fig = synthetic_fig()
        blob = json.dumps(fig.to_dict())
        back = json.loads(blob)
        assert back["fig_id"] == "fig08"
        assert back["curves"][0]["label"] == "GM"

    def test_registry_complete(self):
        expected = {f"fig{i:02d}" for i in range(4, 18)}
        assert set(PAPER_FIGURES) == expected
        for fig_id, spec in FIGURE_SPECS.items():
            assert (spec.claims_id or fig_id) in ALL_CLAIMS, fig_id


class TestClaimCheckers:
    def test_fig08_passes_on_paper_shape(self):
        results = check_fig08(synthetic_fig())
        assert all(c.ok for c in results)

    def test_fig08_fails_when_portals_wins(self):
        fig = synthetic_fig(curves=[
            Curve("GM", [1, 10], [50, 50]),
            Curve("Portals", [1, 10], [88, 88]),
        ])
        assert not all(c.ok for c in check_fig08(fig))

    def test_fig11_detects_offload_signature(self):
        good = synthetic_fig("fig11", curves=[
            Curve("GM", [1e4, 1e7], [2300, 2300]),
            Curve("Portals", [1e4, 1e7], [3800, 10]),
        ])
        assert all(c.ok for c in check_fig11(good))
        bad = synthetic_fig("fig11", curves=[
            Curve("GM", [1e4, 1e7], [2300, 50]),      # GM drains?!
            Curve("Portals", [1e4, 1e7], [3800, 900]),
        ])
        assert not all(c.ok for c in check_fig11(bad))

    def test_fig13_gap_detection(self):
        flat = synthetic_fig("fig13", curves=[
            Curve("Work with MH", [1, 2], [100, 200]),
            Curve("Work Only", [1, 2], [100, 200]),
        ])
        assert all(c.ok for c in check_fig13(flat))
        gapped = synthetic_fig("fig13", curves=[
            Curve("Work with MH", [1, 2], [900, 1000]),
            Curve("Work Only", [1, 2], [100, 200]),
        ])
        assert not all(c.ok for c in check_fig13(gapped))


class TestAsciiPlot:
    def test_renders_title_axes_legend(self):
        out = render(synthetic_fig())
        assert "fig08" in out
        assert "o GM" in out and "x Portals" in out
        assert "[y]" in out

    def test_log_scale_labels(self):
        fig = synthetic_fig()
        fig.xscale = "log"
        out = render(fig)
        assert "1e" in out

    def test_empty_data_handled(self):
        fig = synthetic_fig(curves=[Curve("e", [], [])])
        assert "no finite data" in render(fig)

    def test_constant_curve_handled(self):
        fig = synthetic_fig(curves=[Curve("c", [1, 2], [5, 5])])
        fig.xscale = "linear"
        assert "c" in render(fig)


class TestExport:
    def test_csv_layout(self, tmp_path):
        path = write_csv(synthetic_fig(), tmp_path / "f.csv")
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "curve,x,y"
        assert len(lines) == 1 + 6  # header + 2 curves x 3 points

    def test_json_roundtrip(self, tmp_path):
        path = write_json(synthetic_fig(), tmp_path / "f.json")
        data = json.loads(path.read_text())
        assert data["fig_id"] == "fig08"

    def test_export_directory(self, tmp_path):
        figs = [synthetic_fig("fig08"), synthetic_fig("fig11")]
        written = export_figures(figs, tmp_path / "out")
        assert len(written) == 6  # csv + json + svg per figure
        assert (tmp_path / "out" / "fig11.csv").exists()
        assert (tmp_path / "out" / "fig11.svg").exists()


class TestRunFigure:
    def test_unknown_figure_rejected(self):
        with pytest.raises(KeyError):
            run_figure("fig99")

    def test_quick_regeneration_with_claims(self):
        # The fastest figure pair: PWW overhead on a tiny linear grid.
        rep = run_figure("fig13", grid=(100_000, 400_000))
        assert rep.figure.fig_id == "fig13"
        assert rep.ok, [c.detail for c in rep.claims]
