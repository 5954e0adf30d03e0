"""Tests: the ``comb`` command-line interface."""

import json
from collections import defaultdict

import pytest

from repro.cli import main


class TestPointCommands:
    def test_polling(self, capsys):
        rc = main(["polling", "--system", "GM", "--size", "100",
                   "--interval", "10000"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "availability" in out and "bandwidth" in out

    def test_pww(self, capsys):
        rc = main(["pww", "--system", "Portals", "--size", "100",
                   "--interval", "100000"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "post" in out and "wait" in out

    def test_pww_with_tests_in_work(self, capsys):
        rc = main(["pww", "--system", "GM", "--interval", "1000000",
                   "--tests-in-work", "1"])
        assert rc == 0

    def test_offload(self, capsys):
        rc = main(["offload", "--system", "Portals"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "provides application offload" in out

    def test_netperf(self, capsys):
        rc = main(["netperf", "--system", "GM", "--mode", "busywait"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "availability" in out


    def test_profile_output_pinned(self, capsys):
        """``comb profile`` stdout is a pure function of the simulation:
        the point line, per-label kernel rows and CPU shares are pinned."""
        rc = main(["profile", "--system", "Portals"])
        lines = capsys.readouterr().out.splitlines()
        assert rc == 0
        assert lines[0] == "Portals: bw=47.78 MB/s, availability=0.296"
        assert lines[2] == "[worker] node0.cpu0: kernel 24.447 ms"
        assert lines[3] == ("  portals_rx           n=221     total=   "
                            "16.203 ms  mean=  73.32 us")
        assert lines.count(
            "  shares: user=0.312 kernel=0.688 idle=0.000") == 2
        assert "[support] node1.cpu0: kernel 24.447 ms" in lines


class TestFiguresCommand:
    def test_single_figure_with_export(self, capsys, tmp_path):
        rc = main(["figures", "--ids", "fig13", "--out", str(tmp_path),
                   "--no-plots"])
        out = capsys.readouterr().out
        assert rc == 0
        assert (tmp_path / "fig13.csv").exists()
        data = json.loads((tmp_path / "fig13.json").read_text())
        assert data["fig_id"] == "fig13"
        assert "[PASS]" in out

    def test_plots_rendered_by_default(self, capsys):
        rc = main(["figures", "--ids", "fig13", "--per-decade", "1"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "Work Interval" in out


class TestMetricsFlag:
    def test_figures_metrics_writes_sidecar(self, capsys, tmp_path):
        # --no-cache forces simulation so sim-level metrics are present
        # regardless of the developer's .comb_cache state.
        rc = main(["figures", "--ids", "fig13", "--out", str(tmp_path),
                   "--no-plots", "--metrics", "--no-cache"])
        out = capsys.readouterr().out
        assert rc == 0
        doc = json.loads((tmp_path / "metrics.json").read_text())
        assert "schema_version" in doc
        assert "sim.pww.batches" in doc["metrics"]["counters"]
        assert "executor.points_simulated" in doc["metrics"]["counters"]
        assert doc["executor"]["misses"] > 0  # hit/miss stats merged in
        assert "metrics.json" in out

    def test_figures_metrics_values_unchanged(self, capsys, tmp_path):
        main(["figures", "--ids", "fig13", "--out", str(tmp_path),
              "--no-plots"])
        plain = json.loads((tmp_path / "fig13.json").read_text())
        main(["figures", "--ids", "fig13", "--out", str(tmp_path),
              "--no-plots", "--metrics"])
        observed = json.loads((tmp_path / "fig13.json").read_text())
        capsys.readouterr()
        assert observed == plain


class TestTraceCommand:
    def test_trace_pww_point_exports_all_three(self, capsys, tmp_path):
        rc = main(["trace", "pww", "--system", "GM", "--size", "32",
                   "--interval", "10000", "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 0
        trace = json.loads((tmp_path / "pww.trace.json").read_text())
        assert trace["otherData"]["schema_version"] >= 1
        phases = {ev["ph"] for ev in trace["traceEvents"]}
        assert {"M", "X"} <= phases  # metadata + pww slices
        assert (tmp_path / "pww.timeline.csv").exists()
        metrics = json.loads((tmp_path / "pww.metrics.json").read_text())
        assert metrics["metrics"]["counters"]["sim.pww.batches"] > 0
        assert "trace" in out.lower() or str(tmp_path) in out

    def test_trace_polling_point(self, capsys, tmp_path):
        rc = main(["trace", "polling", "--system", "Portals", "--size", "64",
                   "--interval", "10000", "--out", str(tmp_path)])
        capsys.readouterr()
        assert rc == 0
        metrics = json.loads((tmp_path / "polling.metrics.json").read_text())
        counters = metrics["metrics"]["counters"]
        assert counters.get("sim.poll.hits", 0) > 0

    def test_trace_figure(self, capsys, tmp_path):
        rc = main(["trace", "fig13", "--out", str(tmp_path)])
        capsys.readouterr()
        assert rc == 0
        trace = json.loads((tmp_path / "fig13.trace.json").read_text())
        assert len(trace["traceEvents"]) > 0
        metrics = json.loads((tmp_path / "fig13.metrics.json").read_text())
        assert "executor.points_simulated" in metrics["metrics"]["counters"]

    def test_trace_unknown_target(self, capsys, tmp_path):
        rc = main(["trace", "fig99", "--out", str(tmp_path)])
        err_or_out = capsys.readouterr()
        assert rc == 2
        assert "unknown trace target" in err_or_out.out + err_or_out.err


def _stub_figures(monkeypatch):
    """Make every registry figure instant: an empty figure, no claims.

    Every command reaches figures through ``report.run_figure``, so the
    stub proves which ids each command resolves without simulating.
    """
    from repro.analysis import FigureData, report

    built = []

    def build(spec, **knobs):
        built.append(spec.fig_id)
        return FigureData(spec.fig_id, spec.title, spec.xlabel,
                          spec.ylabel, [])

    monkeypatch.setattr(report, "build_figure", build)
    monkeypatch.setattr(report, "ALL_CLAIMS",
                        defaultdict(lambda: lambda fig: []))
    return built


def _one_line_error(err: str) -> str:
    lines = err.strip().splitlines()
    assert len(lines) == 1 and "Traceback" not in err, err
    return lines[0]


class TestFigureIds:
    """One registry lookup: every command takes exactly ``FIGURE_SPECS``."""

    @pytest.mark.parametrize("command", ["figures", "bench", "trace"])
    def test_every_registry_id_accepted(self, command, capsys, tmp_path,
                                        monkeypatch):
        from repro.analysis import FIGURE_SPECS

        built = _stub_figures(monkeypatch)
        ids = sorted(FIGURE_SPECS)
        if command == "trace":
            for fig_id in ids:
                assert main(["trace", fig_id, "--out", str(tmp_path)]) == 0
        elif command == "bench":
            assert main(["bench", "--ids", *ids, "--no-cache", "--no-ledger",
                         "--out-dir", str(tmp_path)]) == 0
        else:
            assert main(["figures", "--ids", *ids, "--no-plots",
                         "--no-cache", "--no-ledger"]) == 0
        assert built == ids
        capsys.readouterr()

    @pytest.mark.parametrize("argv", [
        ["figures", "--ids", "fig04", "fig99"],
        ["bench", "--ids", "fig99"],
        ["bench", "--ids", "fig13", "--profile", "fig99"],
        ["trace", "fig99"],
    ], ids=["figures", "bench-ids", "bench-profile", "trace"])
    def test_unknown_id_is_one_line_error(self, argv, capsys, tmp_path,
                                          monkeypatch):
        built = _stub_figures(monkeypatch)
        out_dir = tmp_path / "bench"
        extra = (["--out", str(tmp_path)] if argv[0] == "trace" else
                 ["--out-dir", str(out_dir), "--no-ledger"]
                 if argv[0] == "bench" else [])
        assert main(argv + extra) == 2
        line = _one_line_error(capsys.readouterr().err)
        assert line.startswith("error: ") and "fig99" in line
        if argv[0] != "trace":
            assert line.startswith("error: unknown figure 'fig99'; have [")
            assert "scale_halo" in line and "fig04_ci" in line
        assert built == []  # rejected before any figure ran
        assert not out_dir.exists()  # and before any record was written

    def test_run_all_checks_every_id_first(self, monkeypatch):
        from repro.analysis import run_all

        built = _stub_figures(monkeypatch)
        with pytest.raises(KeyError, match="unknown figure 'fig99'"):
            run_all(fig_ids=["fig04", "fig99"])
        assert built == []
        reports = run_all(per_decade=1)
        assert [r.figure.fig_id for r in reports] == \
            [f"fig{n:02d}" for n in range(4, 18)]


class TestParsing:
    def test_unknown_system_rejected(self):
        with pytest.raises(SystemExit):
            main(["polling", "--system", "Elan"])

    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            main([])


class TestOutOfRangeFlags:
    """An out-of-range number is one ``error:`` line and exit 2."""

    @pytest.mark.parametrize("argv", [
        ["polling", "--size", "-1"],
        ["polling", "--interval", "-5"],
        ["pww", "--interval", "-1"],
        ["offload", "--size", "-1"],
        ["netperf", "--size", "-3"],
        ["trace", "polling", "--size", "-2"],
        ["figures", "--ids", "fig04", "--per-decade", "0"],
        ["bench", "--per-decade", "-1"],
        ["figures", "--reps", "2", "--ci-width", "-1"],
        ["polling", "--size", "nan"],
    ], ids=" ".join)
    def test_one_error_line(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines() if "error:" in line]
        assert "Traceback" not in err
        assert len(errors) == 1 and "error: argument" in errors[0], err


class TestBadPatternAndScenarioInput:
    """Bad pattern/scenario input is one ``error:`` line and exit 2."""

    SCENARIOS = {
        "unknown-preset": {"systems": [{"preset": "Nope"}],
                           "experiments": [{"kind": "polling"}]},
        "unknown-kind": {"systems": [{"preset": "GM"}],
                         "experiments": [{"kind": "bogus"}]},
        "rank-capacity": {"systems": [{"preset": "GM"}],
                          "experiments": [{"kind": "pattern",
                                           "topology": "fattree",
                                           "rank_counts": [100]}]},
        "unknown-config-key": {"systems": [{"preset": "GM"}],
                               "experiments": [{"kind": "polling",
                                                "config": {"bogus_key": 1}}]},
        "non-numeric-msg-kb": {"systems": [{"preset": "GM"}],
                               "experiments": [{"kind": "polling",
                                                "msg_kb": "abc"}]},
        "negative-msg-kb": {"systems": [{"preset": "GM"}],
                            "experiments": [{"kind": "polling",
                                             "msg_kb": -1}]},
        "negative-polling-interval": {"systems": [{"preset": "GM"}],
                                      "experiments": [{"kind": "polling",
                                                       "intervals": [-5]}]},
        "negative-pww-interval": {"systems": [{"preset": "GM"}],
                                  "experiments": [{"kind": "pww",
                                                   "intervals": [-5]}]},
    }

    @pytest.mark.parametrize("case", [
        "trace-capacity", "unknown-preset", "unknown-kind", "missing-file",
        "rank-capacity", "unknown-config-key", "non-numeric-msg-kb",
        "negative-msg-kb", "negative-polling-interval",
        "negative-pww-interval",
    ])
    def test_one_line_error(self, case, capsys, tmp_path):
        if case == "trace-capacity":
            argv = ["trace", "halo", "--ranks", "100", "--topology",
                    "fattree", "--out", str(tmp_path / "trace")]
        else:
            spec = tmp_path / "spec.json"
            if case != "missing-file":
                spec.write_text(json.dumps(self.SCENARIOS[case]))
            argv = ["scenario", str(spec),
                    "--ledger-dir", str(tmp_path / "ledger")]
        assert main(argv) == 2
        assert _one_line_error(capsys.readouterr().err).startswith("error: ")
