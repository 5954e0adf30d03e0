"""Consistency checks between documentation and the repository.

Docs that reference files which do not exist rot silently; these tests
keep README.md, DESIGN.md and EXPERIMENTS.md anchored to reality.
"""

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _read(name: str) -> str:
    return (ROOT / name).read_text()


class TestReadme:
    def test_example_table_files_exist(self):
        for match in re.finditer(r"`examples/([\w.]+\.py)`", _read("README.md")):
            assert (ROOT / "examples" / match.group(1)).exists(), match.group(0)

    def test_quickstart_snippet_runs(self):
        """The README's quickstart code (default windows) must reproduce
        its advertised numbers (~88 MB/s at ~0.98)."""
        from repro import CombSuite, gm_system

        suite = CombSuite(gm_system())
        pt = suite.polling(msg_bytes=100 * 1024, poll_interval_iters=10_000)
        assert 84 < pt.bandwidth_MBps < 93
        assert pt.availability > 0.95

    def test_cli_commands_listed_exist(self):
        from repro.cli import _build_parser

        parser = _build_parser()
        sub = next(a for a in parser._actions
                   if hasattr(a, "choices") and a.choices)
        known = set(sub.choices)
        for cmd in re.findall(r"^comb (\w+)", _read("README.md"), re.M):
            assert cmd in known, f"README documents unknown command {cmd!r}"


class TestDesign:
    def test_every_figure_has_bench_target(self):
        """Every "Fig N" row of the figure index names its registry id
        (the id ``comb bench --ids`` and ``bench_figures.py`` run)."""
        from repro.analysis import FIGURE_SPECS

        rows = re.findall(r"^\| Fig (\d+) \|.*\| `(\w+)` \|$",
                          _read("DESIGN.md"), re.M)
        assert len(rows) == 14
        for number, fig_id in rows:
            assert fig_id in FIGURE_SPECS, fig_id
            assert fig_id == f"fig{int(number):02d}"

    def test_inventory_packages_exist(self):
        text = _read("DESIGN.md")
        for match in re.finditer(r"`repro\.(\w+)`", text):
            pkg = ROOT / "src" / "repro" / match.group(1)
            assert pkg.exists() or pkg.with_suffix(".py").exists(), \
                match.group(0)

    def test_all_14_figures_indexed(self):
        text = _read("DESIGN.md")
        for i in range(4, 18):
            assert f"Fig {i} " in text or f"Fig {i}|" in text or \
                f"| Fig {i} " in text, f"Fig {i} missing from index"


class TestExperiments:
    def test_bench_references_exist(self):
        text = _read("EXPERIMENTS.md")
        for match in re.finditer(r"`(bench_\w+\.py)`", text):
            assert (ROOT / "benchmarks" / match.group(1)).exists(), \
                match.group(0)

    def test_example_references_exist(self):
        text = _read("EXPERIMENTS.md")
        for match in re.finditer(r"`examples/([\w.]+\.py)`", text):
            assert (ROOT / "examples" / match.group(1)).exists(), \
                match.group(0)

    def test_stated_constants_match_config(self):
        """EXPERIMENTS.md's calibration table quotes live config values."""
        from repro.config import gm_system

        gm = gm_system()
        text = _read("EXPERIMENTS.md")
        assert "45 / 5 µs" in text
        assert gm.gm.eager_isend_s == pytest.approx(45e-6)
        assert gm.gm.rndv_isend_s == pytest.approx(5e-6)
        assert "91 MB/s" in text
        assert gm.machine.nic.host_dma_bandwidth_Bps == pytest.approx(91e6)


class TestBenchCoverage:
    def test_one_bench_per_results_figure(self):
        """``bench_figures.py`` runs one case per paper figure."""
        import importlib.util

        from repro.analysis import PAPER_FIGURES

        path = ROOT / "benchmarks" / "bench_figures.py"
        spec = importlib.util.spec_from_file_location("bench_figures", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        (mark,) = [m for m in module.test_figure.pytestmark
                   if m.name == "parametrize"]
        assert mark.args == ("fig_id", PAPER_FIGURES)
        assert set(PAPER_FIGURES) == {f"fig{i:02d}" for i in range(4, 18)}

    def test_every_ablation_in_design_exists(self):
        ablations = {p.name
                     for p in (ROOT / "benchmarks").glob("bench_ablation*.py")}
        assert len(ablations) >= 5
