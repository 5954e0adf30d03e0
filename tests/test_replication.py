"""Replicated measurement end to end: executor, cache, registry, CLI.

The load-bearing contract is **bit-identity with replication disabled**:
``reps=1`` routes through exactly the pre-replication executor, so the
full golden suite reproduces ``tests/golden_values.json`` unchanged
(satellite of PR 9).  On top of that, deterministic replicated runs must
report zero disagreements, zero-width CIs, and identical summaries
across invocations; stochastic runs (fault injection armed) get genuine
intervals; and the figure registry's ``*_ci`` variants render bands.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.config import gm_system, portals_system
from repro.core import PointTask, PollingConfig, SweepExecutor
from repro.scenario import run_scenario
from repro.stats import STOP_CI_WIDTH, STOP_FIXED

from tests.test_verify_golden_drift import (
    ALLREDUCE_CFG,
    GOLDEN_PATH,
    HALO_CFG,
    POLL_CFG,
    PWW_CFG,
)

KB = 1024

#: Every recorded point task, keyed by its golden entry.
GOLDEN_FIELDS = {
    "GM.polling.100KB.1e3": ("availability", "bandwidth_Bps",
                             "msgs", "interrupts"),
    "GM.pww.100KB.1e5": ("availability", "bandwidth_Bps",
                         "post_s", "work_s", "wait_s"),
    "Portals.polling.100KB.1e3": ("availability", "bandwidth_Bps",
                                  "msgs", "interrupts"),
    "Portals.pww.100KB.1e5": ("availability", "bandwidth_Bps",
                              "post_s", "work_s", "wait_s"),
    "GM.pattern.halo2d.4r": ("availability", "bandwidth_Bps",
                             "msgs", "interrupts"),
    "Portals.pattern.allreduce.4r": ("availability", "bandwidth_Bps",
                                     "msgs", "interrupts"),
}


def _golden_tasks():
    return [
        PointTask("polling", gm_system(), POLL_CFG),
        PointTask("pww", gm_system(), PWW_CFG),
        PointTask("polling", portals_system(), POLL_CFG),
        PointTask("pww", portals_system(), PWW_CFG),
        PointTask("pattern", gm_system(), HALO_CFG),
        PointTask("pattern", portals_system(), ALLREDUCE_CFG),
    ]


#: Quick full-path polling point for replicated runs (sub-second).
QUICK_CFG = PollingConfig(msg_bytes=50 * KB, poll_interval_iters=1_000,
                          measure_s=0.005, warmup_s=0.002, min_cycles=2)
QUICK_TASK = PointTask("polling", gm_system(), QUICK_CFG)


def _stochastic_system(seed=7, rate=0.02):
    system = portals_system()
    fault = dataclasses.replace(system.machine.fault, data_loss_rate=rate)
    machine = dataclasses.replace(system.machine, fault=fault)
    return dataclasses.replace(system, machine=machine, seed=seed)


# ---------------------------------------------------- reps=1 bit-identity
def test_reps1_golden_suite_unchanged():
    """The full golden suite through the replicated code path with
    replication disabled is bit-identical to the recorded goldens."""
    golden = json.loads(GOLDEN_PATH.read_text())
    points = SweepExecutor(jobs=1, reps=1).run(_golden_tasks())
    for point, (key, fields) in zip(points, GOLDEN_FIELDS.items()):
        for f in fields:
            assert getattr(point, f) == golden[key][f], (key, f)
        assert point.replication is None
        assert "replication" not in point.to_dict()


def test_reps1_equals_single_shot():
    single = SweepExecutor(jobs=1).run([QUICK_TASK])[0]
    via_reps = SweepExecutor(jobs=1).run([QUICK_TASK], reps=1)[0]
    assert via_reps == single


# ------------------------------------------------- deterministic replication
@pytest.fixture(scope="module")
def replicated():
    """The quick point replicated (reps=3) plus its single-shot twin."""
    single = SweepExecutor(jobs=1).run([QUICK_TASK])[0]
    ex = SweepExecutor(jobs=1)
    point = ex.run([QUICK_TASK], reps=3)[0]
    return single, point, ex


def test_replicated_base_fields_match_single_shot(replicated):
    single, point, _ex = replicated
    assert dataclasses.replace(point, replication=None) == single


def test_replicated_zero_disagreements_and_zero_width_ci(replicated):
    _single, point, ex = replicated
    assert ex.disagreements == []
    summary = point.replication
    assert summary["reps"] == 3
    assert summary["disagreements"] == 0
    assert summary["stopping_reason"] == STOP_FIXED
    for name, m in summary["metrics"].items():
        assert m["ci_low"] == m["ci_high"] == m["median"], name
        assert m["min"] == m["max"] == m["mean"], name
        assert m["std"] == 0.0, name


def test_replication_summary_identical_across_invocations(replicated):
    _single, point, _ex = replicated
    again = SweepExecutor(jobs=1).run([QUICK_TASK], reps=3)[0]
    assert again.to_dict() == point.to_dict()


def test_adaptive_stopping_on_deterministic_point():
    """Zero-width CI at min_reps: adaptive designs stop at 3, not 8."""
    point = SweepExecutor(jobs=1).run([QUICK_TASK], reps=8,
                                      ci_width=0.01)[0]
    assert point.replication["reps"] == 3
    assert point.replication["stopping_reason"] == STOP_CI_WIDTH


def test_duplicate_tasks_share_replicates():
    ex = SweepExecutor(jobs=1)
    a, b = ex.run([QUICK_TASK, QUICK_TASK], reps=3)
    assert a == b
    assert a is not b


# ---------------------------------------------------------------- caching
def test_warm_cache_feeds_replicated_runs(tmp_path):
    """Raw replicates are cached individually: a second replicated run
    simulates nothing, and a single-shot run reuses replicate 0."""
    cold = SweepExecutor(jobs=1, cache=tmp_path / "cache")
    point_cold = cold.run([QUICK_TASK], reps=3)[0]
    assert cold.stats.misses == 3

    warm = SweepExecutor(jobs=1, cache=tmp_path / "cache")
    point_warm = warm.run([QUICK_TASK], reps=3)[0]
    assert warm.stats.misses == 0
    assert warm.stats.hits == 3
    assert point_warm.to_dict() == point_cold.to_dict()

    single = SweepExecutor(jobs=1, cache=tmp_path / "cache")
    point_single = single.run([QUICK_TASK])[0]
    assert single.stats.misses == 0
    assert single.stats.hits == 1
    assert point_single == dataclasses.replace(point_cold, replication=None)


# ------------------------------------------------------------- stochastic
def test_stochastic_replicates_get_genuine_ci():
    task = PointTask("polling", _stochastic_system(), QUICK_CFG)
    ex = SweepExecutor(jobs=1)
    point = ex.run([task], reps=4)[0]
    summary = point.replication
    avail = summary["metrics"]["availability"]
    assert avail["std"] > 0.0
    assert avail["ci_high"] > avail["ci_low"]
    # Stochastic systems skip the disagreement check: divergence is noise.
    assert ex.disagreements == []
    assert summary["disagreements"] == 0


def test_stochastic_replication_reproducible():
    task = PointTask("polling", _stochastic_system(), QUICK_CFG)
    a = SweepExecutor(jobs=1).run([task], reps=4)[0]
    b = SweepExecutor(jobs=1).run([task], reps=4)[0]
    assert a.to_dict() == b.to_dict()


# ---------------------------------------------------------------- registry
def test_ci_variants_registered():
    from repro.analysis import FIGURE_SPECS, PAPER_FIGURES

    for fig_id, base in (("fig04_ci", "fig04"), ("fig11_ci", "fig11")):
        spec = FIGURE_SPECS[fig_id]
        assert spec.reps == 5
        assert spec.ci_width == 0.02
        assert spec.claims_id == base
        # Opt-in by id: the default paper grid is unchanged.
        assert fig_id not in PAPER_FIGURES


def test_ci_variant_renders_bands_and_inherits_claims(tmp_path):
    from repro.analysis import run_figure
    from repro.analysis.export import write_csv
    from repro.analysis.svg_plot import render_svg

    report = run_figure("fig04_ci", per_decade=1, sizes=(50 * KB,), reps=2)
    assert report.figure.fig_id == "fig04_ci"
    assert report.claims, "CI variant inherits the base figure's claims"
    (curve,) = report.figure.curves
    assert curve.y_lo is not None and curve.y_hi is not None
    assert len(curve.y_lo) == len(curve.x) == len(curve.y_hi)
    # Deterministic config: the band collapses onto the curve.
    assert curve.y_lo == curve.y == curve.y_hi
    doc = report.figure.to_dict()
    assert sorted(doc["curves"][0]) == ["label", "x", "y", "y_hi", "y_lo"]
    assert "<polygon" in render_svg(report.figure)
    # CSV grows band columns only for banded figures.
    csv_path = write_csv(report.figure, tmp_path / "fig04_ci.csv")
    assert "y_lo,y_hi" in csv_path.read_text().splitlines()[0]


def test_unbanded_exports_unchanged(tmp_path):
    from repro.analysis import run_figure
    from repro.analysis.export import write_csv

    report = run_figure("fig04", per_decade=1, sizes=(50 * KB,))
    (curve,) = report.figure.curves
    assert curve.y_lo is None and curve.y_hi is None
    doc = report.figure.to_dict()
    assert sorted(doc["curves"][0]) == ["label", "x", "y"]
    csv_path = write_csv(report.figure, tmp_path / "fig04.csv")
    assert "y_lo" not in csv_path.read_text()


# ----------------------------------------------------------------- scenario
def _quick_scenario(replication=None):
    spec = {
        "name": "replication-smoke",
        "systems": [{"preset": "GM"}],
        "experiments": [{
            "kind": "polling", "msg_kb": 50, "intervals": [1000],
            "config": {"measure_s": 0.005, "warmup_s": 0.002,
                       "min_cycles": 2},
        }],
    }
    if replication is not None:
        spec["replication"] = replication
    return spec


def test_scenario_replication_attaches_summaries():
    results = run_scenario(_quick_scenario({"reps": 3}))
    assert results["replication"] == {"reps": 3, "ci_width": None}
    point = results["systems"][0]["experiments"][0]["points"][0]
    assert point["replication"]["reps"] == 3
    assert point["replication"]["disagreements"] == 0
    assert "disagreements" not in results


def test_scenario_without_replication_is_single_shot():
    results = run_scenario(_quick_scenario())
    assert "replication" not in results
    point = results["systems"][0]["experiments"][0]["points"][0]
    assert "replication" not in point
    replicated = run_scenario(_quick_scenario({"reps": 3}))
    rep_point = replicated["systems"][0]["experiments"][0]["points"][0]
    base = {k: v for k, v in rep_point.items() if k != "replication"}
    assert base == point


# ---------------------------------------------------------------- CLI seam
def test_cli_figures_reps_writes_bands(tmp_path, capsys):
    from repro.cli import main

    rc = main(["figures", "--ids", "fig13", "--out", str(tmp_path),
               "--no-plots", "--no-cache", "--reps", "2"])
    capsys.readouterr()
    assert rc == 0
    doc = json.loads((tmp_path / "fig13.json").read_text())
    for curve in doc["curves"]:
        assert "y_lo" in curve and "y_hi" in curve


def test_cli_rejects_bad_reps(capsys):
    from repro.cli import main

    with pytest.raises(SystemExit):
        main(["figures", "--ids", "fig13", "--reps", "0"])
    capsys.readouterr()
