"""Regression sentinel (`repro.obs.compare`)."""

import json

import pytest

from repro.obs import (
    compare_history,
    compare_paths,
    compare_samples,
)
from repro.obs.compare import (
    bootstrap_median_diff,
    load_samples,
    scalar_profile,
)


def _bench_doc(total_s, fig04_s, extra_metrics=None):
    doc = {
        "timestamp": "2026-08-06T00:00:00+00:00",
        "total_s": total_s,
        "figures": {"fig04": fig04_s},
        "claims_ok": True,
    }
    if extra_metrics:
        doc["metrics"] = extra_metrics
    return doc


def _write(path, doc):
    path.write_text(json.dumps(doc))
    return path


# ------------------------------------------------------------ scalar_profile
def test_scalar_profile_bench_shape():
    prof = scalar_profile(_bench_doc(9.5, 1.25))
    assert prof == {"total_s": 9.5, "figures.fig04": 1.25}


def test_scalar_profile_metrics_shape():
    prof = scalar_profile({
        "metrics": {
            "counters": {"executor.simulate_wall_s": 4.0,
                         "executor.points_simulated": 32},
            "histograms": {
                "executor.task_wall_s": {"count": 8, "total": 2.0},
                "not_time_like": {"count": 4, "total": 1.0},
            },
        },
    })
    assert prof == {
        "executor.simulate_wall_s": 4.0,
        "executor.task_wall_s.mean": 0.25,
    }
    # Work-volume counters are configuration echoes, never compared.
    assert "executor.points_simulated" not in prof


def test_scalar_profile_reads_registry_histograms():
    # The exact shape MetricsRegistry writes: a *_s histogram's mean must
    # reach the profile, or comb compare silently never compares it.
    from repro.obs.metrics import MetricsRegistry

    reg = MetricsRegistry()
    hist = reg.histogram("executor.task_wall_s")
    for wall_s in (0.25, 0.5, 0.75):
        hist.observe(wall_s)
    prof = scalar_profile({"metrics": reg.to_dict()})
    assert prof == {"executor.task_wall_s.mean": 0.5}


def test_scalar_profile_garbage_tolerant():
    assert scalar_profile({}) == {}
    assert scalar_profile({"total_s": "fast", "figures": 3}) == {}


# -------------------------------------------------------------- load_samples
def test_load_samples_directory(tmp_path):
    _write(tmp_path / "BENCH_1.json", _bench_doc(10.0, 1.0))
    _write(tmp_path / "BENCH_2.json", _bench_doc(11.0, 1.1))
    (tmp_path / "BENCH_3.json").write_text("{corrupt")
    (tmp_path / "notes.txt").write_text("ignored")
    samples = load_samples(tmp_path)
    assert sorted(samples["total_s"]) == [10.0, 11.0]


def test_load_samples_single_file(tmp_path):
    path = _write(tmp_path / "metrics.json", _bench_doc(5.0, 0.5))
    assert load_samples(path)["total_s"] == [5.0]


# ----------------------------------------------------------------- bootstrap
def test_bootstrap_identical_samples_zero_interval():
    lo, hi = bootstrap_median_diff([1.0, 1.0, 1.0], [1.0, 1.0, 1.0])
    assert (lo, hi) == (0.0, 0.0)


def test_bootstrap_deterministic():
    a, b = [1.0, 1.2, 0.9, 1.1], [1.5, 1.6, 1.4, 1.7]
    assert bootstrap_median_diff(a, b) == bootstrap_median_diff(a, b)


def test_bootstrap_detects_clear_shift():
    lo, hi = bootstrap_median_diff([1.0, 1.1, 0.9, 1.05],
                                   [2.0, 2.1, 1.9, 2.05])
    assert lo > 0.5
    assert hi < 1.5


# ----------------------------------------------------------- compare_samples
def test_identical_runs_zero_regressions():
    """Acceptance: comparing a run against itself reports nothing."""
    samples = {"total_s": [3.0, 3.1], "figures.fig04": [1.0, 1.0]}
    report = compare_samples(samples, samples)
    assert report.exit_code == 0
    assert report.regressions == []
    assert len(report.comparisons) == 2


def test_clear_regression_flagged():
    report = compare_samples(
        {"total_s": [1.0, 1.02, 0.98]},
        {"total_s": [2.0, 2.02, 1.98]},
    )
    assert report.exit_code == 1
    (comp,) = report.regressions
    assert comp.name == "total_s"
    assert comp.rel_delta > 0.9


def test_improvement_not_flagged():
    report = compare_samples(
        {"total_s": [2.0, 2.02, 1.98]},
        {"total_s": [1.0, 1.02, 0.98]},
    )
    assert report.exit_code == 0


def test_tiny_significant_drift_below_min_rel_ok():
    """Statistically significant but under the practical threshold."""
    report = compare_samples(
        {"total_s": [1.0, 1.0, 1.0]},
        {"total_s": [1.01, 1.01, 1.01]},
        min_rel=0.05,
    )
    assert report.exit_code == 0
    (comp,) = report.comparisons
    assert comp.ci_low > 0  # significant ...
    assert not comp.regression  # ... but too small to care


def test_insufficient_history_skipped():
    report = compare_samples({"total_s": [1.0]}, {"total_s": [9.0]})
    assert report.comparisons == []
    assert report.skipped == ["total_s"]
    assert report.exit_code == 0


def test_disjoint_metrics_skipped():
    report = compare_samples({"a": [1.0, 1.0]}, {"b": [1.0, 1.0]})
    assert report.comparisons == []
    assert sorted(report.skipped) == ["a", "b"]


def test_report_format_empty():
    report = compare_samples({}, {})
    assert "nothing judged" in report.format()
    assert report.exit_code == 0


def test_report_format_mentions_verdict():
    report = compare_samples(
        {"total_s": [1.0, 1.0, 1.0]}, {"total_s": [3.0, 3.0, 3.0]}
    )
    text = report.format()
    assert "REGRESSION" in text
    assert "total_s" in text


# ------------------------------------------------------------- path-level API
def test_compare_paths_identical_files(tmp_path):
    a = _write(tmp_path / "a.json", _bench_doc(3.0, 1.0))
    b = _write(tmp_path / "b.json", _bench_doc(3.0, 1.0))
    report = compare_paths(a, b, min_records=1)
    assert report.exit_code == 0
    assert len(report.comparisons) == 2


def test_compare_history_short_returns_none(tmp_path):
    _write(tmp_path / "BENCH_1.json", _bench_doc(1.0, 1.0))
    _write(tmp_path / "BENCH_2.json", _bench_doc(1.0, 1.0))
    assert compare_history(tmp_path) is None


def test_compare_history_judges_newest(tmp_path):
    for n, total in ((1, 1.0), (2, 1.02), (3, 0.98)):
        _write(tmp_path / f"BENCH_{n}.json", _bench_doc(total, total))
    _write(tmp_path / "BENCH_4.json", _bench_doc(5.0, 5.0))
    report = compare_history(tmp_path)
    assert report is not None
    assert report.exit_code == 1
    assert {c.name for c in report.regressions} == {"total_s",
                                                    "figures.fig04"}


def test_compare_history_numeric_order(tmp_path):
    """BENCH_10 is newer than BENCH_9 (numeric, not lexicographic)."""
    for n in range(1, 10):
        _write(tmp_path / f"BENCH_{n}.json", _bench_doc(1.0, 1.0))
    _write(tmp_path / "BENCH_10.json", _bench_doc(9.0, 9.0))
    report = compare_history(tmp_path)
    assert report is not None
    assert report.exit_code == 1


def test_compare_history_stays_within_its_population(tmp_path):
    """A compiled record is judged only against compiled records."""
    def doc(total, compiled):
        return {**_bench_doc(total, total), "compiled": compiled,
                "per_decade": 1, "jobs": 1}

    _write(tmp_path / "BENCH_1.json", doc(1.0, False))
    _write(tmp_path / "BENCH_2.json", doc(1.0, False))
    _write(tmp_path / "BENCH_3.json", doc(5.0, True))
    _write(tmp_path / "BENCH_4.json", doc(5.0, True))
    # One older compiled record: too little history in this population,
    # although the two pure records would make a (much faster) baseline.
    assert compare_history(tmp_path) is None
    _write(tmp_path / "BENCH_5.json", doc(5.0, True))
    report = compare_history(tmp_path)
    assert report is not None and report.exit_code == 0
    assert all(c.n_a == 2 and c.median_a == 5.0 for c in report.comparisons)


def _stratum_doc(total_s, figures=("fig04",), python="3.11.7"):
    return {**_bench_doc(total_s, total_s), "compiled": False,
            "per_decade": 1, "jobs": 1, "python": python,
            "figures": {fig_id: total_s for fig_id in figures}}


ALL_FIGURES = tuple(f"fig{n:02d}" for n in range(4, 18))


def test_compare_history_never_judges_subset_against_suite(tmp_path):
    """A 2-figure record is a different population from 14-figure
    records: figures share memoised points, so timing a subset alone
    simulates points the full suite found cached."""
    for n in (1, 2, 3):
        _write(tmp_path / f"BENCH_{n}.json", _stratum_doc(1.0, ALL_FIGURES))
    _write(tmp_path / "BENCH_4.json",
           _stratum_doc(9.0, ("fig04", "fig11")))
    assert compare_history(tmp_path) is None


def test_compare_history_never_judges_across_python(tmp_path):
    for n in (1, 2, 3):
        _write(tmp_path / f"BENCH_{n}.json", _stratum_doc(1.0, python="3.11.7"))
    _write(tmp_path / "BENCH_4.json", _stratum_doc(9.0, python="3.12.3"))
    assert compare_history(tmp_path) is None


def test_compare_history_flags_slowdown_within_stratum(tmp_path):
    """Same stratum, every timing 20% slower: still a regression."""
    for n, total in ((1, 1.0), (2, 1.0), (3, 1.2)):
        _write(tmp_path / f"BENCH_{n}.json",
               _stratum_doc(total, ("fig04", "fig11")))
    report = compare_history(tmp_path)
    assert report is not None and report.exit_code == 1
    assert {c.name for c in report.regressions} == {
        "total_s", "figures.fig04", "figures.fig11"}


# ---------------------------------------------------------------- CLI seam
def test_cli_compare_identical(tmp_path, capsys):
    from repro.cli import main

    a = _write(tmp_path / "a.json", _bench_doc(3.0, 1.0))
    b = _write(tmp_path / "b.json", _bench_doc(3.0, 1.0))
    assert main(["compare", str(a), str(b)]) == 0
    out = capsys.readouterr().out
    assert "0 regressions" in out


def test_cli_compare_regression_exit_code(tmp_path):
    a = _write(tmp_path / "a.json", _bench_doc(1.0, 1.0))
    b = _write(tmp_path / "b.json", _bench_doc(9.0, 9.0))
    from repro.cli import main

    assert main(["compare", str(a), str(b)]) == 1


def test_cli_compare_short_history_skips(tmp_path, capsys):
    from repro.cli import main

    _write(tmp_path / "BENCH_1.json", _bench_doc(1.0, 1.0))
    assert main(["compare", str(tmp_path)]) == 0
    assert "nothing to judge" in capsys.readouterr().out


def test_single_record_history_never_judged(tmp_path, capsys):
    """A one-record history is "insufficient", even with --min-records 0.

    Regression test: judging the sole record against an empty baseline
    would have produced degenerate zero-width CIs; the clamp in
    ``compare_history`` must report insufficient history instead, and
    the CLI must exit 0.
    """
    from repro.cli import main

    _write(tmp_path / "BENCH_1.json", _bench_doc(1.0, 1.0))
    assert compare_history(tmp_path, min_records=0) is None
    assert main(["compare", str(tmp_path), "--min-records", "0"]) == 0
    out = capsys.readouterr().out
    assert "insufficient history" in out
    assert "nothing to judge" in out


def test_cli_compare_missing_path(tmp_path):
    from repro.cli import main

    assert main(["compare", str(tmp_path / "nope")]) == 2


def test_cli_compare_too_many_runs(tmp_path):
    from repro.cli import main

    paths = []
    for name in ("a", "b", "c"):
        paths.append(str(_write(tmp_path / f"{name}.json",
                                _bench_doc(1.0, 1.0))))
    assert main(["compare", *paths]) == 2
