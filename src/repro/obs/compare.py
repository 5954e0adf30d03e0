"""Statistical regression sentinel over run profiles.

Benchmark numbers from single runs are noise (Hunold & Carpen-Amarie,
"MPI Benchmarking Revisited"); this module compares *samples* of runs
nonparametrically — per-metric medians with a bootstrap confidence
interval on the median difference — and only calls something a
regression when the whole interval clears a minimum relative slowdown.

Inputs are the JSON documents the suite already writes: ``BENCH_<n>.json``
trajectory records (``comb bench``) and ``metrics.json``
sidecars (``comb … --metrics``).  A *run* argument may be a single file
or a directory of them (every ``BENCH_*.json`` / ``*metrics*.json``
inside becomes one sample).

The bootstrap RNG is seeded, so comparisons are reproducible; two
identical samples always yield a zero-width interval at zero and hence
zero regressions.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

#: Bootstrap resamples for the median-difference CI.
DEFAULT_RESAMPLES = 2000
#: Two-sided confidence level of the interval.
DEFAULT_CONFIDENCE = 0.95
#: A regression additionally needs at least this relative slowdown.
DEFAULT_MIN_REL = 0.05
#: Baseline samples required before a metric is judged at all.
DEFAULT_MIN_RECORDS = 2
#: Seed for the bootstrap RNG (fixed: comparisons must be reproducible).
BOOTSTRAP_SEED = 20260806
#: Run-record fields that define a population: history mode judges a
#: record only against older records that agree on all of them and on
#: the set of figures timed (see :func:`_stratum`).
STRATUM_KEYS = ("compiled", "per_decade", "jobs", "python")


def scalar_profile(doc: Dict[str, object]) -> Dict[str, float]:
    """Flatten one run document into ``{metric_name: seconds}``.

    Understands both record shapes the suite writes; unknown keys are
    ignored, so old and new records mix freely in one history dir.
    Only time-like scalars are extracted — counters of work volume
    (cache hits, points simulated) are configuration echoes, not
    performance, and would false-positive on grid changes.
    """
    out: Dict[str, float] = {}
    total = doc.get("total_s")
    if isinstance(total, (int, float)):
        out["total_s"] = float(total)
    figures = doc.get("figures")
    if isinstance(figures, dict):
        for fig_id, wall_s in sorted(figures.items()):
            if isinstance(wall_s, (int, float)):
                out[f"figures.{fig_id}"] = float(wall_s)
    metrics = doc.get("metrics")
    if isinstance(metrics, dict):
        counters = metrics.get("counters")
        if isinstance(counters, dict):
            wall = counters.get("executor.simulate_wall_s")
            if isinstance(wall, (int, float)):
                out["executor.simulate_wall_s"] = float(wall)
        histograms = metrics.get("histograms")
        if isinstance(histograms, dict):
            for name, hist in sorted(histograms.items()):
                if not (isinstance(hist, dict) and name.endswith("_s")):
                    continue
                count = hist.get("count")
                total_h = hist.get("total")
                if (
                    isinstance(count, (int, float)) and count
                    and isinstance(total_h, (int, float))
                ):
                    out[f"{name}.mean"] = float(total_h) / float(count)
    return out


def _read_docs(path: Path) -> List[Dict[str, object]]:
    """The run documents in one file: the file itself, or every ``run``
    record of a ``.jsonl`` run ledger (:mod:`repro.obs.ledger`)."""
    if path.suffix == ".jsonl":
        from .ledger import filter_records, read_records

        return filter_records(read_records(path)[0], rec="run")
    try:
        doc = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return []  # unreadable / non-JSON: not a sample
    return [doc] if isinstance(doc, dict) else []


def _samples(docs: Sequence[Dict[str, object]]) -> Dict[str, List[float]]:
    samples: Dict[str, List[float]] = {}
    for doc in docs:
        for name, value in scalar_profile(doc).items():
            samples.setdefault(name, []).append(value)
    return samples


def load_samples(run: Path) -> Dict[str, List[float]]:
    """Per-metric samples from a run file or a directory of run files.

    ``.jsonl`` files are read as run ledgers: every ``run`` record
    inside becomes one sample, so a long-lived ledger serves directly as
    a many-sample history source.
    """
    if run.is_dir():
        paths = sorted(
            set(run.glob("BENCH_*.json"))
            | set(run.glob("*metrics*.json"))
            | set(run.glob("*.jsonl"))
        )
    else:
        paths = [run]
    return _samples([doc for path in paths for doc in _read_docs(path)])


@dataclass(frozen=True)
class MetricComparison:
    """One metric's verdict: B (candidate) against A (baseline)."""

    name: str
    n_a: int
    n_b: int
    median_a: float
    median_b: float
    #: Bootstrap CI of ``median(B) - median(A)`` (positive = B slower).
    ci_low: float
    ci_high: float
    regression: bool

    @property
    def rel_delta(self) -> float:
        if self.median_a == 0.0:
            return 0.0
        return (self.median_b - self.median_a) / self.median_a

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready verdict for one metric (``--format json``)."""
        return {
            "name": self.name,
            "n_baseline": self.n_a,
            "n_candidate": self.n_b,
            "median_baseline_s": self.median_a,
            "median_candidate_s": self.median_b,
            "rel_delta": self.rel_delta,
            "ci_low_s": self.ci_low,
            "ci_high_s": self.ci_high,
            "regression": self.regression,
        }


@dataclass
class CompareReport:
    """Full sentinel verdict over every shared metric."""

    comparisons: List[MetricComparison] = field(default_factory=list)
    #: Metrics present in only one side, or with too little history.
    skipped: List[str] = field(default_factory=list)

    @property
    def regressions(self) -> List[MetricComparison]:
        return [c for c in self.comparisons if c.regression]

    @property
    def exit_code(self) -> int:
        return 1 if self.regressions else 0

    def to_dict(self) -> Dict[str, object]:
        """Machine-readable verdict (``comb compare --format json``).

        Carries the exit status *and its rationale*: a metric regresses
        only when the whole bootstrap CI of the median difference is
        above zero and the relative slowdown clears the minimum — the
        same rule :meth:`format` renders for humans.
        """
        n = len(self.regressions)
        return {
            "schema_version": 1,
            "comparisons": [c.to_dict() for c in self.comparisons],
            "skipped": list(self.skipped),
            "regressions": [c.name for c in self.regressions],
            "exit_code": self.exit_code,
            "exit_rationale": (
                f"{n} regression{'s' if n != 1 else ''}: a metric "
                "regresses only when the entire bootstrap CI of the "
                "median difference is above zero and the relative "
                "slowdown exceeds the minimum threshold"
            ),
        }

    def format(self) -> str:
        if not self.comparisons and not self.skipped:
            return (
                "compare: no overlapping metrics between the two runs "
                "(nothing judged)"
            )
        lines: List[str] = []
        if self.comparisons:
            lines.append(
                f"  {'metric':34s} {'baseline':>10s} {'candidate':>10s} "
                f"{'delta':>8s}  CI of median diff"
            )
            for c in self.comparisons:
                mark = "REGRESSION" if c.regression else "ok"
                lines.append(
                    f"  {c.name:34s} {c.median_a:10.4f} {c.median_b:10.4f} "
                    f"{c.rel_delta:+7.1%}  "
                    f"[{c.ci_low:+.4f}, {c.ci_high:+.4f}] {mark}"
                )
        for name in self.skipped:
            lines.append(f"  {name:34s} (skipped: insufficient history)")
        n = len(self.regressions)
        lines.append(
            f"compare: {n} regression{'s' if n != 1 else ''} across "
            f"{len(self.comparisons)} metric"
            f"{'s' if len(self.comparisons) != 1 else ''}"
        )
        return "\n".join(lines)


def bootstrap_median_diff(
    a: Sequence[float],
    b: Sequence[float],
    resamples: int = DEFAULT_RESAMPLES,
    confidence: float = DEFAULT_CONFIDENCE,
    seed: int = BOOTSTRAP_SEED,
) -> Tuple[float, float]:
    """Percentile-bootstrap CI of ``median(b) - median(a)``.

    Degenerate but legal inputs (singleton samples, identical samples)
    collapse the interval rather than erroring: identical runs always
    produce ``(0.0, 0.0)``.
    """
    arr_a = np.asarray(a, dtype=float)
    arr_b = np.asarray(b, dtype=float)
    rng = np.random.default_rng(seed)
    idx_a = rng.integers(0, len(arr_a), size=(resamples, len(arr_a)))
    idx_b = rng.integers(0, len(arr_b), size=(resamples, len(arr_b)))
    diffs = np.median(arr_b[idx_b], axis=1) - np.median(arr_a[idx_a], axis=1)
    alpha = (1.0 - confidence) / 2.0
    lo, hi = np.quantile(diffs, [alpha, 1.0 - alpha])
    return float(lo), float(hi)


def compare_samples(
    samples_a: Dict[str, List[float]],
    samples_b: Dict[str, List[float]],
    min_rel: float = DEFAULT_MIN_REL,
    min_records: int = DEFAULT_MIN_RECORDS,
    resamples: int = DEFAULT_RESAMPLES,
    confidence: float = DEFAULT_CONFIDENCE,
) -> CompareReport:
    """Judge candidate B against baseline A metric by metric.

    A metric regresses only when the *entire* bootstrap interval of the
    median difference is above zero **and** the relative slowdown
    clears ``min_rel`` — a significant-but-tiny drift stays "ok".
    Metrics with fewer than ``min_records`` baseline samples are
    reported as skipped, never judged.
    """
    report = CompareReport()
    for name in sorted(set(samples_a) | set(samples_b)):
        a = samples_a.get(name, [])
        b = samples_b.get(name, [])
        if not a or not b or len(a) < min_records:
            report.skipped.append(name)
            continue
        ci_low, ci_high = bootstrap_median_diff(
            a, b, resamples=resamples, confidence=confidence
        )
        median_a = float(np.median(a))
        median_b = float(np.median(b))
        rel = (median_b - median_a) / median_a if median_a else 0.0
        report.comparisons.append(
            MetricComparison(
                name=name,
                n_a=len(a),
                n_b=len(b),
                median_a=median_a,
                median_b=median_b,
                ci_low=ci_low,
                ci_high=ci_high,
                regression=ci_low > 0.0 and rel > min_rel,
            )
        )
    return report


def compare_paths(
    run_a: Path,
    run_b: Path,
    min_rel: float = DEFAULT_MIN_REL,
    min_records: int = DEFAULT_MIN_RECORDS,
) -> CompareReport:
    """Sentinel entry point over files/directories (see module doc)."""
    return compare_samples(
        load_samples(run_a),
        load_samples(run_b),
        min_rel=min_rel,
        min_records=min_records,
    )


def _stratum(doc: Dict[str, object]) -> Tuple[object, ...]:
    """The population a run record belongs to: :data:`STRATUM_KEYS` plus
    the sorted ids of the figures it timed.  The id set matters because
    figures share memoised points: a figure timed alone simulates points
    that a full-suite run finds already cached by an earlier figure."""
    figures = doc.get("figures")
    ids = tuple(sorted(figures)) if isinstance(figures, dict) else None
    return (*(doc.get(key) for key in STRATUM_KEYS), ids)


def compare_history(
    history_dir: Path,
    min_rel: float = DEFAULT_MIN_REL,
    min_records: int = DEFAULT_MIN_RECORDS,
) -> Optional[CompareReport]:
    """History mode: newest ``BENCH_<n>.json`` against the older records
    of its own population.

    The baseline is the older records whose stratum (compiled kernel,
    grid resolution, job count, Python version and figure-id set; see
    :func:`_stratum`) equals the newest record's: a compiled run is never
    judged against pure ones, nor a two-figure run against the suite.
    Returns ``None`` when fewer than ``min_records`` older records match
    — callers should *skip cleanly* (exit 0), which is what the CI
    sentinel job does while the committed trajectory is still short.
    ``min_records`` is clamped to at least 1 here: judging the newest
    record against an empty sample set would produce degenerate
    (zero-width) confidence intervals, so even ``min_records=0`` reports
    insufficient history.
    """
    records: List[Tuple[int, Path]] = []
    for path in history_dir.glob("BENCH_*.json"):
        stem_n = path.stem.split("_", 1)[-1]
        if stem_n.isdigit():
            records.append((int(stem_n), path))
    if not records:
        return None
    records.sort()
    *older, newest = [_read_docs(path) for _, path in records]
    population = [_stratum(doc) for doc in newest]
    baseline = [doc for docs in older for doc in docs
                if _stratum(doc) in population]
    if len(baseline) < max(min_records, 1):
        return None
    return compare_samples(
        _samples(baseline),
        _samples(newest),
        min_rel=min_rel,
        min_records=min_records,
    )
