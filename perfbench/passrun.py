"""One benchmark pass in a fresh process: set up, then run a workload cold.

    python3 perfbench/passrun.py --workload paper-gm --seed 0 --mode plain

``run.py`` starts one of these per pass and reads the JSON object this
prints as its last stdout line.  Set-up (``setup_s``) is importing
``repro`` and building the workload's task list, which a dry run of the
figure registry does without simulating anything.  The pass then runs
every figure of the workload through ``repro.analysis.run_figure`` on a
fresh serial, cache-less executor (``jobs=1``, ``cache=None``): cold,
one point at a time; no point cache, ledger or telemetry stream is written.

Modes: ``plain`` is the measured pass; ``traced`` installs the layer
wrappers of ``tracing.py``; ``profiled`` adds a cProfile on top.
"""

from __future__ import annotations

import argparse
import cProfile
import hashlib
import json
import os
import pstats
import resource
import sys
import time

_T0_SETUP = time.perf_counter()
from repro import compiled  # noqa: E402  (set-up time includes the import)
from repro.analysis import FIGURE_SPECS, build_figure, run_figure  # noqa: E402
from repro.core.executor import SweepExecutor, task_key  # noqa: E402
from repro.obs.metrics import MetricsRegistry  # noqa: E402

from workloads import PER_DECADE, WORKLOADS, figure_calls  # noqa: E402


class _Blank:
    """Stand-in result for the dry run: every attribute reads 0.0."""

    replication = None

    def __getattr__(self, name: str) -> float:
        return 0.0


class RecordingExecutor(SweepExecutor):
    """Serial cache-less executor that keeps every batch it runs.

    Each batch is stored as ``(figure id, tasks, points)``.  With
    ``dry=True`` nothing is simulated and every point is a blank, which
    is how set-up builds the task list.
    """

    def __init__(self, dry: bool = False, **kwargs) -> None:
        super().__init__(jobs=1, cache=None, **kwargs)
        self.dry = dry
        self.figure = ""
        self.batches: list = []

    def run(self, tasks, reps=None, ci_width=None):
        tasks = list(tasks)
        if self.dry:
            points = [_Blank() for _task in tasks]
        else:
            points = super().run(tasks, reps=reps, ci_width=ci_width)
        self.batches.append((self.figure, tasks, points))
        return points


def plan(calls) -> dict:
    """Figure id -> task keys in run order, from a dry registry run."""
    dry = RecordingExecutor(dry=True)
    for fig_id, kwargs in calls:
        dry.figure = fig_id
        build_figure(FIGURE_SPECS[fig_id], per_decade=PER_DECADE,
                     executor=dry, **kwargs)
    keys: dict = {fig_id: [] for fig_id, _kwargs in calls}
    for fig_id, tasks, _points in dry.batches:
        keys[fig_id].extend(task_key(t) for t in tasks)
    return keys


def digest(point) -> str:
    """Short SHA-256 of a point's result record (bit-exact floats)."""
    blob = json.dumps(point.to_dict(), sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def run_pass(calls, metrics: MetricsRegistry):
    """Run every figure once; returns ``(executor, reports, errors, wall_s)``."""
    ex = RecordingExecutor(point_log=True, metrics=metrics)
    reports, errors = {}, {}
    t0 = time.perf_counter()
    for fig_id, kwargs in calls:
        ex.figure = fig_id
        try:
            reports[fig_id] = run_figure(fig_id, per_decade=PER_DECADE,
                                         executor=ex, **kwargs)
        except Exception as exc:  # a failing figure is counted, not fatal
            errors[fig_id] = f"{type(exc).__name__}: {exc}"
    return ex, reports, errors, time.perf_counter() - t0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", default="plain",
                    choices=("plain", "traced", "profiled"))
    args = ap.parse_args(argv)

    calls = figure_calls(args.workload, args.seed)
    planned = plan(calls)
    setup_s = time.perf_counter() - _T0_SETUP

    trace = profile = None
    if args.mode != "plain":
        from tracing import LayerTrace, self_time_by_layer

        trace = LayerTrace()
        trace.install()
        if args.mode == "profiled":
            profile = cProfile.Profile()
            profile.enable()
    metrics = MetricsRegistry()
    try:
        ex, reports, errors, wall_s = run_pass(calls, metrics)
    finally:
        if profile is not None:
            profile.disable()
        if trace is not None:
            trace.uninstall()

    figures = {}
    for fig_id, _kwargs in calls:
        batches = [(t, p) for f, ts, ps in ex.batches if f == fig_id
                   for t, p in zip(ts, ps)]
        report = reports.get(fig_id)
        figures[fig_id] = {
            "planned": planned[fig_id],
            "keys": [task_key(t) for t, _p in batches],
            "digests": [digest(p) for _t, p in batches],
            "claims": ([[c.claim, bool(c.ok)] for c in report.claims]
                       if report is not None else None),
            "error": errors.get(fig_id),
        }
    point_walls = {r["key"]: r["wall_s"] for r in ex.point_records
                   if r["outcome"] == "miss"}
    counters = metrics.to_dict()["counters"]
    out = {
        "workload": args.workload,
        "seed": args.seed,
        "mode": args.mode,
        "compiled": compiled.active(),
        "python": sys.version.split()[0],
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "point_walls_s": point_walls,
        "events": int(counters.get("sim.events_processed", 0)),
        "points_simulated": int(counters.get("executor.points_simulated", 0)),
        "lookups": ex.stats.lookups,
        "memo_hits": ex.stats.hits,
        "overhead_s": wall_s - sum(point_walls.values()),
        "figures": figures,
    }
    if trace is not None:
        out["counts"] = trace.layer_counts()
        out["spans"] = {name: [int(c), s] for name, (c, s)
                        in sorted(trace.totals().items())}
        out["slowest_points"] = trace.slowest_points(5)
    if profile is not None:
        out["self_s"] = self_time_by_layer(
            pstats.Stats(profile), os.path.dirname(os.path.abspath(__file__)))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
