"""Benchmark-trajectory recording behind ``comb bench``.

One *record* is one timed pass over the coarse benchmark grid (the paper
figures at 1 point/decade by default).  Records append to a trajectory
directory as ``BENCH_<n>.json`` — ``<n>`` one past the highest existing
record — so the directory accumulates the suite's performance history
across PRs; ``comb compare <dir>`` judges the newest record against the
older ones.

Each record carries total and per-figure wall time, the executor cache
hit rate, the engine event count (the simulator's own cost model — the
NIC fast pump exists to shrink it), whether the compiled core was
active, and optionally a cProfile top table over one
figure (``profile=...``) so hot-path claims in CHANGES.md are backed by
recorded evidence.
"""

from __future__ import annotations

import json
import re
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Union

from ..obs import MetricsRegistry
from ..obs.ledger import RunLedger, run_fields
from .executor import PointCache, SweepExecutor

DEFAULT_OUT_DIR = Path("results") / "bench"

#: Rows of the embedded cProfile table (sorted by cumulative time).
PROFILE_TOP_ROWS = 20


def next_record_path(out_dir: Path) -> Path:
    """``BENCH_<n>.json`` with ``n`` = highest existing + 1 (1-based)."""
    highest = 0
    for f in out_dir.glob("BENCH_*.json"):
        m = re.fullmatch(r"BENCH_(\d+)\.json", f.name)
        if m:
            highest = max(highest, int(m.group(1)))
    return out_dir / f"BENCH_{highest + 1}.json"


def profile_figure(fig_id: str, per_decade: int = 1) -> Dict[str, Any]:
    """cProfile one figure (serial, uncached, so every point simulates
    in-process) and return the top cumulative-time rows as JSON rows.

    The run is separate from the timed pass: profiling slows execution by
    tens of percent, which would corrupt the wall-time trajectory.
    """
    import cProfile
    import pstats

    from ..analysis import run_figure

    profiler = cProfile.Profile()
    with SweepExecutor(jobs=1, cache=None) as executor:
        profiler.enable()
        run_figure(fig_id, per_decade=per_decade, executor=executor)
        profiler.disable()
    stats = pstats.Stats(profiler)
    stats.sort_stats("cumulative")
    rows: List[Dict[str, Any]] = []
    for func in stats.fcn_list[:PROFILE_TOP_ROWS]:  # type: ignore[attr-defined]
        cc, nc, tt, ct, _callers = stats.stats[func]  # type: ignore[attr-defined]
        filename, line, name = func
        rows.append({
            "ncalls": nc,
            "tottime_s": round(tt, 6),
            "cumtime_s": round(ct, 6),
            "function": f"{filename}:{line}({name})",
        })
    return {"figure": fig_id, "per_decade": per_decade, "top": rows}


def run_bench(
    ids: Optional[List[str]] = None,
    per_decade: int = 1,
    jobs: int = 1,
    cache: Optional[PointCache] = None,
    profile: Optional[str] = None,
    echo: Callable[[str], None] = print,
    ledger: Optional[RunLedger] = None,
) -> Dict[str, Any]:
    """Time one pass over the benchmark grid; return the record dict.

    ``ids`` defaults to the paper figures; ``profile`` names a figure id
    to additionally cProfile (top rows embedded under ``"profile"``).
    Every id, the profiled one included, is looked up in the figure
    registry before the timed pass (``KeyError`` on an unknown one).
    ``echo`` receives one progress line per figure.  ``ledger`` is an
    open :class:`~repro.obs.ledger.RunLedger`: every point outcome and
    the closing run summary are appended to it (timing is unchanged —
    the executor times every simulated point either way).  The record
    is :func:`~repro.obs.ledger.run_fields` plus the BENCH-only
    ``per_decade``, ``cache_enabled``, ``metrics``, ``events_processed``
    and ``profile``.
    """
    from ..analysis import PAPER_FIGURES, figure_spec, run_all

    fig_ids = list(ids) if ids else list(PAPER_FIGURES)
    for fig_id in fig_ids + ([profile] if profile is not None else []):
        figure_spec(fig_id)
    registry = MetricsRegistry()
    per_figure: Dict[str, float] = {}
    claims_ok = True
    t_total_s = time.time()
    with SweepExecutor(jobs=jobs, cache=cache, metrics=registry,
                       point_log=ledger is not None) as executor:
        for fig_id in fig_ids:
            t0 = time.time()
            [report] = run_all(per_decade, [fig_id], executor=executor)
            per_figure[fig_id] = round(time.time() - t0, 4)
            claims_ok = claims_ok and report.ok
            echo(f"{fig_id}: {per_figure[fig_id]:7.2f}s "
                 f"({'ok' if report.ok else 'CLAIMS FAILED'})")
    total_s = time.time() - t_total_s

    record = run_fields(executor, total_s, per_figure, claims_ok)
    record.update(
        per_decade=per_decade,
        cache_enabled=cache is not None,
        # Wall-clock stage profile from the observability layer: cache
        # lookup latency, per-point simulation wall times, fan-out
        # utilization (see docs/observability.md).
        metrics=registry.to_dict(),
    )
    if "sim.events_processed" in registry:
        # The simulator's own cost model: heap events dispatched across
        # all in-process points (pooled points simulate elsewhere).
        record["events_processed"] = int(
            registry.counter("sim.events_processed").value)
    if profile is not None:
        echo(f"profiling {profile} (serial, uncached)...")
        record["profile"] = profile_figure(profile, per_decade=per_decade)
    if ledger is not None:
        ledger.write_run(executor, total_s, figures=per_figure,
                         claims_ok=claims_ok)
    return record


def write_record(record: Dict[str, Any], out_dir: Union[str, Path]) -> Path:
    """Append ``record`` to the trajectory directory; return its path."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = next_record_path(out)
    path.write_text(json.dumps(record, indent=2) + "\n")
    return path
