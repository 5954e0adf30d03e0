"""``comb`` command-line interface.

Subcommands::

    comb polling --system GM --size 100 --interval 10000
    comb pww     --system Portals --size 100 --interval 100000
    comb pattern halo --ranks 8 --topology fattree
    comb offload [--system GM]
    comb netperf --system GM --mode busywait
    comb figures [--ids fig08 fig11] [--per-decade 2] [--out results/]
    comb report  [--per-decade 2]
    comb bench   [--no-cache] [--profile fig04] [--compare]
    comb history [--figure fig08] [--last 5] [--format json]
    comb top     results/stream.ndjson [--once]

``comb pattern`` runs an application communication pattern (halo2d,
halo3d, sweep, allreduce — ``halo`` is an alias for halo2d) across
``--ranks`` ranks on a ``--topology`` (crossbar or fattree) and prints
per-rank plus aggregate (min/median/max) CPU availability.

All sizes are in the paper's KB (KiB); intervals are work-loop iterations.

The sweep-heavy subcommands (``figures``, ``report``) accept ``--jobs N``
to fan points out over a process pool and use an on-disk point cache under
``.comb_cache/`` by default (``--no-cache`` disables it, ``--cache-dir``
relocates it).  Results are bit-identical for every combination of flags.

``--check`` (on ``polling``, ``pww``, ``figures``, ``report``) runs the
simulation sanitizer — runtime invariant checks over every simulated
point (see :mod:`repro.verify`).  Output values are unchanged; the exit
status is 1 if any invariant was violated.  Cached points are returned
as-is (they were checked, or checkable, when first simulated).

``--metrics`` (on ``figures``, ``report``) attaches the observability
layer (:mod:`repro.obs`): simulation metrics (phase breakdowns, poll
hit/miss, queue depths) plus wall-clock executor profiles (cache lookup
latency, fan-out utilization) land in a ``metrics.json`` sidecar next to
the results.  Figure values are bit-identical with or without it.  Note:
with ``--jobs > 1`` points simulate in worker processes, whose simulation
events stay there — sim metrics cover in-process points; executor stage
profiles always cover everything.

``comb trace <figure|polling|pww>`` runs one figure or one point with
the full tracer attached (forced serial, uncached, so every event is
captured) and exports a Chrome ``trace_event`` JSON (loads in
``about:tracing`` / Perfetto), a CSV timeline, and the metrics sidecar.
With ``--attribution`` the event stream is additionally stitched into
causal spans (:mod:`repro.obs.spans`) and each sweep point's wait time /
availability loss is decomposed into named causes
(:mod:`repro.obs.attribution`), printed as a table and exported as
``<target>.attribution.json``.

``comb bench`` times one pass over the benchmark grid and appends a
``BENCH_<n>.json`` record to the performance-trajectory directory
(``results/bench`` by default): total and per-figure wall time, executor
cache stats, the engine's dispatched-event count (the simulator's own
cost model), and whether the compiled core (:mod:`repro.compiled`) was
active.  ``--profile FIGID`` additionally embeds a cProfile
top-cumulative table over one figure so hot-path claims stay backed by
recorded evidence.

``comb compare`` doubles as the statistical regression sentinel: with
two run paths (``metrics.json`` / ``BENCH_*.json`` files or directories
of them) it bootstraps confidence intervals over median differences and
exits 1 on significant regressions; with one BENCH history directory it
judges the newest record against the older records of its stratum
(compiled kernel, grid, jobs), skipping cleanly while that history is
too short (see :mod:`repro.obs.compare`).  ``--format
json`` emits the verdict machine-readably (per-metric CIs, the
regression list, and the exit-status rationale).

Live telemetry (``figures``, ``report``): ``--progress`` renders a live
status line with per-worker heartbeats and a cache-aware ETA;
``--progress-stream PATH|FD`` additionally writes every telemetry event
as schema-versioned NDJSON, which ``comb top <path>`` can attach to from
another terminal mid-run.  Detached (neither flag), the executor takes
the exact pre-telemetry code path — results are bit-identical either
way (telemetry is observation-only wall-clock metadata).

Every executor-driven run (``figures``, ``report``, ``bench``,
``scenario``) also appends point outcomes, each tagged with its figure,
and a closing run record to the persistent run ledger
(``results/ledger/ledger.jsonl``; ``--no-ledger`` opts out,
``--ledger-dir`` relocates it).  ``comb history`` filters and aggregates
that ledger (outcome counts, mean miss wall, per-figure wall trend), and
``comb compare`` accepts a ledger file as a run-history source.

Each command builds its plumbing — ledger, telemetry hub and stream,
``--metrics`` observer, ``--check`` sanitizer, sweep executor — through
one :class:`_RunContext`, and every run record goes through
:meth:`repro.obs.ledger.RunLedger.write_run`.  Bad input (an unknown
figure id, a pattern the topology cannot hold, a malformed scenario
file) is one ``error:`` line and exit status 2.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
import uuid
from pathlib import Path
from typing import Iterable, List, Optional

from .analysis import (
    FIGURE_SPECS,
    export_figures,
    figure_spec,
    format_report,
    render,
    run_all,
    run_figure,
)
from .baselines import run_netperf
from .config import PRESETS, get_system
from .core import (
    CombSuite,
    PointCache,
    PollingConfig,
    PwwConfig,
    SweepExecutor,
    drive_polling,
    run_polling,
    run_pww,
)
from .obs import (
    Observer,
    ProgressRenderer,
    RunLedger,
    StreamWriter,
    TelemetryChannel,
    TelemetryHub,
    use_observer,
    write_metrics,
)
from .patterns import PATTERN_KINDS

#: ``comb pattern`` / ``comb trace`` accept ``halo`` for halo2d.
_PATTERN_ALIASES = {"halo": "halo2d", **{k: k for k in PATTERN_KINDS}}


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _nonnegative_float(text: str) -> float:
    value = float(text)
    if not 0.0 <= value < math.inf:  # NaN fails too
        raise argparse.ArgumentTypeError(
            f"must be a finite number >= 0, got {value}"
        )
    return value


def _add_executor_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs", type=_positive_int, default=1, metavar="N",
        help="worker processes for sweep points (default: 1, serial)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="disable the on-disk point cache",
    )
    _add_cache_dir_flag(parser)
    parser.add_argument(
        "--metrics", action="store_true",
        help="attach the observability layer and write a metrics.json "
        "sidecar next to the results (values are unchanged)",
    )
    parser.add_argument(
        "--reps", type=_positive_int, default=1, metavar="N",
        help="replicates per sweep point on named RNG substreams "
        "(default: 1, the bit-identical single-shot path); aggregated "
        "points carry median/CI replication summaries and figures "
        "render CI bands",
    )
    parser.add_argument(
        "--ci-width", type=_nonnegative_float, default=None, metavar="W",
        help="adaptive stopping: stop replicating a point once its "
        "availability bootstrap CI is at most this wide (cap: --reps); "
        "default: fixed --reps design",
    )
    _add_progress_flags(parser)
    _add_ledger_flags(parser)
    _add_check_flag(parser)


def _add_progress_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--progress", action="store_true",
        help="live TTY progress line (point counts, workers, ETA, "
        "stall flags) on stderr while the sweep runs",
    )
    parser.add_argument(
        "--progress-stream", default=None, metavar="PATH|FD",
        help="stream live telemetry as NDJSON (one schema-versioned "
        "JSON object per line) to a file path or a numeric fd; "
        "`comb top PATH` attaches to a running sweep through it",
    )


def _add_cache_dir_flag(parser: argparse.ArgumentParser) -> None:
    # Read when the parser is built, so a relocated default (the test
    # suite's temporary directory) takes effect.
    from .core.executor import DEFAULT_CACHE_DIR

    parser.add_argument(
        "--cache-dir", default=DEFAULT_CACHE_DIR,
        help=f"point-cache directory (default: {DEFAULT_CACHE_DIR})",
    )


def _add_ledger_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--no-ledger", action="store_true",
        help="skip appending this run to the persistent run ledger",
    )
    _add_ledger_dir_flag(parser)


def _add_ledger_dir_flag(parser: argparse.ArgumentParser) -> None:
    from .obs.ledger import DEFAULT_LEDGER_DIR

    parser.add_argument(
        "--ledger-dir", default=str(DEFAULT_LEDGER_DIR), metavar="DIR",
        help=f"run-ledger directory (default: {DEFAULT_LEDGER_DIR})",
    )


def _add_check_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--check", action="store_true",
        help="run the simulation sanitizer (runtime invariant checks); "
        "output is unchanged, exit status is 1 on any violation",
    )


class _RunContext:
    """One command's run plumbing, built once from its parsed flags.

    Owns the run ledger (opened when the command has ledger flags;
    ``--no-ledger`` opts out), the live-telemetry hub with its consumers
    (NDJSON stream writer for ``--progress-stream``, TTY renderer for
    ``--progress``), the ``--metrics`` observer and the ``--check``
    sanitizer; builds the command's :class:`SweepExecutor`; and
    :meth:`finish` closes all of it, appending the run to the ledger.
    An unwritable target prints one ``error:`` line and sets
    :attr:`error` — never a traceback.
    """

    def __init__(self, args: argparse.Namespace, cmd: str) -> None:
        self.args = args
        self.run_id = uuid.uuid4().hex[:12]
        self.channel = None
        self.hub = None
        self.stream_writer = None
        self.ledger = None
        self.observer = Observer() if getattr(args, "metrics", False) \
            else None
        self.sanitizer = None
        self.error: Optional[str] = None
        self._t0_wall = time.perf_counter()
        if getattr(args, "check", False):
            from .verify import Sanitizer

            self.sanitizer = Sanitizer()
        stream_target = getattr(args, "progress_stream", None)
        try:
            if stream_target:
                target = f"progress stream {stream_target}"
                self.stream_writer = StreamWriter(stream_target)
            if not getattr(args, "no_ledger", True):
                target = f"run ledger under {args.ledger_dir}"
                self.ledger = RunLedger(Path(args.ledger_dir), self.run_id,
                                        cmd)
        except OSError as exc:
            self.error = f"error: cannot open {target}: {exc}"
            print(self.error, file=sys.stderr)
            self.finish()
            return
        if getattr(args, "progress", False) or stream_target:
            self.channel = TelemetryChannel()
            consumers = []
            if self.stream_writer is not None:
                consumers.append(self.stream_writer)
            if args.progress:
                consumers.append(ProgressRenderer())
            self.hub = TelemetryHub(self.channel, consumers)
            self.hub.start(self.run_id, cmd, args.jobs)

    def cache(self) -> Optional[PointCache]:
        return None if self.args.no_cache else PointCache(self.args.cache_dir)

    def executor(self) -> SweepExecutor:
        args = self.args
        return SweepExecutor(
            jobs=args.jobs, cache=self.cache(), check=args.check,
            metrics=self.observer.metrics if self.observer else None,
            reps=args.reps, ci_width=args.ci_width,
            telemetry=self.channel, point_log=self.ledger is not None,
        )

    def finish(self, executor: Optional[SweepExecutor] = None,
               reports=()) -> int:
        """Close the hub, stream and ledger — appending the run when
        ``executor`` ran it — and write the ``--metrics`` sidecar.

        Returns 0, or 1 when the sidecar cannot be written.
        """
        if self.hub is not None:
            self.hub.close()
        if self.stream_writer is not None:
            self.stream_writer.close()
        if self.ledger is not None:
            if executor is not None:
                self.ledger.write_run(
                    executor, time.perf_counter() - self._t0_wall,
                    figures={r.figure.fig_id: round(r.wall_s, 4)
                             for r in reports},
                    claims_ok=all(r.ok for r in reports),
                )
            self.ledger.close()
        if self.observer is None or executor is None:
            return 0
        doc = self.observer.to_dict()
        doc["executor"] = executor.stats.to_dict()
        target = Path(getattr(self.args, "out", None) or "results",
                      "metrics.json")
        try:
            path = write_metrics(doc.pop("metrics"), target, extra=doc)
        except OSError as exc:
            print(f"error: cannot write metrics sidecar {target}: {exc}",
                  file=sys.stderr)
            return 1
        print(f"wrote {path}")
        return 0

    def verdict(self, executor: Optional[SweepExecutor] = None) -> int:
        """The run's self-checks as an exit status: 1 on replica
        disagreements (a determinism bug) or, under ``--check``, on any
        invariant violation in ``executor``'s points (else the ambient
        sanitizer's run); 0 otherwise.  Silent when there is nothing to
        report and no ``--check``."""
        disagreements = executor.disagreements if executor is not None \
            else []
        if disagreements:
            print(f"replication: {len(disagreements)} replica "
                  "disagreement(s) — bit-level divergence across RNG "
                  "substreams on deterministic inputs (determinism bug)",
                  file=sys.stderr)
            for d in disagreements:
                print(f"  {d.detail}", file=sys.stderr)
            return 1
        if self.sanitizer is None:
            return 0
        violations = (executor.violations if executor is not None
                      else self.sanitizer.finalize())
        if not violations:
            print("sanitizer: all invariants held (0 violations)")
            return 0
        print(f"sanitizer: {len(violations)} violation(s)", file=sys.stderr)
        for v in violations:
            print(f"  [{v.monitor}/{v.kind}] t={v.time:.9f} {v.detail}",
                  file=sys.stderr)
        return 1


def _bad_pattern(system, cfg) -> bool:
    """Print ``error: …`` when ``cfg`` cannot run on ``system``; ``True``
    when it cannot (see :func:`repro.patterns.runner.check_pattern`)."""
    from .patterns.runner import check_pattern

    try:
        check_pattern(system, cfg)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return True
    return False


def _unknown_figure(fig_ids: Iterable[str]) -> bool:
    """Print ``error: unknown figure …`` for the first id the registry
    lacks; ``True`` when one was found."""
    for fig_id in fig_ids:
        try:
            figure_spec(fig_id)
        except KeyError as exc:
            print(f"error: {exc.args[0]}", file=sys.stderr)
            return True
    return False


def _add_system(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--system", default="GM", choices=sorted(PRESETS),
        help="system preset to simulate",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="comb",
        description="COMB MPI-overlap benchmark suite on a simulated cluster",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("polling", help="one polling-method measurement")
    _add_system(p)
    p.add_argument("--size", type=_nonnegative_float, default=100,
                   help="message size (KB)")
    p.add_argument("--interval", type=_positive_int, default=10_000,
                   help="poll interval (loop iterations)")
    p.add_argument("--queue-depth", type=_positive_int, default=4)
    _add_check_flag(p)

    p = sub.add_parser("pww", help="one post-work-wait measurement")
    _add_system(p)
    p.add_argument("--size", type=_nonnegative_float, default=100,
                   help="message size (KB)")
    p.add_argument("--interval", type=_nonnegative_int, default=100_000,
                   help="work interval (loop iterations)")
    p.add_argument("--tests-in-work", type=_nonnegative_int, default=0,
                   help="MPI_Test calls inserted early in the work phase")
    _add_check_flag(p)

    p = sub.add_parser(
        "pattern",
        help="application communication pattern across N ranks "
        "(halo/sweep/allreduce on a crossbar or fat-tree)",
    )
    p.add_argument("pattern", choices=sorted(_PATTERN_ALIASES),
                   help="pattern kind (halo = halo2d)")
    _add_system(p)
    p.add_argument("--ranks", type=_positive_int, default=4,
                   help="rank count (one rank per node; default: 4)")
    p.add_argument("--size", type=float, default=100,
                   help="message size per neighbor/round (KB)")
    p.add_argument("--interval", type=int, default=100_000,
                   help="work interval per iteration (loop iterations)")
    p.add_argument("--iterations", type=_positive_int, default=6,
                   help="measured iterations (default: 6)")
    p.add_argument("--warmup", type=int, default=2,
                   help="untimed warmup iterations (default: 2)")
    p.add_argument("--topology", default="crossbar",
                   choices=("crossbar", "fattree"),
                   help="network fabric (default: crossbar)")
    p.add_argument("--arity", type=int, default=0,
                   help="fat-tree arity k (0: the switch's port count)")
    p.add_argument("--ghost-width", type=int, default=1,
                   help="halo ghost-layer width (scales the payload)")
    p.add_argument("--algorithm", default="binomial",
                   choices=("binomial", "rd"),
                   help="allreduce algorithm (default: binomial tree)")
    p.add_argument("--grid", type=int, nargs="*", default=None,
                   help="explicit process grid (default: balanced factors)")
    _add_check_flag(p)

    p = sub.add_parser("offload", help="application-offload verdict (§4.1)")
    _add_system(p)
    p.add_argument("--size", type=_nonnegative_float, default=100,
                   help="message size (KB)")

    p = sub.add_parser("netperf", help="netperf-style availability (§5)")
    _add_system(p)
    p.add_argument("--size", type=_nonnegative_float, default=100,
                   help="message size (KB)")
    p.add_argument("--mode", default="busywait",
                   choices=("blocking", "busywait"))

    p = sub.add_parser("figures", help="regenerate paper figures")
    p.add_argument("--ids", nargs="*", default=None,
                   help="figure ids (default: all of fig04..fig17)")
    p.add_argument("--per-decade", type=_positive_int, default=2)
    p.add_argument("--out", default=None,
                   help="directory for CSV/JSON export")
    p.add_argument("--no-plots", action="store_true")
    _add_executor_flags(p)

    p = sub.add_parser("report", help="full reproduction report with claims")
    p.add_argument("--per-decade", type=_positive_int, default=2)
    _add_executor_flags(p)

    p = sub.add_parser(
        "bench",
        help="time the benchmark grid; append a BENCH_<n>.json trajectory "
        "record (wall times, cache stats, engine event counts)",
    )
    p.add_argument("--ids", nargs="*", default=None,
                   help="subset of figure ids (default: all)")
    p.add_argument("--per-decade", type=_positive_int, default=1,
                   help="grid resolution (default: 1, the coarse grid)")
    p.add_argument("--out-dir", default=None,
                   help="trajectory directory (default: results/bench)")
    p.add_argument("--profile", default=None, metavar="FIGID",
                   help="additionally cProfile one figure (serial, "
                   "uncached) and embed the top cumulative-time rows "
                   "in the record")
    p.add_argument("--compare", action="store_true",
                   help="after recording, judge the new record against the "
                   "trajectory's older records (regression sentinel)")
    p.add_argument("--fail-on-regression", action="store_true",
                   help="with --compare: exit nonzero when the new record "
                   "regresses significantly")
    p.add_argument("--jobs", type=_positive_int, default=1, metavar="N",
                   help="worker processes for sweep points "
                   "(default: 1, serial — the recommended bench mode: "
                   "pooled points strand their event counts in workers)")
    p.add_argument("--no-cache", action="store_true",
                   help="disable the on-disk point cache (cold timings)")
    _add_cache_dir_flag(p)
    _add_ledger_flags(p)

    p = sub.add_parser(
        "compare",
        help="system comparison table (no args), or the statistical "
        "regression sentinel over run profiles (run paths)",
    )
    p.add_argument("runs", nargs="*", default=[],
                   help="0 args: system table; 1 arg: BENCH history dir "
                   "(newest record vs all older); 2 args: baseline run "
                   "vs candidate run (file or directory each)")
    p.add_argument("--systems", nargs="*", default=None,
                   help="preset names (default: all, plus the offload NIC)")
    p.add_argument("--size", type=_nonnegative_float, default=100,
                   help="message size (KB)")
    p.add_argument("--min-rel", type=float, default=None, metavar="FRAC",
                   help="minimum relative slowdown to call a regression "
                   "(default: 0.05)")
    p.add_argument("--min-records", type=int, default=None, metavar="N",
                   help="baseline samples required per metric (default: 2)")
    p.add_argument("--format", choices=("text", "json"), default="text",
                   help="verdict output format (json: machine-readable "
                   "regressions, CIs, and exit-status rationale)")

    p = sub.add_parser(
        "history",
        help="query the persistent run ledger (filters, aggregates, "
        "per-figure wall-time trend)",
    )
    p.add_argument("--figure", default=None, metavar="FIGID",
                   help="restrict to runs/points touching this figure")
    p.add_argument("--system", default=None,
                   help="restrict point records to this system preset")
    p.add_argument("--kind", default=None,
                   choices=("polling", "pww", "pattern"),
                   help="restrict point records to this method kind")
    p.add_argument("--last", type=int, default=None, metavar="N",
                   help="only the newest N runs")
    p.add_argument("--format", choices=("text", "json"), default="text",
                   help="output format (default: text)")
    _add_ledger_dir_flag(p)

    p = sub.add_parser(
        "top",
        help="attach to a running sweep via its --progress-stream file "
        "and render live point/worker state",
    )
    p.add_argument("stream", help="the sweep's --progress-stream file")
    p.add_argument("--once", action="store_true",
                   help="render one snapshot and exit (no refresh loop)")
    p.add_argument("--interval", type=float, default=1.0, metavar="S",
                   help="refresh period in seconds (default: 1.0)")

    p = sub.add_parser(
        "scenario", help="run a declarative JSON experiment spec"
    )
    p.add_argument("spec", help="path to the scenario JSON document")
    p.add_argument("--out", default=None,
                   help="write the full result document as JSON here")
    _add_ledger_flags(p)

    p = sub.add_parser(
        "profile",
        help="kernel-time breakdown of a polling run (per node, by label)",
    )
    _add_system(p)
    p.add_argument("--size", type=_nonnegative_float, default=100,
                   help="message size (KB)")
    p.add_argument("--interval", type=_positive_int, default=1_000,
                   help="poll interval (loop iterations)")

    p = sub.add_parser(
        "trace",
        help="run a figure or single point with the observability layer "
        "attached; export Chrome trace JSON + CSV timeline + metrics",
    )
    p.add_argument("target",
                   help="registry figure id (fig04..fig17, scale_halo, …), "
                   "'polling', 'pww', or a pattern kind "
                   "(halo/halo2d/halo3d/sweep/allreduce)")
    _add_system(p)
    p.add_argument("--size", type=_nonnegative_float, default=100,
                   help="message size (KB; point targets)")
    p.add_argument("--interval", type=_nonnegative_int, default=None,
                   help="poll/work interval in loop iterations "
                   "(point targets; default: the method's default)")
    p.add_argument("--ranks", type=_positive_int, default=4,
                   help="rank count (pattern targets; default: 4)")
    p.add_argument("--topology", default="crossbar",
                   choices=("crossbar", "fattree"),
                   help="network fabric (pattern targets)")
    p.add_argument("--per-decade", type=_positive_int, default=1,
                   help="grid resolution (figure targets; default: 1)")
    p.add_argument("--out", default="results/trace",
                   help="export directory (default: results/trace)")
    p.add_argument("--ring-capacity", type=_positive_int, default=65536,
                   help="per-kind event ring size (newest events survive)")
    p.add_argument("--kernel", action="store_true",
                   help="also record the per-event kernel stream (very "
                   "noisy; inflates the trace by orders of magnitude)")
    p.add_argument("--attribution", action="store_true",
                   help="stitch events into causal spans and print a "
                   "per-point critical-path decomposition of wait time / "
                   "availability loss; also writes <target>.attribution.json")

    p = sub.add_parser(
        "lint",
        help="static determinism/units/cache-key checks (comb-lint)",
    )
    p.add_argument("paths", nargs="*", default=["src"],
                   help="files/directories to lint (default: src)")
    p.add_argument("--format", choices=("text", "json", "sarif"),
                   default="text", help="output format (sarif: SARIF "
                   "2.1.0 for GitHub code scanning)")
    p.add_argument("--baseline", default="tools/lint_baseline.json",
                   help="grandfathered-violation baseline file")
    p.add_argument("--no-baseline", action="store_true",
                   help="ignore the baseline file (report everything)")
    p.add_argument("--write-baseline", action="store_true",
                   help="rewrite the baseline to grandfather every "
                   "current violation (DET/CACHE rules excluded)")
    p.add_argument("--select", nargs="*", default=None, metavar="RULE",
                   help="restrict to these rule ids")
    p.add_argument("--jobs", type=int, default=1,
                   help="fan file-rule evaluation out over N spawn-pool "
                   "workers (results identical to --jobs 1)")
    p.add_argument("--exclude", nargs="*", default=None, metavar="DIR",
                   help="directory names to skip during discovery "
                   "(e.g. lint_fixtures when linting tests/)")
    p.add_argument("--list-rules", action="store_true",
                   help="print the rule catalog and exit")
    return parser


def _run_lint(args: argparse.Namespace) -> int:
    """``comb lint``: run the static analyzer and gate on new violations."""
    from .lint import (
        Baseline,
        NEVER_BASELINE_PREFIXES,
        format_json,
        format_rule_list,
        format_sarif,
        format_text,
        lint_paths,
    )

    if args.list_rules:
        print(format_rule_list())
        return 0
    baseline = None
    if not args.no_baseline and not args.write_baseline:
        baseline = Baseline.load(args.baseline)
        forbidden = baseline.forbidden_entries()
        if forbidden:
            rules = sorted({str(e.get("rule")) for e in forbidden})
            print(
                f"error: baseline {args.baseline} grandfathers "
                f"{'/'.join(rules)} violations; the "
                f"{'/'.join(NEVER_BASELINE_PREFIXES)} rule families must "
                "be fixed, never baselined",
                file=sys.stderr,
            )
            return 2
    select = set(args.select) if args.select else None
    exclude = set(args.exclude) if args.exclude else None
    report = lint_paths(args.paths, baseline=baseline, select=select,
                        jobs=max(args.jobs, 1), exclude=exclude)
    if args.write_baseline:
        keep = [
            v for v in report.all_found()
            if not v.rule.startswith(NEVER_BASELINE_PREFIXES)
        ]
        Baseline.from_violations(keep).save(args.baseline)
        dropped = len(report.all_found()) - len(keep)
        print(f"wrote {len(keep)} baseline entrie(s) to {args.baseline}"
              + (f" ({dropped} DET/CACHE violation(s) NOT grandfathered — "
                 "fix them)" if dropped else ""))
        return 1 if dropped else 0
    if args.format == "json":
        print(format_json(report))
    elif args.format == "sarif":
        print(format_sarif(report))
    else:
        print(format_text(report))
    return report.exit_code


def _run_trace(args: argparse.Namespace) -> int:
    """``comb trace``: one observed run, three export files."""
    from .obs import write_chrome_trace, write_csv_timeline

    observer = Observer(ring_capacity=args.ring_capacity, kernel=args.kernel)
    target = args.target
    executor_stats = None
    if target == "polling":
        system = get_system(args.system)
        with use_observer(observer):
            run_polling(system, PollingConfig(
                msg_bytes=int(args.size * 1024),
                poll_interval_iters=args.interval or 10_000,
            ))
        label = f"comb polling {system.name}"
    elif target == "pww":
        system = get_system(args.system)
        with use_observer(observer):
            run_pww(system, PwwConfig(
                msg_bytes=int(args.size * 1024),
                work_interval_iters=(
                    args.interval if args.interval is not None else 100_000
                ),
            ))
        label = f"comb pww {system.name}"
    elif target in _PATTERN_ALIASES:
        from .core.executor import PointTask, _point_marker
        from .patterns import PatternConfig, run_pattern

        system = get_system(args.system)
        cfg = PatternConfig(
            pattern=_PATTERN_ALIASES[target],
            ranks=args.ranks,
            msg_bytes=int(args.size * 1024),
            work_interval_iters=(
                args.interval if args.interval is not None else 100_000
            ),
            topology=args.topology,
        )
        if _bad_pattern(system, cfg):
            return 2
        # Bracket the stream with executor-style point markers so
        # attribution labels the point method="pattern" and applies the
        # warmup-window filter (see repro.obs.attribution).
        marker = _point_marker(PointTask("pattern", system, cfg))
        with use_observer(observer):
            observer.tracer.record(0.0, "executor", "point_start", marker)
            run_pattern(system, cfg)
            observer.tracer.record(0.0, "executor", "point_end", ("pattern",))
        label = f"comb {target} {system.name} x{cfg.ranks}"
    elif target in FIGURE_SPECS:
        # Forced serial + uncached: cached points never simulate (no
        # events) and pooled points simulate in other processes (events
        # stranded there) — tracing wants the complete timeline.
        with SweepExecutor(jobs=1, cache=None,
                           metrics=observer.metrics) as executor:
            with use_observer(observer):
                run_figure(target, executor=executor,
                           per_decade=args.per_decade)
            executor_stats = executor.stats
        label = f"comb {target}"
    else:
        print(f"error: unknown trace target {target!r}; expected a figure "
              f"id ({'/'.join(sorted(FIGURE_SPECS))}), 'polling', 'pww', or "
              f"a pattern ({'/'.join(sorted(_PATTERN_ALIASES))})",
              file=sys.stderr)
        return 2

    events = observer.events()
    dropped = observer.tracer.dropped()
    out_dir = Path(args.out)
    try:
        paths = [
            write_chrome_trace(events, out_dir / f"{target}.trace.json",
                               label=label, dropped=dropped),
            write_csv_timeline(events, out_dir / f"{target}.timeline.csv",
                               dropped=dropped),
        ]
        doc = observer.to_dict()
        if executor_stats is not None:
            doc["executor"] = executor_stats.to_dict()
        paths.append(write_metrics(doc.pop("metrics"),
                                   out_dir / f"{target}.metrics.json",
                                   extra=doc))
        if args.attribution:
            paths.append(_write_attribution(events, out_dir, target))
    except OSError as exc:
        print(f"error: cannot write trace output under {out_dir}: {exc}",
              file=sys.stderr)
        return 1
    print(observer.summary())
    for path in paths:
        print(f"wrote {path}")
    print(f"open {paths[0]} in about:tracing or https://ui.perfetto.dev")
    return 0


def _write_attribution(events, out_dir, target) -> object:
    """Stitch + attribute ``events``; print the table, write the JSON."""
    from .obs import (
        TRACE_SCHEMA_VERSION,
        attribute_events,
        format_attribution,
        stitch,
    )

    points = attribute_events(events)
    forest = stitch(events)
    print(format_attribution(points))
    path = out_dir / f"{target}.attribution.json"
    doc = {
        "schema_version": TRACE_SCHEMA_VERSION,
        "points": [pt.to_dict() for pt in points],
        "spans": forest.to_dicts(),
    }
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return path


def _run_figures(args: argparse.Namespace) -> int:
    """``comb figures`` / ``comb report``: regenerate figures, check claims.

    ``report`` is ``figures`` over the default id set, rendered by
    :func:`format_report`, with the claims verdict as its exit status.
    """
    ids = getattr(args, "ids", None)
    if _unknown_figure(ids or ()):
        return 2
    ctx = _RunContext(args, args.command)
    if ctx.error:
        return 1
    with ctx.executor() as executor:
        with use_observer(ctx.observer):
            reports = run_all(per_decade=args.per_decade, fig_ids=ids,
                              executor=executor)
        if getattr(args, "out", None):
            paths = export_figures([r.figure for r in reports], args.out)
            print(f"wrote {len(paths)} files to {args.out}")
    if ctx.finish(executor, reports):
        return 1
    if args.command == "report":
        print(format_report(reports))
    else:
        for rep in reports:
            if not args.no_plots:
                print(render(rep.figure))
            for c in rep.claims:
                mark = "PASS" if c.ok else "FAIL"
                print(f"  [{mark}] {c.claim} ({c.detail})")
    if ctx.verdict(executor):
        return 1
    if args.command == "report" and not all(r.ok for r in reports):
        return 1
    return 0


def _run_bench(args: argparse.Namespace) -> int:
    """``comb bench``: one timed pass over the grid, one BENCH record."""
    from .core.bench import DEFAULT_OUT_DIR, run_bench, write_record

    profiled = [args.profile] if args.profile is not None else []
    if _unknown_figure([*(args.ids or ()), *profiled]):
        return 2
    ctx = _RunContext(args, "bench")
    if ctx.error:
        return 1
    try:
        record = run_bench(ids=args.ids, per_decade=args.per_decade,
                           jobs=args.jobs, cache=ctx.cache(),
                           profile=args.profile, echo=print,
                           ledger=ctx.ledger)
    finally:
        ctx.finish()
    out_dir = Path(args.out_dir) if args.out_dir else DEFAULT_OUT_DIR
    path = write_record(record, out_dir)
    cache_doc = record["cache"]
    lookups = cache_doc["hits"] + cache_doc["misses"]
    line = (f"\ntotal {record['total_s']:.2f}s, cache hit rate "
            f"{cache_doc['hit_rate']:.0%} ({cache_doc['hits']}/{lookups})")
    if "events_processed" in record:
        line += f", {record['events_processed']:,} engine events"
    print(line)
    print(f"wrote {path}")
    if args.compare:
        code = _judge_history(out_dir)
        if args.fail_on_regression and code:
            return code
    return 0 if record["claims_ok"] else 1


def _judge_history(history_dir, min_rel: Optional[float] = None,
                   min_records: Optional[int] = None,
                   as_json: bool = False) -> int:
    """Judge the newest ``BENCH_<n>.json`` in ``history_dir`` against the
    older records of its stratum; print the verdict, return its exit
    code (0 while that history is too short)."""
    from .obs.compare import (
        DEFAULT_MIN_RECORDS,
        DEFAULT_MIN_REL,
        CompareReport,
        compare_history,
    )

    if min_records is None:
        min_records = DEFAULT_MIN_RECORDS
    report = compare_history(
        history_dir, min_records=min_records,
        min_rel=DEFAULT_MIN_REL if min_rel is None else min_rel,
    )
    if report is None:
        # Degenerate histories (a single record, or --min-records 0
        # against one) are "insufficient history", never judged
        # against an empty/zero-width baseline.
        reason = (f"insufficient history: fewer than {max(min_records, 1)} "
                  f"older BENCH records in {history_dir} share the newest "
                  f"record's stratum")
        if as_json:
            print(json.dumps({**CompareReport().to_dict(),
                              "exit_rationale": reason},
                             indent=2, sort_keys=True))
        else:
            print(f"compare: {reason}; nothing to judge yet (not a failure)")
        return 0
    if as_json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(f"compare: newest record in {history_dir} vs the older "
              f"records of its stratum")
        print(report.format())
    return report.exit_code


def _run_compare_runs(args: argparse.Namespace) -> int:
    """``comb compare <runs…>``: the statistical regression sentinel."""
    from .obs import compare_paths
    from .obs.compare import DEFAULT_MIN_REL

    as_json = args.format == "json"
    runs = [Path(r) for r in args.runs]
    for run in runs:
        if not run.exists():
            print(f"error: run path {run} does not exist", file=sys.stderr)
            return 2
    if len(runs) == 1:
        # History mode: either a BENCH trajectory directory or a run
        # ledger file (newest vs older makes no sense for a ledger, so
        # ledgers are only valid as one side of an A-vs-B compare).
        if not runs[0].is_dir():
            print(f"error: history mode needs a directory of BENCH_*.json "
                  f"records, got {runs[0]}", file=sys.stderr)
            return 2
        return _judge_history(runs[0], args.min_rel, args.min_records,
                              as_json)
    if len(runs) != 2:
        print("error: compare takes 0 run paths (system table), 1 "
              "(BENCH history dir), or 2 (baseline candidate)",
              file=sys.stderr)
        return 2
    # Explicit A-vs-B: the user picked the samples, so singleton
    # baselines are judged (zero-width CI) instead of skipped;
    # --min-records restores the stricter gate.
    report = compare_paths(
        runs[0], runs[1],
        min_rel=args.min_rel if args.min_rel is not None else DEFAULT_MIN_REL,
        min_records=args.min_records if args.min_records is not None else 1,
    )
    if as_json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(f"compare: {runs[1]} (candidate) vs {runs[0]} (baseline)")
        print(report.format())
    return report.exit_code


def _run_history(args: argparse.Namespace) -> int:
    """``comb history``: deterministic aggregates over the run ledger."""
    from .obs.ledger import (
        filter_records,
        format_history,
        history_aggregate,
        ledger_path,
        read_records,
    )

    path = ledger_path(Path(args.ledger_dir))
    records, corrupt = read_records(path)
    if not records and not path.exists():
        print(f"history: no ledger at {path} yet (runs append to it by "
              f"default; --ledger-dir selects another)")
        return 0
    filtered = filter_records(
        records, figure=args.figure, system=args.system,
        kind=args.kind, last=args.last,
    )
    aggregate = history_aggregate(filtered)
    if args.format == "json":
        aggregate["corrupt_lines"] = corrupt
        print(json.dumps(aggregate, indent=2, sort_keys=True))
    else:
        print(format_history(aggregate, corrupt=corrupt))
    return 0


def _run_top(args: argparse.Namespace) -> int:
    """``comb top``: attach to a sweep through its stream file."""
    from .obs.live_consumers import run_top

    stream = Path(args.stream)
    if not stream.exists():
        print(f"error: stream file {stream} does not exist (start the "
              f"sweep with --progress-stream {stream})", file=sys.stderr)
        return 2
    try:
        return run_top(stream, once=args.once,
                       interval_s=max(args.interval, 0.1))
    except OSError as exc:
        print(f"error: cannot read stream {stream}: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:  # pragma: no cover - interactive detach
        print()
        return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)

    if args.command == "polling":
        from .verify.context import use_sanitizer

        ctx = _RunContext(args, "polling")
        with use_sanitizer(ctx.sanitizer):
            pt = run_polling(get_system(args.system), PollingConfig(
                msg_bytes=int(args.size * 1024),
                poll_interval_iters=args.interval,
                queue_depth=args.queue_depth,
            ))
        print(f"{pt.system}: {pt.msg_bytes // 1024} KB, poll interval "
              f"{pt.poll_interval_iters} iters")
        print(f"  availability = {pt.availability:.3f}")
        print(f"  bandwidth    = {pt.bandwidth_MBps:.2f} MB/s")
        print(f"  messages     = {pt.msgs}, interrupts = {pt.interrupts}")
        return ctx.verdict()

    if args.command == "pww":
        from .verify.context import use_sanitizer

        ctx = _RunContext(args, "pww")
        with use_sanitizer(ctx.sanitizer):
            pt = run_pww(get_system(args.system), PwwConfig(
                msg_bytes=int(args.size * 1024),
                work_interval_iters=args.interval,
                tests_in_work=args.tests_in_work,
            ))
        print(f"{pt.system}: {pt.msg_bytes // 1024} KB, work interval "
              f"{pt.work_interval_iters} iters")
        print(f"  availability = {pt.availability:.3f}")
        print(f"  bandwidth    = {pt.bandwidth_MBps:.2f} MB/s")
        print(f"  post  = {pt.post_s * 1e6:8.1f} us/batch")
        print(f"  work  = {pt.work_s * 1e6:8.1f} us/batch "
              f"(dry {pt.work_dry_s * 1e6:.1f} us)")
        print(f"  wait  = {pt.wait_s * 1e6:8.1f} us/batch")
        return ctx.verdict()

    if args.command == "pattern":
        from .patterns import PatternConfig, run_pattern
        from .verify.context import use_sanitizer

        cfg = PatternConfig(
            pattern=_PATTERN_ALIASES[args.pattern],
            ranks=args.ranks,
            msg_bytes=int(args.size * 1024),
            work_interval_iters=args.interval,
            iterations=args.iterations,
            warmup_iterations=args.warmup,
            topology=args.topology,
            arity=args.arity,
            ghost_width=args.ghost_width,
            algorithm=args.algorithm,
            grid=tuple(args.grid) if args.grid else (),
        )
        system = get_system(args.system)
        if _bad_pattern(system, cfg):
            return 2
        ctx = _RunContext(args, "pattern")
        with use_sanitizer(ctx.sanitizer):
            pt = run_pattern(system, cfg)
        algo = f" [{pt.algorithm}]" if pt.algorithm else ""
        print(f"{pt.system}: {pt.pattern}{algo}, {pt.ranks} ranks on "
              f"{pt.topology}, {pt.msg_bytes // 1024} KB, work interval "
              f"{pt.work_interval_iters} iters")
        print(f"  availability = {pt.availability:.3f} (median) "
              f"[min {pt.availability_min:.3f}, max {pt.availability_max:.3f}]")
        print(f"  bandwidth    = {pt.bandwidth_MBps:.2f} MB/s aggregate")
        print(f"  messages     = {pt.msgs}, interrupts = {pt.interrupts}")
        print("  per-rank availability:")
        for rank, avail in enumerate(pt.availability_per_rank):
            print(f"    rank {rank:>3d}: {avail:.3f}")
        return ctx.verdict()

    if args.command == "offload":
        suite = CombSuite(get_system(args.system))
        print(suite.offload_report(msg_bytes=int(args.size * 1024)))
        return 0

    if args.command == "netperf":
        r = run_netperf(get_system(args.system),
                        msg_bytes=int(args.size * 1024),
                        wait_mode=args.mode)
        print(f"{r.system} netperf ({r.wait_mode}): "
              f"availability={r.availability:.3f}, "
              f"bandwidth={r.bandwidth_MBps:.2f} MB/s")
        return 0

    if args.command in ("figures", "report"):
        return _run_figures(args)

    if args.command == "bench":
        return _run_bench(args)

    if args.command == "history":
        return _run_history(args)

    if args.command == "top":
        return _run_top(args)

    if args.command == "compare":
        if args.runs:
            return _run_compare_runs(args)
        from .analysis.tables import format_table, system_comparison
        from .ext import offload_nic_system

        if args.systems:
            systems = [get_system(name) for name in args.systems]
        else:
            systems = [get_system(n) for n in sorted(PRESETS)]
            systems.append(offload_nic_system())
        rows = system_comparison(systems, msg_bytes=int(args.size * 1024))
        print(format_table(rows))
        return 0

    if args.command == "scenario":
        from .scenario import (
            ScenarioError,
            format_scenario_results,
            run_scenario,
        )

        ctx = _RunContext(args, "scenario")
        if ctx.error:
            return 1
        try:
            results = run_scenario(args.spec, ledger=ctx.ledger)
        except ScenarioError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        finally:
            ctx.finish()
        print(format_scenario_results(results))
        if args.out:
            Path(args.out).write_text(json.dumps(results, indent=2))
            print(f"\nwrote {args.out}")
        return 0

    if args.command == "profile":
        cfg = PollingConfig(
            msg_bytes=int(args.size * 1024),
            poll_interval_iters=args.interval, measure_s=0.03,
        )
        world, pt = drive_polling(get_system(args.system), cfg)
        print(f"{pt.system}: bw={pt.bandwidth_MBps:.2f} MB/s, "
              f"availability={pt.availability:.3f}\n")
        for node in world.cluster.nodes:
            role = "worker" if node.node_id == 0 else "support"
            print(f"[{role}] {node.cpu.profile_report()}")
            snap = node.cpu.snapshot()
            el = node.cpu.elapsed()
            print(f"  shares: user={snap['user_s'] / el:.3f} "
                  f"kernel={snap['kernel_s'] / el:.3f} "
                  f"idle={snap['idle_s'] / el:.3f}\n")
        return 0

    if args.command == "lint":
        return _run_lint(args)

    if args.command == "trace":
        return _run_trace(args)

    raise AssertionError("unreachable")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
