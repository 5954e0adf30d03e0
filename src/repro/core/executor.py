"""Sweep execution layer: parallel point fan-out + persistent point cache.

Every COMB figure is a parameter sweep whose points run on fresh,
independent, deterministic worlds (see :mod:`repro.core.sweep`), so the
suite's hot loop is embarrassingly parallel *and* perfectly memoizable.
This module exploits both properties:

* :class:`SweepExecutor` fans a list of :class:`PointTask` records out
  over a spawn-safe :mod:`multiprocessing` pool (``jobs > 1``) or runs
  them inline (``jobs=1``, the default).  Results are assembled in task
  order, so the pool path is bit-identical to the serial path.
* :class:`PointCache` is a content-addressed on-disk store: the key is a
  stable SHA-256 over the full :class:`~repro.config.SystemConfig`, the
  method config, the method kind, and a code-version salt hashed from the
  simulator's source files.  Re-generating a figure only simulates points
  the cache has never seen; editing any simulator source invalidates every
  stale record automatically.
* An in-process memo table (always on) deduplicates identical points
  *within* a run — overlapping figures (e.g. Figs 4/5 share one polling
  sweep; Figs 14–17 re-sweep the same grids) pay for each point once.

Executor resolution is layered: an explicit ``executor=`` argument wins,
then the innermost :func:`use_executor` context, then a lazily-created
process-wide serial default.  Library code therefore never *needs* to
know about executors, while drivers (CLI, ``reproduce_paper.py``) opt in
to parallelism and persistence with two flags.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import multiprocessing
import multiprocessing.pool
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass
from enum import Enum
from functools import partial
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from ..config import SystemConfig
from ..obs import live as _live
from ..obs.context import current_observer
from ..obs.live import TelemetryChannel
from ..obs.metrics import DEFAULT_LATENCY_BUCKETS_S, MetricsRegistry

# Submodule imports only (never package-level ``..patterns``): the
# patterns package imports core submodules, so importing its package
# __init__ from here would cycle.
from ..patterns.config import PatternConfig
from ..patterns.results import PatternPoint
from ..patterns.runner import run_pattern
from ..stats import (
    Disagreement,
    StoppingRule,
    find_disagreements,
    is_stochastic,
    replicate_system,
    summarize_replicates,
)
from .accounting import drain_events
from .polling import PollingConfig, run_polling
from .pww import PwwConfig, run_pww
from .results import PollingPoint, PwwPoint

#: Any method's per-point result record.
Point = Union[PollingPoint, PwwPoint, PatternPoint]

#: Default location of the on-disk point cache (relative to the CWD).
DEFAULT_CACHE_DIR = ".comb_cache"

#: Bump to invalidate every existing cache record regardless of source
#: hashing (e.g. when the *record format* below changes).
CACHE_SCHEMA_VERSION = 1

#: Replicates-per-point histogram buckets (adaptive designs are small).
_REPLICATE_BUCKETS = (1.0, 2.0, 3.0, 5.0, 8.0, 16.0, 32.0, 64.0)

#: Stopping reason → metric counter name (static names keep the metric
#: namespace enumerable).
_STOP_COUNTERS = {
    "ci_width": "executor.replication.stop.ci_width",
    "max_reps": "executor.replication.stop.max_reps",
    "fixed": "executor.replication.stop.fixed",
}

#: Method kind → (config type, runner, result type).
_METHODS = {
    "polling": (PollingConfig, run_polling, PollingPoint),
    "pww": (PwwConfig, run_pww, PwwPoint),
    "pattern": (PatternConfig, run_pattern, PatternPoint),
}


@dataclass(frozen=True)
class PointTask:
    """One sweep point: a method kind bound to its full configuration.

    Plain picklable data — safe to ship to a spawn-context worker.
    """

    kind: str
    system: SystemConfig
    cfg: Union[PollingConfig, PwwConfig, PatternConfig]

    def __post_init__(self) -> None:
        if self.kind not in _METHODS:
            raise ValueError(
                f"unknown method kind {self.kind!r}; have {sorted(_METHODS)}"
            )


def run_task(task: PointTask) -> Point:
    """Execute one task on a fresh world (also the pool worker entry)."""
    _cfg_type, runner, _pt_type = _METHODS[task.kind]
    return runner(task.system, task.cfg)


def run_task_checked(task: PointTask) -> Tuple[Point, List[Any]]:
    """Execute one task under the simulation sanitizer.

    Returns ``(point, violations)``.  Module-level (not a closure) so the
    spawn pool can pickle it; :class:`~repro.verify.monitors.Violation` is
    a frozen dataclass of primitives, so the report ships back intact.
    The sanitizer only observes — the point is bit-identical to
    :func:`run_task`'s.
    """
    from ..verify import Sanitizer, use_sanitizer

    sanitizer = Sanitizer()
    with use_sanitizer(sanitizer):
        point = run_task(task)
    return point, sanitizer.finalize()


def _point_marker(task: PointTask) -> Tuple[str, str, int, int, int]:
    """``point_start`` detail: ``(kind, system, msg_bytes, interval_iters,
    warmup_windows)``.  Polling self-describes its window (``poll_window``
    events), so its warmup count is 0."""
    cfg = task.cfg
    if isinstance(cfg, PwwConfig):
        return (task.kind, task.system.name, cfg.msg_bytes,
                cfg.work_interval_iters, cfg.warmup_batches)
    if isinstance(cfg, PatternConfig):
        return (task.kind, task.system.name, cfg.msg_bytes,
                cfg.work_interval_iters, cfg.warmup_iterations)
    return (task.kind, task.system.name, cfg.msg_bytes,
            cfg.poll_interval_iters, 0)


def _sim_entry(
    task_and_key: Tuple[PointTask, str], check: bool = False
) -> Tuple[Point, List[Any], float]:
    """The worker entry: ``(point, violations, wall_s)``.

    Module-level so ``functools.partial`` of it pickles into the spawn
    pool.  ``wall_s`` is measured *inside* the worker, so pool timings
    profile simulation cost, not dispatch latency.  The run is bracketed
    by live telemetry ``point_start`` / ``point_end`` events from the
    process it runs in (pool worker, or the parent on the serial path);
    both are no-ops unless that process is armed.  Neither timing nor
    telemetry touches the point: it is bit-identical in every mode.
    """
    task, key = task_and_key
    kind, system, msg_bytes, interval_iters, _warmup_windows = (
        _point_marker(task)
    )
    _live.note_point_start(key, kind, {
        "system": system,
        "msg_bytes": msg_bytes,
        "interval_iters": interval_iters,
    })
    t0_wall = time.perf_counter()
    if check:
        point, violations = run_task_checked(task)
    else:
        point, violations = run_task(task), []
    wall_s = time.perf_counter() - t0_wall
    _live.note_point_end(key, kind, wall_s)
    return point, violations, wall_s


# --------------------------------------------------------------------- keys
def _jsonable(value: Any) -> Any:
    """Canonical JSON-ready form of a config value (stable across runs)."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: _jsonable(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in sorted(value.items())}
    return value


#: Simulator packages/modules whose source determines point values —
#: including the optional C kernel, which replicates the DES kernel and so
#: can change every value when edited.  The analysis/plotting layers are
#: deliberately excluded: they postprocess points but never influence them.
_SALT_SOURCES = ("sim", "hardware", "transport", "os", "mpi", "core",
                 "patterns", "config.py", "_simcore.c")

_code_salt: Optional[str] = None


def salt_files() -> List[Path]:
    """The source files :func:`code_salt` hashes, in hashing order."""
    root = Path(__file__).resolve().parent.parent  # src/repro
    files: List[Path] = []
    for entry in _SALT_SOURCES:
        path = root / entry
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        elif path.exists():  # _simcore.c is absent from a wheel install
            files.append(path)
    return files


def code_salt() -> str:
    """Hash of the simulator's source files (computed once per process).

    Any edit to the DES kernel (Python or C), hardware models, transports,
    MPI layer, or the COMB methods changes the salt and therefore every
    cache key — stale records can never be returned after a code change.
    """
    global _code_salt
    if _code_salt is None:
        root = Path(__file__).resolve().parent.parent  # src/repro
        h = hashlib.sha256()
        for f in salt_files():
            h.update(str(f.relative_to(root)).encode())
            h.update(f.read_bytes())
        _code_salt = h.hexdigest()[:16]
    return _code_salt


def task_key(task: PointTask, salt: Optional[str] = None) -> str:
    """Stable content hash of a task (the cache key)."""
    doc = {
        "schema": CACHE_SCHEMA_VERSION,
        "salt": salt if salt is not None else code_salt(),
        "kind": task.kind,
        "system": _jsonable(task.system),
        "cfg": _jsonable(task.cfg),
    }
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


# -------------------------------------------------------------------- cache
@dataclass
class CacheStats:
    """Hit/miss counters for one executor lifetime."""

    hits: int = 0
    misses: int = 0
    #: Corrupt on-disk records evicted during this executor's lookups.
    evictions: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0.0 when idle)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def to_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": self.hit_rate,
        }


class PointCache:
    """Content-addressed on-disk store of measurement points.

    Layout: one JSON record per point under ``root``, named
    ``<sha256>.json`` and sharded by the first two hex digits::

        .comb_cache/ab/abcdef….json

    Records carry the method kind and the full result dataclass; floats
    survive the JSON round-trip exactly (shortest-repr doubles), so a
    cache hit is bit-identical to a fresh simulation.
    """

    def __init__(self, root: Union[str, Path] = DEFAULT_CACHE_DIR) -> None:
        self.root = Path(root)
        #: Corrupt records detected (and removed) over this cache's lifetime.
        self.evictions = 0

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def get(self, key: str, kind: str) -> Optional[Point]:
        """Return the stored point for ``key``, or ``None``.

        Corrupt records — truncated writes, hand-edited garbage, or JSON
        of the wrong shape — are treated as misses *and deleted*, so one
        bad file costs one recompute instead of poisoning every future
        lookup of its key.
        """
        path = self._path(key)
        try:
            text = path.read_text()
        except OSError:
            return None
        try:
            doc = json.loads(text)
            if not isinstance(doc, dict):
                raise ValueError("record is not a JSON object")
            if doc.get("kind") != kind:  # key collision across kinds:
                return None  # impossible, but never mis-deserialize
            _cfg_type, _runner, pt_type = _METHODS[kind]
            return pt_type(**doc["point"])
        except (ValueError, KeyError, TypeError):
            self._evict_corrupt(path)
            return None

    def _evict_corrupt(self, path: Path) -> None:
        """Best-effort removal of an unreadable record (always counted)."""
        self.evictions += 1
        try:
            path.unlink()
        except OSError:  # pragma: no cover - racing eviction is fine
            pass

    def put(self, key: str, kind: str, point: Point) -> None:
        """Store ``point`` under ``key`` (atomic rename, racer-safe)."""
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {"kind": kind, "point": dataclasses.asdict(point)}
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        tmp.write_text(json.dumps(doc, sort_keys=True))
        os.replace(tmp, path)

    def clear(self) -> int:
        """Delete every record; returns the number removed."""
        n = 0
        if self.root.is_dir():
            for f in self.root.rglob("*.json"):
                f.unlink()
                n += 1
        return n

    def __len__(self) -> int:
        return sum(1 for _ in self.root.rglob("*.json")) if self.root.is_dir() else 0


# ----------------------------------------------------------------- executor
class SweepExecutor:
    """Runs batches of independent sweep points, optionally in parallel
    and optionally against a persistent cache.

    Parameters
    ----------
    jobs:
        Worker processes.  ``1`` (default) runs points inline — the
        reference code path; ``N > 1`` fans cache misses out over a
        spawn-context pool.  Both paths assemble results in task order,
        so they are bit-identical.
    cache:
        ``None`` (default) disables the on-disk cache; a :class:`PointCache`
        or a path enables it.
    check:
        Run every simulated point under the simulation sanitizer
        (:mod:`repro.verify`) and collect invariant violations into
        :attr:`violations`.  Observation-only: checked points are
        bit-identical to unchecked ones.  Off by default — the default
        path never imports or touches the verify package.
    metrics:
        A :class:`~repro.obs.metrics.MetricsRegistry` receiving
        wall-clock stage profiles: cache hit/miss lookup latency
        histograms, per-point simulation wall times, and worker fan-out
        utilization per batch.  ``None`` (default) records none of them;
        the walls are read on every path either way, and never reach
        the points.
    reps:
        Replicate cap per sweep point.  ``1`` (default) is the classic
        single-shot path, bit-identical to the pre-replication executor.
        ``N > 1`` runs each point as replicated sub-runs on named RNG
        substreams (replicate 0 keeps the root seed and therefore the
        single-shot cache key) and returns one aggregated point per task
        carrying a ``replication`` summary.
    ci_width:
        Adaptive stopping tolerance: with ``reps > 1``, stop replicating
        a point once the bootstrap CI of its availability is at most
        this wide (never exceeding the ``reps`` cap).  ``None``
        (default) runs the fixed design of exactly ``reps`` replicates.
        Ignored when ``reps == 1``.
    telemetry:
        A :class:`~repro.obs.live.TelemetryChannel` receiving live point
        lifecycle events and per-worker heartbeats (see
        :mod:`repro.obs.live`).  Pool workers are armed through the pool
        initializer; on the serial path the parent arms itself.  Keep
        the channel drained (a running hub) until :meth:`close` returns:
        workers flush their buffered events before they exit.
        ``None`` (default) is the detached path — no queue, no arming,
        bit-identical results.
    point_log:
        Record one parent-side outcome dict per point into
        :attr:`point_records` (key, kind, system, hit/miss/duplicate,
        wall, seed) — the run ledger's feed.  The points themselves are
        untouched.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache: Union[None, str, Path, PointCache] = None,
        check: bool = False,
        metrics: Optional[MetricsRegistry] = None,
        reps: int = 1,
        ci_width: Optional[float] = None,
        telemetry: Optional[TelemetryChannel] = None,
        point_log: bool = False,
    ) -> None:
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        if reps < 1:
            raise ValueError("reps must be >= 1")
        self.jobs = jobs
        if cache is not None and not isinstance(cache, PointCache):
            cache = PointCache(cache)
        self.cache = cache
        self.check = check
        self.metrics = metrics
        self.reps = reps
        self.ci_width = ci_width
        self.telemetry = telemetry
        self.point_log = point_log
        #: Parent-side per-point outcome records (``point_log`` or
        #: ``telemetry`` set): the run ledger's input.
        self.point_records: List[Dict[str, Any]] = []
        self._armed_serial = False
        self.stats = CacheStats()
        #: Violations collected from checked simulations (``check=True``).
        self.violations: List[Any] = []
        #: Replica disagreements: deterministic points whose replicates
        #: diverged bit-level — sanitizer escapes (see ``repro.stats``).
        self.disagreements: List[Disagreement] = []
        self._memo: Dict[str, Any] = {}
        self._pool: Optional[multiprocessing.pool.Pool] = None
        self._pool_size = 0
        self._evictions_base = cache.evictions if cache is not None else 0

    # ------------------------------------------------------------- lifecycle
    def close(self) -> None:
        """Shut the worker pool down (idempotent).

        Workers exit on their own, so each flushes its telemetry queue
        first: a terminated worker can lose a ``point_end`` still
        buffered in its queue's feeder thread.
        """
        if self._pool is not None:
            self._pool.close()
            self._pool.join()
            self._pool = None
        if self._armed_serial:
            _live.disarm_worker()
            self._armed_serial = False

    def __enter__(self) -> "SweepExecutor":
        return self

    def __exit__(self, exc_type: object, *exc: object) -> None:
        if exc_type is not None and self._pool is not None:
            # On an error (Ctrl-C included) do not wait out running points.
            self._pool.terminate()
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:
            pass

    def _get_pool(self, want: int) -> multiprocessing.pool.Pool:
        """Lazily create (and reuse) the spawn-context worker pool."""
        if self._pool is None:
            ctx = multiprocessing.get_context("spawn")
            self._pool_size = min(self.jobs, max(want, 1))
            telemetry = self.telemetry
            # With telemetry, arm every worker as an emitter: the bounded
            # queue inherits through initargs (the only channel a spawn
            # worker can receive an mp.Queue over).
            self._pool = ctx.Pool(
                processes=self._pool_size,
                initializer=(_live.pool_worker_init
                             if telemetry is not None else None),
                initargs=((telemetry.queue, telemetry.heartbeat_s)
                          if telemetry is not None else ()),
            )
        return self._pool

    # ------------------------------------------------------------- execution
    def run(
        self,
        tasks: Sequence[PointTask],
        reps: Optional[int] = None,
        ci_width: Optional[float] = None,
    ) -> List[Any]:
        """Run every task, returning points in task order.

        Cache/memo hits are returned as fresh copies (no aliasing between
        calls); misses are simulated — in parallel when ``jobs > 1`` —
        and written back to the cache.

        ``reps`` / ``ci_width`` override the executor-level replication
        settings for this batch.  With an effective ``reps > 1`` each
        task becomes a replicated measurement (see
        :meth:`_run_replicated`); otherwise this is the single-shot path,
        byte-for-byte the pre-replication executor.
        """
        eff_reps = self.reps if reps is None else reps
        eff_ci = self.ci_width if ci_width is None else ci_width
        if eff_reps > 1:
            return self._run_replicated(list(tasks), eff_reps, eff_ci)
        return self._run_base(tasks)

    def _run_base(self, tasks: Sequence[PointTask]) -> List[Any]:
        """Single-shot execution: one simulation (or cache hit) per task."""
        salt = code_salt()
        # Outcome notes feed the ledger (point_log), the live stream
        # (telemetry), and the trace's executor row (ambient observer).
        live_on = (self.point_log or self.telemetry is not None
                   or current_observer() is not None)
        results: List[Any] = [None] * len(tasks)
        pending: List[Tuple[int, str, PointTask]] = []
        first_for_key: Dict[str, int] = {}
        duplicates: List[Tuple[int, int]] = []
        n_hits = 0
        for i, task in enumerate(tasks):
            key = task_key(task, salt)
            if key in first_for_key:
                # Duplicate of a pending miss in this very batch: simulate
                # once, copy after — and keep it out of the hit/miss stats
                # so ``misses`` always equals the number of simulations.
                duplicates.append((i, first_for_key[key]))
                if live_on:
                    self._note_outcome(key, task, "duplicate", None)
                continue
            point = self._lookup(key, task.kind)
            if point is not None:
                results[i] = point
                n_hits += 1
                if live_on:
                    self._note_outcome(key, task, "hit", None)
            else:
                first_for_key[key] = i
                pending.append((i, key, task))

        if self.telemetry is not None:
            self.telemetry.emit(
                "batch", n_tasks=len(tasks), n_hits=n_hits,
                n_pending=len(pending),
            )
        if pending:
            fresh = self._simulate(
                [t for _i, _k, t in pending], [k for _i, k, _t in pending]
            )
            for (i, key, task), (point, wall_s) in zip(pending, fresh):
                results[i] = point
                self._store(key, task.kind, point)
                if live_on:
                    self._note_outcome(key, task, "miss", wall_s)
        for i, j in duplicates:
            results[i] = dataclasses.replace(results[j])
        return results

    def _note_outcome(
        self,
        key: str,
        task: PointTask,
        outcome: str,
        wall_s: Optional[float],
    ) -> None:
        """Record one parent-side point outcome (ledger + live stream)."""
        self.point_records.append({
            "key": key,
            "kind": task.kind,
            "system": task.system.name,
            "outcome": outcome,
            "wall_s": wall_s,
            "seed": task.system.seed,
        })
        if outcome == "miss":
            return
        # Misses announce themselves from the worker (point_start /
        # point_end); hits and duplicates never reach a worker, so the
        # parent speaks for them.
        if self.telemetry is not None:
            self.telemetry.emit(
                "point_cached", key=key, method=task.kind,
                system=task.system.name, outcome=outcome,
            )
        obs = current_observer()
        tracer = obs.tracer if obs is not None else None
        if tracer is not None:
            tracer.record(0.0, "executor", "point_cached", (task.kind,))

    def run_one(self, task: PointTask) -> Point:
        """Convenience wrapper: run a single task."""
        return self.run([task])[0]

    # ----------------------------------------------------------- replication
    @staticmethod
    def _replicate_task(task: PointTask, index: int) -> PointTask:
        """``task`` reseeded for replicate ``index``.

        Replicate 0 is the task itself — same seed, same cache key — so
        warm single-shot caches feed replicated runs and vice versa.
        """
        if index == 0:
            return task
        return dataclasses.replace(
            task, system=replicate_system(task.system, index)
        )

    def _run_replicated(
        self, tasks: List[PointTask], reps: int, ci_width: Optional[float]
    ) -> List[Any]:
        """Run each task as replicated sub-runs on named RNG substreams.

        Rounds of replicates are batched *across* points (one
        :meth:`_run_base` call per round) so the worker pool stays full
        even in adaptive designs.  Raw replicate points are cached
        individually by :meth:`_run_base`; the aggregated points returned
        here (replicate 0 plus a ``replication`` summary) are recomputed
        per run and never cached, so two invocations over the same cache
        report identical summaries.
        """
        rule = StoppingRule(max_reps=reps, ci_width=ci_width)
        results: List[Any] = [None] * len(tasks)
        first_for_key: Dict[str, int] = {}
        duplicates: List[Tuple[int, int]] = []
        active: List[Tuple[int, PointTask]] = []
        salt = code_salt()
        for i, task in enumerate(tasks):
            key = task_key(task, salt)
            if key in first_for_key:
                duplicates.append((i, first_for_key[key]))
                continue
            first_for_key[key] = i
            active.append((i, task))

        samples: Dict[int, List[Any]] = {i: [] for i, _task in active}
        while active:
            batch: List[PointTask] = []
            owners: List[int] = []
            for i, task in active:
                have = len(samples[i])
                target = rule.initial_reps if have == 0 else have + 1
                for r in range(have, target):
                    batch.append(self._replicate_task(task, r))
                    owners.append(i)
            for owner, point in zip(owners, self._run_base(batch)):
                samples[owner].append(point)
            still: List[Tuple[int, PointTask]] = []
            for i, task in active:
                verdict = rule.decide(
                    [p.availability for p in samples[i]]
                )
                if verdict is None:
                    still.append((i, task))
                else:
                    results[i] = self._aggregate(task, samples[i], verdict)
            active = still
        for i, j in duplicates:
            results[i] = dataclasses.replace(results[j])
        return results

    def _aggregate(
        self, task: PointTask, points: Sequence[Any], reason: str
    ) -> Any:
        """Fold one point's replicates into replicate 0 + summary.

        On deterministic systems every replicate must reproduce replicate
        0 bit for bit; divergences are recorded in
        :attr:`disagreements`.  Stochastic systems (fault injection
        armed) skip the check — their replicates legitimately differ and
        carry genuine CIs instead.
        """
        docs = [p.to_dict() for p in points]
        n_disagreements = 0
        if not is_stochastic(task.system):
            for index, fields in find_disagreements(docs):
                n_disagreements += 1
                self.disagreements.append(Disagreement(
                    kind=task.kind,
                    system=task.system.name,
                    replicate_index=index,
                    fields=fields,
                ))
        summary = summarize_replicates(
            docs, reason, disagreements=n_disagreements
        )
        metrics = self.metrics
        if metrics is not None:
            metrics.counter("executor.replicates").inc(len(points))
            metrics.histogram(
                "executor.replicates_per_point", _REPLICATE_BUCKETS
            ).observe(float(len(points)))
            metrics.counter(_STOP_COUNTERS[reason]).inc()
            if n_disagreements:
                metrics.counter("executor.replication.disagreements").inc(
                    n_disagreements
                )
        return dataclasses.replace(points[0], replication=summary)

    # -------------------------------------------------------------- plumbing
    def _lookup(self, key: str, kind: str) -> Optional[Point]:
        """The memo, then the on-disk cache; ``None`` on a miss.

        Counts the outcome in :attr:`stats` and, with ``metrics`` set, in
        the hit/miss/eviction counters and lookup-latency histograms.
        """
        t0_wall = time.perf_counter()
        evictions_before = self.stats.evictions
        point: Optional[Point] = None
        if key in self._memo:
            point = dataclasses.replace(self._memo[key])
        elif self.cache is not None:
            point = self.cache.get(key, kind)
            self.stats.evictions = self.cache.evictions - self._evictions_base
            if point is not None:
                self._memo[key] = dataclasses.replace(point)
        if point is not None:
            self.stats.hits += 1
        else:
            self.stats.misses += 1
        metrics = self.metrics
        if metrics is not None:
            hit = point is not None
            metrics.counter(
                "executor.cache.hits" if hit else "executor.cache.misses"
            ).inc()
            metrics.histogram(
                "executor.lookup_hit_s" if hit else "executor.lookup_miss_s",
                DEFAULT_LATENCY_BUCKETS_S,
            ).observe(time.perf_counter() - t0_wall)
            evicted = self.stats.evictions - evictions_before
            if evicted:
                metrics.counter("executor.cache.evictions").inc(evicted)
        return point

    def _store(self, key: str, kind: str, point: Point) -> None:
        self._memo[key] = dataclasses.replace(point)
        if self.cache is not None:
            self.cache.put(key, kind, point)

    def _simulate(
        self, tasks: Sequence[PointTask], keys: Sequence[str]
    ) -> List[Tuple[Point, float]]:
        """Simulate ``tasks`` (cache keys ``keys``); ``(point, wall_s)``
        pairs in task order."""
        metrics = self.metrics
        telemetry = self.telemetry
        t_batch0_s = time.perf_counter()
        entry = partial(_sim_entry, check=self.check)
        items = list(zip(tasks, keys))
        pooled = self.jobs > 1 and len(items) > 1
        if pooled:
            # chunksize=1: tasks are coarse (whole simulations); dynamic
            # dispatch balances wildly uneven point costs.  pool.map keeps
            # result order == task order, preserving determinism.
            raw = self._get_pool(len(items)).map(entry, items, chunksize=1)
        else:
            if telemetry is not None and not _live.worker_armed():
                # Serial path: the parent is the (sole) worker — arm it
                # so lifecycle events and heartbeats flow the same way.
                _live.arm_worker(telemetry.queue, telemetry.heartbeat_s)
                self._armed_serial = True
            # With an ambient observer, bracket each point's event stream
            # with markers so attribution (repro.obs.attribution) can cut
            # the merged stream back into sweep points.  Markers are
            # emitted *around* simulation — they never touch it.
            obs = current_observer()
            tracer = obs.tracer if obs is not None else None
            raw = []
            for item in items:
                if tracer is not None:
                    tracer.record(0.0, "executor", "point_start",
                                  _point_marker(item[0]))
                raw.append(entry(item))
                if tracer is not None:
                    tracer.record(0.0, "executor", "point_end",
                                  (item[0].kind,))
        busy_s = 0.0
        for _point, violations, wall_s in raw:
            self.violations.extend(violations)
            busy_s += wall_s
        # Drain unconditionally so counts never leak into a later executor;
        # pooled points tallied in worker processes are lost by design (see
        # repro.core.accounting).
        events = drain_events()
        if metrics is not None:
            if events:
                metrics.counter("sim.events_processed").inc(events)
            batch_wall_s = time.perf_counter() - t_batch0_s
            metrics.counter("executor.batches").inc()
            metrics.counter("executor.points_simulated").inc(len(items))
            metrics.counter("executor.simulate_wall_s").inc(batch_wall_s)
            task_hist = metrics.histogram(
                "executor.task_wall_s", DEFAULT_LATENCY_BUCKETS_S
            )
            for _point, _violations, wall_s in raw:
                task_hist.observe(wall_s)
            # Fraction of the batch's worker-slot capacity spent simulating
            # (1.0 = perfectly packed; low values = stragglers or idle
            # workers).  Serial batches have exactly one slot.
            slots = self._pool_size if pooled else 1
            if batch_wall_s > 0:
                metrics.gauge("executor.fanout_utilization").set(
                    busy_s / (batch_wall_s * slots)
                )
        return [(point, wall_s) for point, _violations, wall_s in raw]


# --------------------------------------------------------- default resolution
_default_executor: Optional[SweepExecutor] = None
_active_stack: List[SweepExecutor] = []


def default_executor() -> SweepExecutor:
    """The process-wide serial executor (created on first use)."""
    global _default_executor
    if _default_executor is None:
        _default_executor = SweepExecutor(jobs=1, cache=None)
    return _default_executor


def current_executor(explicit: Optional[SweepExecutor] = None) -> SweepExecutor:
    """Resolve the executor for a sweep call.

    Priority: explicit argument > innermost :func:`use_executor` context >
    process-wide serial default.
    """
    if explicit is not None:
        return explicit
    if _active_stack:
        return _active_stack[-1]
    return default_executor()


@contextmanager
def use_executor(executor: Optional[SweepExecutor]) -> Iterator[Optional[SweepExecutor]]:
    """Make ``executor`` ambient for the dynamic extent of the block.

    ``None`` is accepted (and is a no-op) so callers can write
    ``with use_executor(maybe_executor):`` unconditionally.
    """
    if executor is None:
        yield None
        return
    _active_stack.append(executor)
    try:
        yield executor
    finally:
        _active_stack.pop()
