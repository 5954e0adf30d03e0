"""Parent-side consumers of the live telemetry stream.

:class:`TelemetryHub` drains a :class:`~repro.obs.live.TelemetryChannel`
on a background thread, folds every event into a :class:`SweepState`,
and fans events out to consumers (plain callables taking one event
dict).  On top of the raw worker events it synthesizes three kinds of
its own — ``stall`` (a running point exceeding
:data:`DEFAULT_STALL_FACTOR` × its predicted cost, or a worker whose
heartbeats stopped mid-point), ``progress`` (periodic counters + ETA
from the cache-aware :class:`CostModel`), and ``run_end`` — which are
delivered to consumers directly, never through the droppable queue.

Shipped consumers: :class:`StreamWriter` (NDJSON to a path or inherited
fd — the machine-readable stream ``comb top`` and the future HTTP layer
read) and :class:`ProgressRenderer` (single-line TTY progress plus a
final stall/drop report).  :func:`run_top` is the ``comb top`` entry
point: it attaches to a running sweep by tailing the stream file and
re-deriving :class:`SweepState` from the lines written so far.
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, IO, List, Optional, Set

from .live import TelemetryChannel, make_event, validate_stream_event

#: A consumer is any callable taking one stream-event dict.
Consumer = Callable[[Dict[str, Any]], None]

#: A point is a stall suspect once its elapsed wall exceeds
#: ``factor × predicted`` (and the absolute floor below).
DEFAULT_STALL_FACTOR = 8.0
#: Never flag a stall before this much elapsed wall, whatever the
#: prediction says — tiny points make k× predictions meaninglessly small.
DEFAULT_STALL_FLOOR_S = 2.0
#: A worker whose last event is older than ``factor × heartbeat_s``
#: while it owns a running point is presumed lost (killed / wedged).
DEFAULT_HEARTBEAT_LOSS_FACTOR = 6.0
#: Period of the hub's synthetic ``progress`` events.
DEFAULT_PROGRESS_PERIOD_S = 1.0
#: How long :meth:`TelemetryHub.close` waits for one more queued event
#: before it considers the queue flushed.
_FLUSH_WAIT_S = 0.05


class CostModel:
    """Cache-aware point-cost estimate from the walls seen so far.

    Cache hits are free (they never reach a worker); only simulated
    misses contribute samples.  Per-method means fall back to the
    global mean, so predictions exist as soon as *any* point finishes.
    """

    def __init__(self) -> None:
        self._sum_s: Dict[str, float] = {}
        self._n: Dict[str, int] = {}

    def observe(self, method: str, wall_s: float) -> None:
        self._sum_s[method] = self._sum_s.get(method, 0.0) + wall_s
        self._n[method] = self._n.get(method, 0) + 1

    def predicted_s(self, method: str) -> Optional[float]:
        n = self._n.get(method, 0)
        if n:
            return self._sum_s[method] / n
        total_n = sum(self._n.values())
        if total_n:
            return sum(self._sum_s.values()) / total_n
        return None

    def eta_s(self, remaining: int, jobs: int) -> Optional[float]:
        """Wall estimate for ``remaining`` pending misses on ``jobs`` lanes."""
        total_n = sum(self._n.values())
        if not total_n or remaining <= 0:
            return 0.0 if remaining <= 0 else None
        mean_s = sum(self._sum_s.values()) / total_n
        return remaining * mean_s / max(jobs, 1)


class _RunningPoint:
    """Parent-side view of one in-flight point."""

    __slots__ = ("key", "method", "system", "pid", "start_wall_s", "stalled")

    def __init__(self, key: str, method: str, system: str, pid: int,
                 start_wall_s: float) -> None:
        self.key = key
        self.method = method
        self.system = system
        self.pid = pid
        self.start_wall_s = start_wall_s
        self.stalled = False


class _WorkerView:
    """Parent-side view of one worker process, from its heartbeats."""

    __slots__ = ("pid", "last_seen_wall_s", "sim_now_s", "events_processed",
                 "points_done", "current_key", "dropped", "lost")

    def __init__(self, pid: int, now_wall_s: float) -> None:
        self.pid = pid
        self.last_seen_wall_s = now_wall_s
        self.sim_now_s: Optional[float] = None
        self.events_processed = 0
        self.points_done = 0
        self.current_key: Optional[str] = None
        self.dropped: Dict[str, int] = {}
        self.lost = False


class SweepState:
    """Event-sourced state of a sweep: fold stream events in order.

    Both the hub (live queue) and ``comb top`` (stream file) derive
    their view through this one state machine, so what ``top`` renders
    is by construction what the parent saw.
    """

    def __init__(self) -> None:
        self.run_id: Optional[str] = None
        self.cmd: Optional[str] = None
        self.jobs = 1
        self.figure: Optional[str] = None
        self.tasks = 0
        self.cached = 0
        self.done = 0
        self.stall_count = 0
        self.finished = False
        self.wall_s: Optional[float] = None
        self.eta_s: Optional[float] = None
        self.running: Dict[str, _RunningPoint] = {}
        self.workers: Dict[int, _WorkerView] = {}
        self.stalls: List[Dict[str, Any]] = []
        #: Latest cumulative per-kind drops reported by each pid.
        self.worker_dropped: Dict[int, Dict[str, int]] = {}
        #: Parent-side queue drops (merged in by the hub at run end).
        self.parent_dropped: Dict[str, int] = {}
        self.invalid_lines = 0

    # ---------------------------------------------------------------- fold
    def apply(self, doc: Dict[str, Any]) -> None:
        kind = doc.get("kind")
        pid = doc.get("pid")
        now_wall_s = float(doc.get("t_wall_s", 0.0) or 0.0)
        if isinstance(pid, int) and kind in ("heartbeat", "point_start",
                                             "point_end"):
            worker = self.workers.get(pid)
            if worker is None:
                worker = self.workers[pid] = _WorkerView(pid, now_wall_s)
            worker.last_seen_wall_s = max(worker.last_seen_wall_s, now_wall_s)
        if kind == "run_start":
            self.run_id = doc.get("run_id")
            self.cmd = doc.get("cmd")
            self.jobs = int(doc.get("jobs", 1) or 1)
        elif kind == "batch":
            self.tasks += int(doc.get("n_tasks", 0) or 0)
        elif kind == "figure_start":
            self.figure = doc.get("figure")
        elif kind == "figure_end":
            self.figure = None
        elif kind == "point_cached":
            self.cached += 1
        elif kind == "point_start":
            key = str(doc.get("key"))
            self.running[key] = _RunningPoint(
                key, str(doc.get("method")), str(doc.get("system")),
                pid if isinstance(pid, int) else 0, now_wall_s,
            )
            if isinstance(pid, int) and pid in self.workers:
                self.workers[pid].current_key = key
        elif kind == "point_end":
            self.done += 1
            self.running.pop(str(doc.get("key")), None)
            if isinstance(pid, int):
                dropped = doc.get("dropped")
                if isinstance(dropped, dict):
                    self.worker_dropped[pid] = dict(dropped)
                worker = self.workers.get(pid)
                if worker is not None:
                    worker.current_key = None
                    worker.points_done = int(
                        doc.get("points_done", worker.points_done + 1)
                        or worker.points_done + 1
                    )
        elif kind == "heartbeat" and isinstance(pid, int):
            worker = self.workers[pid]
            sim_now_s = doc.get("sim_now_s")
            worker.sim_now_s = (
                float(sim_now_s) if isinstance(sim_now_s, (int, float))
                else None
            )
            worker.events_processed = int(doc.get("events_processed", 0) or 0)
            worker.points_done = int(doc.get("points_done", 0) or 0)
            current_key = doc.get("current_key")
            worker.current_key = (
                current_key if isinstance(current_key, str) else None
            )
            dropped = doc.get("dropped")
            if isinstance(dropped, dict):
                self.worker_dropped[pid] = dict(dropped)
        elif kind == "stall":
            self.stall_count += 1
            self.stalls.append(dict(doc))
            point = self.running.get(str(doc.get("key")))
            if point is not None:
                point.stalled = True
            lost_pid = doc.get("lost_pid")
            if isinstance(lost_pid, int) and lost_pid in self.workers:
                self.workers[lost_pid].lost = True
        elif kind == "progress":
            eta_s = doc.get("eta_s")
            self.eta_s = (
                float(eta_s) if isinstance(eta_s, (int, float)) else None
            )
        elif kind == "run_end":
            self.finished = True
            wall_s = doc.get("wall_s")
            self.wall_s = (
                float(wall_s) if isinstance(wall_s, (int, float)) else None
            )
            dropped = doc.get("dropped")
            if isinstance(dropped, dict):
                self.parent_dropped = {
                    str(k): int(v) for k, v in dropped.items()
                    if isinstance(v, int)
                }

    # ------------------------------------------------------------- queries
    @property
    def pending(self) -> int:
        return max(self.tasks - self.cached - self.done, 0)

    def total_dropped(self) -> Dict[str, int]:
        """All known telemetry loss: parent queue + every worker."""
        totals: Dict[str, int] = dict(self.parent_dropped)
        for per_kind in self.worker_dropped.values():
            for kind, n in per_kind.items():
                totals[kind] = totals.get(kind, 0) + int(n)
        return {k: totals[k] for k in sorted(totals)}


class TelemetryHub:
    """Drains a channel on a thread; folds state; fans out to consumers.

    The hub is the only component allowed to *synthesize* events
    (``stall`` / ``progress`` / ``run_end``); everything else it merely
    relays.  A consumer that raises ``OSError`` (e.g. a stream target
    going unwritable mid-run) is detached and remembered — telemetry
    failure must never fail the sweep.
    """

    def __init__(
        self,
        channel: TelemetryChannel,
        consumers: Optional[List[Consumer]] = None,
        stall_factor: float = DEFAULT_STALL_FACTOR,
        stall_floor_s: float = DEFAULT_STALL_FLOOR_S,
        heartbeat_loss_factor: float = DEFAULT_HEARTBEAT_LOSS_FACTOR,
        progress_period_s: float = DEFAULT_PROGRESS_PERIOD_S,
        clock: Callable[[], float] = time.time,
    ) -> None:
        self.channel = channel
        self.consumers: List[Consumer] = list(consumers or [])
        self.state = SweepState()
        self.cost_model = CostModel()
        self.stall_factor = stall_factor
        self.stall_floor_s = stall_floor_s
        self.heartbeat_loss_s = max(
            heartbeat_loss_factor * channel.heartbeat_s, stall_floor_s
        )
        self.progress_period_s = progress_period_s
        self.consumer_errors: List[str] = []
        self._clock = clock
        self._lock = threading.RLock()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._flagged_stalls: Set[str] = set()
        self._lost_pids: Set[int] = set()
        self._last_progress_wall_s = 0.0
        self._start_wall_s = clock()

    # ------------------------------------------------------------ lifecycle
    def start(self, run_id: str, cmd: str, jobs: int) -> None:
        self._start_wall_s = self._clock()
        self._handle(make_event("run_start", run_id=run_id, cmd=cmd,
                                jobs=jobs))
        self._thread = threading.Thread(
            target=self._loop, name="comb-telemetry-hub", daemon=True
        )
        self._thread.start()

    def close(self) -> None:
        """Stop draining, flush the queue, emit the final ``run_end``."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        while True:  # flush whatever the workers got in before teardown
            # A short wait, not get_nowait: a multiprocessing queue moves
            # items into its pipe from a feeder thread, so an event emitted
            # just before close() may not be readable at once.
            doc = self.channel.drain(timeout_s=_FLUSH_WAIT_S)
            if doc is None:
                break
            self._handle(doc)
        self._check_stalls()
        with self._lock:
            state = self.state
            state.parent_dropped = dict(sorted(self.channel.dropped.items()))
            self._handle(make_event(
                "run_end",
                wall_s=self._clock() - self._start_wall_s,
                done=state.done,
                cached=state.cached,
                stalls=state.stall_count,
                dropped=state.total_dropped(),
            ))
        self.channel.close()

    # ----------------------------------------------------------- internals
    def _loop(self) -> None:
        while not self._stop.is_set():
            doc = self.channel.drain(timeout_s=0.2)
            if doc is not None:
                self._handle(doc)
            now_wall_s = self._clock()
            self._check_stalls()
            if now_wall_s - self._last_progress_wall_s \
                    >= self.progress_period_s:
                self._last_progress_wall_s = now_wall_s
                self._emit_progress()

    def _handle(self, doc: Dict[str, Any]) -> None:
        with self._lock:
            self.state.apply(doc)
            if doc.get("kind") == "point_end":
                wall_s = doc.get("wall_s")
                if isinstance(wall_s, (int, float)):
                    self.cost_model.observe(
                        str(doc.get("method")), float(wall_s)
                    )
            self._fan_out(doc)

    def _fan_out(self, doc: Dict[str, Any]) -> None:
        for consumer in list(self.consumers):
            try:
                consumer(doc)
            except OSError as exc:
                self.consumers.remove(consumer)
                self.consumer_errors.append(
                    f"{type(consumer).__name__}: {exc}"
                )

    def _emit_progress(self) -> None:
        with self._lock:
            state = self.state
            eta_s = self.cost_model.eta_s(state.pending, state.jobs)
            self._handle(make_event(
                "progress",
                done=state.done,
                cached=state.cached,
                running=len(state.running),
                eta_s=eta_s,
            ))

    def _check_stalls(self) -> None:
        now_wall_s = self._clock()
        with self._lock:
            for point in list(self.state.running.values()):
                if point.key in self._flagged_stalls:
                    continue
                elapsed_s = now_wall_s - point.start_wall_s
                predicted_s = self.cost_model.predicted_s(point.method)
                slow = (
                    predicted_s is not None
                    and elapsed_s > max(self.stall_factor * predicted_s,
                                        self.stall_floor_s)
                )
                worker = self.state.workers.get(point.pid)
                silent_s = (
                    now_wall_s - worker.last_seen_wall_s
                    if worker is not None else elapsed_s
                )
                lost = (
                    silent_s > self.heartbeat_loss_s
                    and elapsed_s > self.stall_floor_s
                )
                if not slow and not lost:
                    continue
                self._flagged_stalls.add(point.key)
                fields: Dict[str, Any] = {
                    "key": point.key,
                    "method": point.method,
                    "elapsed_s": elapsed_s,
                    "predicted_s": predicted_s,
                    "factor": (
                        elapsed_s / predicted_s
                        if predicted_s else 0.0
                    ),
                }
                if lost and point.pid not in self._lost_pids:
                    self._lost_pids.add(point.pid)
                    fields["lost_pid"] = point.pid
                    fields["silent_s"] = silent_s
                self._handle(make_event("stall", **fields))


class StreamWriter:
    """NDJSON consumer writing one schema-stamped line per event.

    ``target`` is a filesystem path or a decimal fd number (``"2"``,
    ``"7"``) — the same convention the trace/metrics flags use.  Opening
    errors propagate as ``OSError`` so the CLI can render its one-line
    message; mid-run write errors also raise ``OSError``, which the hub
    turns into a detach.
    """

    def __init__(self, target: str) -> None:
        self.target = target
        if target.isdigit():
            self._fh: IO[str] = os.fdopen(int(target), "w")
        else:
            path = Path(target)
            if path.parent and not path.parent.exists():
                path.parent.mkdir(parents=True, exist_ok=True)
            self._fh = path.open("w")

    def __call__(self, doc: Dict[str, Any]) -> None:
        self._fh.write(json.dumps(doc, sort_keys=True) + "\n")
        self._fh.flush()

    def close(self) -> None:
        try:
            self._fh.close()
        except OSError:  # pragma: no cover - teardown race
            pass


class ProgressRenderer:
    """Single-line TTY progress plus a final stall/drop report."""

    def __init__(self, out: Optional[IO[str]] = None) -> None:
        self._out = out if out is not None else sys.stderr
        self._state = SweepState()
        self._line_open = False

    def __call__(self, doc: Dict[str, Any]) -> None:
        self._state.apply(doc)
        kind = doc.get("kind")
        if kind in ("progress", "point_end", "point_cached", "batch",
                    "figure_start"):
            self._render_line()
        elif kind == "stall":
            self._end_line()
            key = str(doc.get("key"))[:12]
            elapsed_s = float(doc.get("elapsed_s", 0.0) or 0.0)
            lost_pid = doc.get("lost_pid")
            why = (
                f"worker {lost_pid} silent" if lost_pid is not None
                else f"{doc.get('factor', 0.0):.1f}x predicted"
            )
            self._out.write(
                f"comb: stall: point {key} running {elapsed_s:.1f}s "
                f"({why})\n"
            )
        elif kind == "run_end":
            self._end_line()
            self._render_final(doc)
        self._out.flush()

    def _render_line(self) -> None:
        state = self._state
        parts = [
            f"{state.done}/{max(state.tasks - state.cached, 0)} pts",
            f"{state.cached} cached",
            f"{len(state.running)} running",
        ]
        if state.figure:
            parts.insert(0, str(state.figure))
        if state.eta_s is not None:
            parts.append(f"eta {state.eta_s:.0f}s")
        if state.stall_count:
            parts.append(f"{state.stall_count} stalled")
        self._out.write("\r\x1b[2Kcomb: " + " | ".join(parts))
        self._line_open = True

    def _end_line(self) -> None:
        if self._line_open:
            self._out.write("\n")
            self._line_open = False

    def _render_final(self, doc: Dict[str, Any]) -> None:
        state = self._state
        wall_s = float(doc.get("wall_s", 0.0) or 0.0)
        self._out.write(
            f"comb: done: {state.done} simulated, {state.cached} cached "
            f"in {wall_s:.1f}s\n"
        )
        for stall in state.stalls:
            key = str(stall.get("key"))[:12]
            self._out.write(
                f"comb: stall report: {key} ({stall.get('method')}) "
                f"ran {float(stall.get('elapsed_s', 0.0) or 0.0):.1f}s\n"
            )
        dropped = state.total_dropped()
        if dropped:
            total = sum(dropped.values())
            detail = ", ".join(f"{k}={v}" for k, v in dropped.items())
            self._out.write(
                f"comb: telemetry dropped {total} events ({detail})\n"
            )


# ------------------------------------------------------------------- top
def load_stream_state(stream_path: Path) -> SweepState:
    """Re-derive a :class:`SweepState` from a stream file's lines."""
    state = SweepState()
    with stream_path.open() as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                doc = json.loads(line)
            except json.JSONDecodeError:
                state.invalid_lines += 1
                continue
            if not isinstance(doc, dict) or validate_stream_event(doc):
                state.invalid_lines += 1
                continue
            state.apply(doc)
    return state


def render_top(state: SweepState, now_wall_s: Optional[float] = None) -> str:
    """``comb top``'s screen: run header, workers, running points."""
    if now_wall_s is None:
        now_wall_s = time.time()
    lines: List[str] = []
    status = "finished" if state.finished else "running"
    header = f"comb top — run {state.run_id or '?'} [{status}]"
    if state.cmd:
        header += f" — {state.cmd}"
    lines.append(header)
    progress = (
        f"  points: {state.done} done, {state.cached} cached, "
        f"{len(state.running)} running, {state.pending} pending "
        f"(jobs={state.jobs})"
    )
    if state.eta_s is not None and not state.finished:
        progress += f", eta {state.eta_s:.0f}s"
    if state.wall_s is not None:
        progress += f", wall {state.wall_s:.1f}s"
    lines.append(progress)
    if state.workers:
        lines.append(
            f"  {'pid':>8s} {'state':8s} {'points':>6s} "
            f"{'events':>12s} {'sim-clock':>12s}  current"
        )
        for pid in sorted(state.workers):
            worker = state.workers[pid]
            label = "lost" if worker.lost else (
                "busy" if worker.current_key else "idle"
            )
            sim = (
                f"{worker.sim_now_s:.6f}s"
                if worker.sim_now_s is not None else "-"
            )
            current = (worker.current_key or "-")[:16]
            lines.append(
                f"  {pid:>8d} {label:8s} {worker.points_done:>6d} "
                f"{worker.events_processed:>12d} {sim:>12s}  {current}"
            )
    for point in sorted(state.running.values(), key=lambda p: p.key):
        elapsed_s = max(now_wall_s - point.start_wall_s, 0.0)
        mark = " STALLED" if point.stalled else ""
        lines.append(
            f"  running {point.key[:16]} {point.method}/{point.system} "
            f"pid={point.pid} {elapsed_s:.1f}s{mark}"
        )
    for stall in state.stalls:
        lines.append(
            f"  stall: {str(stall.get('key'))[:16]} "
            f"({stall.get('method')}) "
            f"{float(stall.get('elapsed_s', 0.0) or 0.0):.1f}s"
        )
    dropped = state.total_dropped()
    if dropped:
        lines.append(
            "  dropped: " + ", ".join(f"{k}={v}" for k, v in dropped.items())
        )
    if state.invalid_lines:
        lines.append(f"  ({state.invalid_lines} invalid stream lines)")
    return "\n".join(lines)


def run_top(
    stream_path: Path,
    once: bool = False,
    interval_s: float = 1.0,
    out: Optional[IO[str]] = None,
) -> int:
    """Attach to a sweep via its ``--progress-stream`` file (``comb top``).

    Re-reads the whole stream each refresh — stream files are small
    (bounded by point count, not sim events) and re-deriving beats
    tail-seek bookkeeping.  With ``once`` the screen renders a single
    time (tests, CI); otherwise it refreshes until the run finishes.
    """
    stream = out if out is not None else sys.stdout
    while True:
        state = load_stream_state(stream_path)
        screen = render_top(state)
        if once:
            stream.write(screen + "\n")
            return 0
        stream.write("\x1b[2J\x1b[H" + screen + "\n")
        stream.flush()
        if state.finished:
            return 0
        time.sleep(interval_s)


__all__ = [
    "Consumer",
    "CostModel",
    "DEFAULT_HEARTBEAT_LOSS_FACTOR",
    "DEFAULT_PROGRESS_PERIOD_S",
    "DEFAULT_STALL_FACTOR",
    "DEFAULT_STALL_FLOOR_S",
    "ProgressRenderer",
    "StreamWriter",
    "SweepState",
    "TelemetryHub",
    "load_stream_state",
    "render_top",
    "run_top",
]
