"""Declarative figure registry: every figure is a table entry.

A :class:`FigureSpec` names the axes, titles, and notes, and a tuple of
:class:`CurveSpec` rows names each plotted line (method, system, sweep
bounds, y attribute, unit).  :func:`build_figure` interprets a spec
against runtime knobs (``per_decade``, ``sizes``, ``msg_bytes``,
``grid``, ``rank_counts``).  Paper figures, scaling figures, and CI-band
variants (``fig04_ci``, ``fig11_ci``) all live in the one
:data:`FIGURE_SPECS` table, and :func:`figure_spec` is the one id lookup
behind ``comb figures``, ``comb bench`` and ``comb trace``;
:data:`PAPER_FIGURES` names the default report grid.

Replication flows through transparently: when the executing
:class:`~repro.core.executor.SweepExecutor` replicates points
(``reps > 1``), the aggregated points carry ``replication`` summaries
and every curve picks up ``y_lo``/``y_hi`` confidence bands.  A spec can
also *demand* replication (``reps``/``ci_width`` fields), which is how
the ``*_ci`` registry variants exist without any CLI flags.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import (Any, Callable, Dict, List, Optional, Sequence, Tuple,
                    Union)

from ..config import SystemConfig, gm_system, portals_system
from ..core.executor import PointTask, SweepExecutor, current_executor
from ..core.polling import PollingConfig
from ..core.pww import PwwConfig
from ..core.results import Series
from ..core.suite import PAPER_SIZES
from ..core.sweep import log_intervals, polling_sweep, pww_sweep
from ..patterns.config import PatternConfig
from ..patterns.results import PatternPoint
from ..stats import replication_interval

KB = 1024

#: Work-interval grid of the linear-axis overhead figures (12–13).
_LINEAR_GRID = tuple(range(25_000, 500_001, 47_500))

#: Default rank-count axis: two-node (the paper's world) up to a
#: two-edge-switch fat-tree's worth.
DEFAULT_RANK_COUNTS = (2, 4, 8, 16)

_SYSTEMS: Dict[str, Callable[[], SystemConfig]] = {
    "gm": gm_system,
    "portals": portals_system,
}

#: Each method's natural sweep axis (the default ``x_attr``).
_SWEEP_AXIS = {"polling": "poll_interval_iters", "pww": "work_interval_iters"}


# -------------------------------------------------------------------- data
@dataclass
class Curve:
    """One plotted line, optionally with a confidence band."""

    label: str
    x: List[float]
    y: List[float]
    #: Lower/upper CI band (same length as ``y``) when the points behind
    #: this curve were replicated; ``None`` (and omitted from exports)
    #: for single-shot curves, keeping seed exports byte-identical.
    y_lo: Optional[List[float]] = None
    y_hi: Optional[List[float]] = None

    def to_dict(self) -> dict:
        d: Dict[str, Any] = {"label": self.label, "x": self.x, "y": self.y}
        if self.y_lo is not None and self.y_hi is not None:
            d["y_lo"] = self.y_lo
            d["y_hi"] = self.y_hi
        return d


@dataclass
class FigureData:
    """Data behind one paper figure."""

    fig_id: str
    title: str
    xlabel: str
    ylabel: str
    curves: List[Curve]
    xscale: str = "log"
    yscale: str = "linear"
    notes: str = ""

    def curve(self, label: str) -> Curve:
        """Look a curve up by its label."""
        for c in self.curves:
            if c.label == label:
                return c
        raise KeyError(f"{self.fig_id}: no curve {label!r}")

    def to_dict(self) -> dict:
        """JSON-ready form."""
        return {
            "fig_id": self.fig_id,
            "title": self.title,
            "xlabel": self.xlabel,
            "ylabel": self.ylabel,
            "xscale": self.xscale,
            "yscale": self.yscale,
            "notes": self.notes,
            "curves": [c.to_dict() for c in self.curves],
        }


# -------------------------------------------------------------------- specs
@dataclass(frozen=True)
class CurveSpec:
    """One registry row: how to produce one (or one-per-size) curve."""

    method: str                 # "polling" | "pww" | "pattern"
    system: str = "portals"     # key into _SYSTEMS
    y_attr: str = "availability"
    x_attr: str = ""            # "" → the method's sweep axis
    label: str = ""             # "" → size label (fan_sizes) or system name
    lo: float = 0.0             # log-grid bounds; 0.0 → runtime ``grid``
    hi: float = 0.0
    y_unit: float = 1.0         # y scale factor (1e6 → microseconds)
    fan_sizes: bool = False     # fan out over the ``sizes`` argument
    tests_in_work: int = 0      # PWW work-phase MPI_Test count (fig 17)
    pattern: str = ""           # pattern method: pattern name
    topology: str = "crossbar"  # pattern method: network topology


@dataclass(frozen=True)
class FigureSpec:
    """One figure: axes + notes + the curve rows that fill it."""

    fig_id: str
    title: str
    xlabel: str
    ylabel: str
    curves: Tuple[CurveSpec, ...]
    xscale: str = "log"
    yscale: str = "linear"
    #: May reference ``{msg_kb}`` / ``{work_interval_iters}`` (pattern
    #: figures format their notes from the runtime knobs).
    notes: str = ""
    #: Claim-checker id (``""`` → ``fig_id``); lets CI-band variants
    #: reuse their base figure's claims.
    claims_id: str = ""
    #: Registry-level replication demands (``None`` → whatever the
    #: executing executor is configured for).
    reps: Optional[int] = None
    ci_width: Optional[float] = None


# ------------------------------------------------------------ construction
class _ReplicationOverride:
    """Executor facade forcing ``reps``/``ci_width`` onto every ``run``.

    Duck-typed stand-in handed to the sweep drivers (they only call
    ``run``); violations/disagreements still land on the wrapped
    executor.
    """

    def __init__(self, inner: SweepExecutor, reps: Optional[int],
                 ci_width: Optional[float]) -> None:
        self.inner = inner
        self.reps = inner.reps if reps is None else reps
        self.ci_width = inner.ci_width if ci_width is None else ci_width

    def run(self, tasks: Sequence[PointTask]) -> List[Any]:
        return self.inner.run(tasks, reps=self.reps, ci_width=self.ci_width)


def _size_label(nbytes: int) -> str:
    return f"{nbytes // 1024} KB"


def _band_values(
    points: Sequence[Any], metric: str, unit: float
) -> Tuple[Optional[List[float]], Optional[List[float]]]:
    """Per-point CI band for ``metric``, or ``(None, None)`` when any
    point lacks a replication summary (single-shot curve)."""
    los: List[float] = []
    his: List[float] = []
    for p in points:
        ci = replication_interval(getattr(p, "replication", None), metric)
        if ci is None:
            return None, None
        lo, hi = ci
        if unit != 1.0:
            lo, hi = lo * unit, hi * unit
        los.append(lo)
        his.append(hi)
    return los, his


def pattern_tasks(
    system: SystemConfig,
    pattern: str,
    rank_counts: Sequence[int],
    topology: str = "crossbar",
    base: Optional[PatternConfig] = None,
) -> List[PointTask]:
    """Task records for a rank-count sweep of one pattern."""
    base = base or PatternConfig()
    return [
        PointTask(
            "pattern",
            system,
            dataclasses.replace(base, pattern=pattern, ranks=int(n),
                                topology=topology),
        )
        for n in rank_counts
    ]


def pattern_scaling(
    system: SystemConfig,
    pattern: str,
    rank_counts: Sequence[int],
    topology: str = "crossbar",
    base: Optional[PatternConfig] = None,
    label: Optional[str] = None,
    executor: Optional[SweepExecutor] = None,
) -> Curve:
    """Availability-vs-ranks curve for one (system, topology) pair."""
    ex = current_executor(executor)
    points: List[PatternPoint] = ex.run(
        pattern_tasks(system, pattern, rank_counts, topology, base)
    )
    y_lo, y_hi = _band_values(points, "availability", 1.0)
    return Curve(
        label=label or f"{system.name} ({topology})",
        x=[float(n) for n in rank_counts],
        y=[pt.availability for pt in points],
        y_lo=y_lo,
        y_hi=y_hi,
    )


def _sweep_curves(
    cs: CurveSpec,
    per_decade: int,
    sizes: Sequence[int],
    msg_bytes: int,
    grid: Sequence[int],
    executor: Any,
) -> List[Curve]:
    """Curves for one polling/pww registry row (1, or one per size)."""
    system = _SYSTEMS[cs.system]()
    intervals = (list(grid) if cs.lo == 0.0
                 else log_intervals(cs.lo, cs.hi, per_decade))
    sweep = polling_sweep if cs.method == "polling" else pww_sweep
    x_attr = cs.x_attr or _SWEEP_AXIS[cs.method]

    def one(size_bytes: int, label: str) -> Curve:
        base: Union[None, PollingConfig, PwwConfig] = None
        if cs.tests_in_work:
            base = PwwConfig(msg_bytes=size_bytes,
                             tests_in_work=cs.tests_in_work)
        series: Series = sweep(system, size_bytes, intervals, base=base,
                               executor=executor)
        ys = series.xs(cs.y_attr)
        if cs.y_unit != 1.0:
            ys = [v * cs.y_unit for v in ys]
        y_lo, y_hi = _band_values(series.points, cs.y_attr, cs.y_unit)
        return Curve(label, series.xs(x_attr), ys, y_lo=y_lo, y_hi=y_hi)

    if cs.fan_sizes:
        return [one(nbytes, cs.label or _size_label(nbytes))
                for nbytes in sizes]
    return [one(msg_bytes, cs.label or system.name)]


def build_figure(
    spec: FigureSpec,
    per_decade: int = 2,
    sizes: Optional[Sequence[int]] = None,
    msg_bytes: int = 100 * KB,
    grid: Sequence[int] = _LINEAR_GRID,
    rank_counts: Sequence[int] = DEFAULT_RANK_COUNTS,
    work_interval_iters: int = 1_000_000,
    executor: Optional[SweepExecutor] = None,
    reps: Optional[int] = None,
    ci_width: Optional[float] = None,
) -> FigureData:
    """Interpret one registry entry against the runtime knobs.

    ``reps``/``ci_width`` (argument > spec field > executor setting)
    force replicated measurement; bands appear on every curve whose
    points carry replication summaries.
    """
    eff_reps = reps if reps is not None else spec.reps
    eff_ci = ci_width if ci_width is not None else spec.ci_width
    run_executor: Any = executor
    if eff_reps is not None or eff_ci is not None:
        run_executor = _ReplicationOverride(current_executor(executor),
                                            eff_reps, eff_ci)
    curves: List[Curve] = []
    has_pattern = False
    for cs in spec.curves:
        if cs.method == "pattern":
            has_pattern = True
            base = PatternConfig(msg_bytes=msg_bytes,
                                 work_interval_iters=work_interval_iters)
            curves.append(pattern_scaling(
                _SYSTEMS[cs.system](), cs.pattern, rank_counts,
                cs.topology, base, label=cs.label or None,
                executor=run_executor,
            ))
        else:
            curves.extend(_sweep_curves(
                cs, per_decade, sizes if sizes is not None else PAPER_SIZES,
                msg_bytes, grid, run_executor,
            ))
    notes = spec.notes
    if has_pattern and "{" in notes:
        notes = notes.format(msg_kb=msg_bytes // KB,
                             work_interval_iters=work_interval_iters)
    return FigureData(
        fig_id=spec.fig_id,
        title=spec.title,
        xlabel=spec.xlabel,
        ylabel=spec.ylabel,
        curves=curves,
        xscale=spec.xscale,
        yscale=spec.yscale,
        notes=notes,
    )


# ------------------------------------------------------------------ table
_POLL_X = "Poll Interval (loop iterations)"
_WORK_X = "Work Interval (loop iterations)"
_AVAIL_X = "CPU Available to User (fraction of time)"
_AVAIL_Y = "CPU Availability (fraction to user)"
_BW_Y = "Bandwidth (MB/s)"

FIGURE_SPECS: Dict[str, FigureSpec] = {
    "fig04": FigureSpec(
        "fig04", "Polling Method: CPU Availability (Portals)",
        _POLL_X, _AVAIL_Y,
        (CurveSpec("polling", "portals", "availability",
                   lo=1e1, hi=1e8, fan_sizes=True),),
        notes="Low, stable plateau while messages flow (interrupt overhead); "
              "steep climb once the poll interval stalls the message flow.",
    ),
    "fig05": FigureSpec(
        "fig05", "Polling Method: Bandwidth (Portals)",
        _POLL_X, _BW_Y,
        (CurveSpec("polling", "portals", "bandwidth_MBps",
                   lo=1e1, hi=1e8, fan_sizes=True),),
        notes="Plateau of maximum sustained bandwidth, then steep decline "
              "when all in-flight messages complete within one interval.",
    ),
    "fig06": FigureSpec(
        "fig06", "PWW Method: CPU Availability (Portals)",
        _WORK_X, _AVAIL_Y,
        (CurveSpec("pww", "portals", "availability",
                   lo=1e4, hi=1e7, fan_sizes=True),),
        notes="No low plateau: the wait phase suppresses availability until "
              "the work interval fills the delay (paper §4).",
    ),
    "fig07": FigureSpec(
        "fig07", "PWW Method: Bandwidth (Portals)",
        _WORK_X, _BW_Y,
        (CurveSpec("pww", "portals", "bandwidth_MBps",
                   lo=1e3, hi=1e8, fan_sizes=True),),
        notes="More gradual decline than the polling method.",
    ),
    "fig08": FigureSpec(
        "fig08", "Polling Method: Bandwidth for GM and Portals",
        _POLL_X, _BW_Y,
        (CurveSpec("polling", "gm", "bandwidth_MBps", lo=1e1, hi=1e8),
         CurveSpec("polling", "portals", "bandwidth_MBps", lo=1e1, hi=1e8)),
        notes="GM (OS-bypass, no interrupts/copies) sustains significantly "
              "higher bandwidth than kernel Portals on identical hardware.",
    ),
    "fig09": FigureSpec(
        "fig09", "PWW Method: Bandwidth for GM and Portals",
        _WORK_X, _BW_Y,
        (CurveSpec("pww", "gm", "bandwidth_MBps", lo=1e4, hi=1e7),
         CurveSpec("pww", "portals", "bandwidth_MBps", lo=1e4, hi=1e7)),
        notes="GM wins at small work intervals; curves converge once the "
              "work interval dominates the cycle.",
    ),
    "fig10": FigureSpec(
        "fig10", "PWW Method: Average Post Time (100 KB)",
        _WORK_X, "Time to Post (us)",
        (CurveSpec("pww", "gm", "post_per_msg_s", lo=1e4, hi=1e7,
                   y_unit=1e6),
         CurveSpec("pww", "portals", "post_per_msg_s", lo=1e4, hi=1e7,
                   y_unit=1e6)),
        notes="Portals posts trap into the kernel; GM posts are user-level "
              "descriptor writes.",
    ),
    "fig11": FigureSpec(
        "fig11", "PWW Method: Average Wait Time (100 KB)",
        _WORK_X, "Time Per Message (us)",
        (CurveSpec("pww", "gm", "wait_s", lo=1e4, hi=1e7, y_unit=1e6),
         CurveSpec("pww", "portals", "wait_s", lo=1e4, hi=1e7, y_unit=1e6)),
        notes="Given a large enough work interval Portals virtually completes "
              "messaging (application offload) whereas GM does not.",
    ),
    "fig12": FigureSpec(
        "fig12", "PWW Method: CPU Overhead for Portals",
        _WORK_X, "Average Time Per Message (us)",
        (CurveSpec("pww", "portals", "work_s", label="Work with MH",
                   y_unit=1e6),
         CurveSpec("pww", "portals", "work_dry_s", label="Work Only",
                   y_unit=1e6)),
        xscale="linear",
        notes="The gap is the overhead of interrupts processing Portals "
              "messages during the work phase.",
    ),
    "fig13": FigureSpec(
        "fig13", "PWW Method: CPU Overhead for GM",
        _WORK_X, "Average Time Per Message (us)",
        (CurveSpec("pww", "gm", "work_s", label="Work with MH", y_unit=1e6),
         CurveSpec("pww", "gm", "work_dry_s", label="Work Only",
                   y_unit=1e6)),
        xscale="linear",
        notes="Work takes the same time with or without communication: GM "
              "steals no cycles — but also moves no data — during the work "
              "phase.",
    ),
    "fig14": FigureSpec(
        "fig14", "Polling Method: Bandwidth Versus CPU Overhead for GM",
        _AVAIL_X, _BW_Y,
        (CurveSpec("polling", "gm", "bandwidth_MBps", x_attr="availability",
                   lo=1e1, hi=1e8, fan_sizes=True),),
        xscale="linear",
        notes="Maximum sustained bandwidth with virtually all CPU cycles "
              "left to the application — except 10 KB, whose eager sends "
              "cost ~45 µs of host CPU each.",
    ),
    "fig15": FigureSpec(
        "fig15", "Polling Method: Bandwidth Versus CPU Overhead for Portals",
        _AVAIL_X, _BW_Y,
        (CurveSpec("polling", "portals", "bandwidth_MBps",
                   x_attr="availability", lo=1e1, hi=1e8, fan_sizes=True),),
        xscale="linear",
        notes="Communication overhead restricts maximum sustained bandwidth "
              "to the lower ranges of CPU availability.",
    ),
    "fig16": FigureSpec(
        "fig16", "Polling and PWW Method: Bandwidth for GM",
        _AVAIL_X, _BW_Y,
        (CurveSpec("polling", "gm", "bandwidth_MBps", x_attr="availability",
                   label="Poll", lo=1e1, hi=1e8),
         CurveSpec("pww", "gm", "bandwidth_MBps", x_attr="availability",
                   label="PWW", lo=1e3, hi=1e8)),
        xscale="linear",
        notes="Without application offload, PWW bandwidth collapses as "
              "availability rises; polling sustains it.",
    ),
    "fig17": FigureSpec(
        "fig17", "Polling and Modified PWW Method: Bandwidth for GM",
        _AVAIL_X, _BW_Y,
        (CurveSpec("polling", "gm", "bandwidth_MBps", x_attr="availability",
                   label="Poll", lo=1e1, hi=1e8),
         CurveSpec("pww", "gm", "bandwidth_MBps", x_attr="availability",
                   label="PWW + Test", lo=1e3, hi=1e8, tests_in_work=1),
         CurveSpec("pww", "gm", "bandwidth_MBps", x_attr="availability",
                   label="PWW", lo=1e3, hi=1e8)),
        xscale="linear",
        notes="One MPI_Test inserted early in the work phase lets the "
              "library launch the rendezvous data transfer, extending "
              "sustained bandwidth into higher availabilities.",
    ),
    "scale_halo": FigureSpec(
        "scale_halo", "Halo-exchange availability scaling",
        "ranks", "CPU availability (median across ranks)",
        (CurveSpec("pattern", "gm", pattern="halo2d", topology="crossbar"),
         CurveSpec("pattern", "gm", pattern="halo2d", topology="fattree"),
         CurveSpec("pattern", "portals", pattern="halo2d",
                   topology="crossbar"),
         CurveSpec("pattern", "portals", pattern="halo2d",
                   topology="fattree")),
        notes="pattern=halo2d, {msg_kb} KB, "
              "work interval {work_interval_iters} iters",
    ),
    "scale_allreduce": FigureSpec(
        "scale_allreduce", "Allreduce availability scaling",
        "ranks", "CPU availability (median across ranks)",
        (CurveSpec("pattern", "gm", pattern="allreduce",
                   topology="crossbar"),
         CurveSpec("pattern", "gm", pattern="allreduce", topology="fattree"),
         CurveSpec("pattern", "portals", pattern="allreduce",
                   topology="crossbar"),
         CurveSpec("pattern", "portals", pattern="allreduce",
                   topology="fattree")),
        notes="pattern=allreduce, {msg_kb} KB, "
              "work interval {work_interval_iters} iters",
    ),
}

# CI-band variants: the same table rows, replicated measurement demanded
# at the registry level.  Claims are inherited from the base figure.
FIGURE_SPECS["fig04_ci"] = dataclasses.replace(
    FIGURE_SPECS["fig04"], fig_id="fig04_ci", claims_id="fig04",
    reps=5, ci_width=0.02,
)
FIGURE_SPECS["fig11_ci"] = dataclasses.replace(
    FIGURE_SPECS["fig11"], fig_id="fig11_ci", claims_id="fig11",
    reps=5, ci_width=0.02,
)

#: The paper's results figures (Figs 4–17): the default grid of
#: ``comb figures``, ``comb report`` and ``comb bench``.  Scaling figures
#: and CI-band variants run only when named.
PAPER_FIGURES = (
    "fig04", "fig05", "fig06", "fig07", "fig08", "fig09", "fig10",
    "fig11", "fig12", "fig13", "fig14", "fig15", "fig16", "fig17",
)


def figure_spec(fig_id: str) -> FigureSpec:
    """The registry entry for ``fig_id``; ``KeyError`` names every known id."""
    try:
        return FIGURE_SPECS[fig_id]
    except KeyError:
        raise KeyError(f"unknown figure {fig_id!r}; "
                       f"have {sorted(FIGURE_SPECS)}") from None
