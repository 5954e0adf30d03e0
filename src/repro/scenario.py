"""Scenario runner: declarative experiment specs.

A *scenario* is a JSON document naming systems (presets plus dotted
parameter overrides) and experiments to run on each.  It makes a study
reproducible as data instead of a script::

    {
      "name": "window-study",
      "systems": [
        {"preset": "Portals"},
        {"preset": "Portals", "label": "Portals/w8",
         "overrides": {"portals.tx_window_pkts": 8}}
      ],
      "experiments": [
        {"kind": "polling", "msg_kb": 100, "intervals": [1000, 100000]},
        {"kind": "offload", "msg_kb": 100}
      ]
    }

Run with ``comb scenario spec.json`` or :func:`run_scenario`.

Supported experiment kinds: ``polling`` (sweep over ``intervals``),
``pww`` (same), ``offload``, ``netperf`` (``mode``), ``pingpong``
(``sizes_kb``), and ``pattern`` (application communication patterns —
``pattern`` names halo2d/halo3d/sweep/allreduce, sweeping ``ranks`` over
``rank_counts`` on a named ``topology``).  Extra per-point options go
under ``config`` and feed the corresponding Config dataclass.

A top-level ``"replication"`` object requests replicated measurement
for the point-producing kinds (polling/pww/pattern)::

    {"replication": {"reps": 5, "ci_width": 0.02}, ...}

Each point then runs as up to ``reps`` sub-runs on named RNG substreams
(optionally stopping early once the availability CI is at most
``ci_width`` wide) and its result dict carries a ``replication``
summary.  Without the key — or with ``reps: 1`` — each point runs once,
single-shot, with the same values as earlier releases.  Either way the
points run through one :class:`~repro.core.executor.SweepExecutor`, so
the run ledger records every one of them.
"""

from __future__ import annotations

import dataclasses
import json
import math
from pathlib import Path
from typing import Any, Callable, Dict, List, Union

from .baselines import run_netperf, run_pingpong
from .config import PRESETS, SystemConfig, get_system
from .core import CombSuite, PollingConfig, PwwConfig
from .core.executor import PointTask, SweepExecutor
from .patterns import PatternConfig
from .patterns.runner import check_pattern

KB = 1024


class ScenarioError(ValueError):
    """Malformed scenario document."""


def _ext_presets() -> Dict[str, Callable[[], SystemConfig]]:
    from .ext import coalesced_portals, emp_system, offload_nic_system

    return {
        "EMP": emp_system,
        "OffloadNIC": offload_nic_system,
        "Portals+coalesce": coalesced_portals,
    }


def resolve_preset(name: str) -> SystemConfig:
    """Look up a preset across the core and extension registries."""
    for key, factory in _ext_presets().items():
        if key.lower() == name.lower():
            return factory()
    try:
        return get_system(name)
    except KeyError:
        known = sorted(PRESETS) + sorted(_ext_presets())
        raise ScenarioError(
            f"unknown preset {name!r}; known: {known}"
        ) from None


def apply_overrides(system: SystemConfig, overrides: Dict[str, Any]) -> SystemConfig:
    """Apply dotted-path overrides (``"portals.tx_window_pkts": 8``)."""
    for path, value in overrides.items():
        parts = path.split(".")
        system = _replace_path(system, parts, value)
    return system


def _replace_path(obj, parts: List[str], value):
    field = parts[0]
    if not hasattr(obj, field):
        raise ScenarioError(
            f"{type(obj).__name__} has no field {field!r}"
        )
    if len(parts) == 1:
        current = getattr(obj, field)
        if current is not None and not isinstance(value, type(current)) \
                and not (isinstance(current, float) and isinstance(value, (int, float))):
            raise ScenarioError(
                f"override {field!r}: expected {type(current).__name__}, "
                f"got {type(value).__name__}"
            )
        return dataclasses.replace(obj, **{field: value})
    child = _replace_path(getattr(obj, field), parts[1:], value)
    return dataclasses.replace(obj, **{field: child})


def _config(cls, extra: Dict[str, Any], **fields):
    """Build an experiment's config dataclass from ``fields`` plus the
    spec's ``config`` object; a field it does not have is a scenario
    error."""
    try:
        return cls(**fields, **extra)
    except TypeError as exc:
        raise ScenarioError(f"experiment 'config': {exc}") from None


def _number(name: str, value: Any, low: int) -> float:
    """``value`` when it is a finite number >= ``low``."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not low <= value < math.inf):
        raise ScenarioError(
            f"{name!r} must be a finite number >= {low}, got {value!r}"
        )
    return value


def _intervals(spec: Dict[str, Any], default: int, low: int) -> List[int]:
    """The experiment's ``intervals``, in loop iterations."""
    values = spec.get("intervals", [default])
    if not isinstance(values, list):
        raise ScenarioError(f"'intervals' must be a list, got {values!r}")
    return [int(_number("intervals", value, low)) for value in values]


def _run_experiment(
    system: SystemConfig,
    spec: Dict[str, Any],
    executor: SweepExecutor,
) -> Dict:
    kind = spec.get("kind")
    msg_bytes = int(_number("msg_kb", spec.get("msg_kb", 100), 0) * KB)
    cfg_extra = spec.get("config", {})
    if not isinstance(cfg_extra, dict):
        raise ScenarioError("'config' must be an object")

    def run_point(point_kind: str, cfg) -> Dict:
        return executor.run_one(PointTask(point_kind, system, cfg)).to_dict()

    if kind == "polling":
        points = []
        for interval_iters in _intervals(spec, 10_000, low=1):
            cfg = _config(
                PollingConfig, cfg_extra,
                msg_bytes=msg_bytes, poll_interval_iters=interval_iters,
            )
            points.append(run_point("polling", cfg))
        return {"kind": kind, "points": points}
    if kind == "pww":
        points = []
        for interval_iters in _intervals(spec, 100_000, low=0):
            cfg = _config(
                PwwConfig, cfg_extra,
                msg_bytes=msg_bytes, work_interval_iters=interval_iters,
            )
            points.append(run_point("pww", cfg))
        return {"kind": kind, "points": points}
    if kind == "offload":
        verdict = CombSuite(system).offload_verdict(msg_bytes=msg_bytes)
        return {
            "kind": kind,
            "offloaded": verdict.offloaded,
            "wait_short_s": verdict.wait_short_s,
            "wait_long_s": verdict.wait_long_s,
            "summary": verdict.summary(),
        }
    if kind == "netperf":
        res = run_netperf(system, msg_bytes=msg_bytes,
                          wait_mode=spec.get("mode", "busywait"))
        return {
            "kind": kind, "mode": res.wait_mode,
            "availability": res.availability,
            "bandwidth_Bps": res.bandwidth_Bps,
        }
    if kind == "pingpong":
        results = []
        for size_kb in spec.get("sizes_kb", [100]):
            r = run_pingpong(system, int(size_kb * KB))
            results.append({
                "msg_bytes": r.msg_bytes,
                "latency_s": r.latency_s,
                "bandwidth_Bps": r.bandwidth_Bps,
            })
        return {"kind": kind, "points": results}
    if kind == "pattern":
        points = []
        for ranks in spec.get("rank_counts", [4]):
            cfg = _config(
                PatternConfig, cfg_extra,
                pattern=spec.get("pattern", "halo2d"),
                ranks=int(ranks),
                msg_bytes=msg_bytes,
                topology=spec.get("topology", "crossbar"),
            )
            try:
                check_pattern(system, cfg)
            except ValueError as exc:
                raise ScenarioError(str(exc)) from None
            points.append(run_point("pattern", cfg))
        return {"kind": kind, "points": points}
    raise ScenarioError(f"unknown experiment kind {kind!r}")


def _scenario_executor(
    spec: Dict[str, Any], point_log: bool = False
) -> SweepExecutor:
    """Executor for the scenario's ``replication`` request (default:
    single-shot)."""
    rep_spec = spec.get("replication")
    if rep_spec is None:
        rep_spec = {}
    if not isinstance(rep_spec, dict):
        raise ScenarioError("'replication' must be an object")
    try:
        reps = int(rep_spec.get("reps", 1))
    except (TypeError, ValueError):
        raise ScenarioError("replication 'reps' must be an integer") from None
    if reps < 1:
        raise ScenarioError(f"replication 'reps' must be >= 1, got {reps}")
    ci_width = rep_spec.get("ci_width")
    if ci_width is not None:
        ci_width = float(ci_width)
    return SweepExecutor(reps=reps, ci_width=ci_width, point_log=point_log)


def run_scenario(spec: Union[Dict, str, Path], ledger: Any = None) -> Dict:
    """Execute a scenario; returns the result document (JSON-ready).

    ``ledger`` is an open :class:`~repro.obs.ledger.RunLedger`: the
    scenario appends its per-point outcome records and a closing run
    record to it.
    """
    import time as _time

    if not isinstance(spec, dict):
        try:
            spec = json.loads(Path(spec).read_text())
        except (OSError, ValueError) as exc:
            raise ScenarioError(
                f"cannot read scenario {spec}: {exc}") from None
    if "systems" not in spec or "experiments" not in spec:
        raise ScenarioError("scenario needs 'systems' and 'experiments'")
    t0_wall = _time.perf_counter() if ledger is not None else 0.0
    executor = _scenario_executor(spec, point_log=ledger is not None)
    results: Dict[str, Any] = {
        "name": spec.get("name", "scenario"),
        "systems": [],
    }
    if executor.reps > 1:
        results["replication"] = {
            "reps": executor.reps,
            "ci_width": executor.ci_width,
        }
    for sys_spec in spec["systems"]:
        system = resolve_preset(sys_spec["preset"])
        overrides = sys_spec.get("overrides", {})
        if overrides:
            system = apply_overrides(system, overrides)
        label = sys_spec.get("label", system.name)
        entry = {"label": label, "preset": sys_spec["preset"],
                 "experiments": []}
        for exp in spec["experiments"]:
            entry["experiments"].append(_run_experiment(system, exp,
                                                        executor=executor))
        results["systems"].append(entry)
    if executor.disagreements:
        results["disagreements"] = [
            d.detail for d in executor.disagreements
        ]
    if ledger is not None:
        ledger.write_run(executor, _time.perf_counter() - t0_wall)
    return results


def format_scenario_results(results: Dict) -> str:
    """Short human-readable rendering of a scenario result document."""
    lines = [f"scenario: {results['name']}"]
    for entry in results["systems"]:
        lines.append(f"\n[{entry['label']}]")
        for exp in entry["experiments"]:
            kind = exp["kind"]
            if kind in ("polling", "pww"):
                for p in exp["points"]:
                    x = p.get("poll_interval_iters",
                              p.get("work_interval_iters"))
                    lines.append(
                        f"  {kind:8s} interval={x:>10}: "
                        f"bw={p['bandwidth_MBps']:7.2f} MB/s "
                        f"avail={p['availability']:.3f}"
                    )
            elif kind == "offload":
                lines.append(f"  offload  {exp['summary']}")
            elif kind == "netperf":
                lines.append(
                    f"  netperf  {exp['mode']}: "
                    f"avail={exp['availability']:.3f} "
                    f"bw={exp['bandwidth_Bps'] / 1e6:.2f} MB/s"
                )
            elif kind == "pingpong":
                for p in exp["points"]:
                    lines.append(
                        f"  pingpong {p['msg_bytes'] // KB:>6d} KB: "
                        f"lat={p['latency_s'] * 1e6:8.1f} us "
                        f"bw={p['bandwidth_Bps'] / 1e6:7.2f} MB/s"
                    )
            elif kind == "pattern":
                for p in exp["points"]:
                    lines.append(
                        f"  {p['pattern']:8s} ranks={p['ranks']:>3d} "
                        f"({p['topology']}): "
                        f"avail={p['availability']:.3f} "
                        f"[{p['availability_min']:.3f}"
                        f"..{p['availability_max']:.3f}] "
                        f"bw={p['bandwidth_MBps']:7.2f} MB/s"
                    )
    return "\n".join(lines)
