"""COMB simulator benchmark: cold paper-figure and scaling workloads.

    python3 perfbench/run.py --workload paper-portals --seed 0 --seconds 20 --trace 0

Run from the repository root.  Each pass is a fresh child process
(``passrun.py``) that imports ``repro``, builds the workload's task list
and regenerates the workload's figures cold on a serial, cache-less
executor: a closed loop with one caller, one point at a time.

``--trace 0`` repeats untraced passes for ``--seconds`` (at least
``MIN_PASSES``) and reports the end-to-end metrics as medians over
passes.  ``--trace 1`` runs one untraced, one profiled and one traced
pass and reports the per-layer metrics; it also checks that tracing
left every result record and the event count unchanged and that every
count repeats exactly.

Correctness: at seed 0 every point's result record must match the
committed digest in ``refs/<workload>.json`` bit for bit and every paper
claim must hold.  At other seeds (edge message sizes, see
``workloads.py``) no point may raise and every pass must reproduce the
first.  The last stdout line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from workloads import WORKLOADS, size_knobs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFS = HERE / "refs"
MIN_PASSES = 3
#: Longest one pass may take before it counts as hung (s).
PASS_TIMEOUT_S = 150
#: Iterations of the host-calibration loop.
CALIBRATION_ITERS = 1_000_000


class PassFailed(RuntimeError):
    """A pass child exited non-zero or printed no result."""


def calibrate() -> float:
    """Seconds a fixed pure-Python loop takes on this host right now."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(CALIBRATION_ITERS):
        acc += i % 7
    return time.perf_counter() - t0


def run_pass(workload: str, seed: int, mode: str = "plain") -> dict:
    """Run one pass child and return its result object."""
    env = dict(os.environ)
    env.pop("COMB_COMPILED", None)  # the declared population is the pure kernel
    # Set-up is the import users pay once bytecode is cached: the first
    # pass in a fresh tree writes the cache, later passes read it.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    cmd = [sys.executable, str(HERE / "passrun.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise PassFailed(f"{mode} pass ran over {PASS_TIMEOUT_S} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-3:]
        raise PassFailed(f"{mode} pass exited {proc.returncode}: "
                         + " | ".join(tail))
    return json.loads(lines[-1])


# ------------------------------------------------------------ correctness
def load_reference(workload: str) -> dict:
    with open(REFS / f"{workload}.json") as fh:
        return json.load(fh)


def as_reference(result: dict) -> dict:
    """A pass result in reference form (digests + claim counts)."""
    return {"figures": {
        fig: {"digests": f["digests"], "claims": len(f["claims"] or [])}
        for fig, f in result["figures"].items()
    }}


def check_pass(result: dict, reference: dict,
               claims: bool) -> Tuple[int, int, List[str]]:
    """``(attempted, failed, problems)`` of one pass against a reference.

    Operations are points plus (with ``claims``) paper claims.  A point
    fails when its figure raised before it ran, when its result digest
    differs from the reference's, or when the task run differs from the
    set-up task list.  A claim fails when it does not hold or is missing.
    """
    attempted = failed = 0
    problems: List[str] = []
    for fig, want in reference["figures"].items():
        got = result["figures"][fig]
        wd, gd = want["digests"], got["digests"]
        planned, keys = got["planned"], got["keys"]
        n = max(len(wd), len(gd), len(planned))
        bad = sum(
            1 for i in range(n)
            if i >= len(wd) or i >= len(gd) or wd[i] != gd[i]
            or i >= len(planned) or i >= len(keys) or planned[i] != keys[i]
        )
        attempted += n
        failed += bad
        if got["error"]:
            problems.append(f"{fig}: raised {got['error']}")
        if bad:
            problems.append(f"{fig}: {bad} of {n} points differ from the reference")
        if claims:
            got_claims = got["claims"] or []
            missing = max(0, want["claims"] - len(got_claims))
            broken = [c for c, ok in got_claims if not ok]
            attempted += len(got_claims) + missing
            failed += len(broken) + missing
            problems.extend(f"{fig}: claim fails: {c}" for c in broken)
    return attempted, failed, problems


# --------------------------------------------------------------- metrics
def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least 10 of ``n`` samples beyond it."""
    return max(0, (100 * (n - 10)) // n) if n > 10 else 0


def percentile(sorted_values: List[float], p: int) -> float:
    """Nearest-rank percentile of ascending ``sorted_values``."""
    k = max(1, -(-p * len(sorted_values) // 100))
    return sorted_values[k - 1]


def point_walls(passes: List[dict]) -> List[float]:
    """Per-point host time (s): each simulated point's median over passes."""
    per_key: Dict[str, List[float]] = {}
    for res in passes:
        for key, wall in res["point_walls_s"].items():
            per_key.setdefault(key, []).append(wall)
    return sorted(statistics.median(v) for v in per_key.values())


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def ratio(num: float, den: float) -> float:
    """``num / den``, or 0.0 when nothing was attempted."""
    return num / den if den else 0.0


# ------------------------------------------------------------------- runs
def end_to_end(workload: str, seed: int, seconds: float):
    passes: List[dict] = []
    t0 = time.perf_counter()
    # Start another pass only if it should end within ``seconds``.
    while len(passes) < MIN_PASSES or (
            time.perf_counter() - t0) * (len(passes) + 1) / len(passes) <= seconds:
        passes.append(run_pass(workload, seed))
    reference = load_reference(workload) if seed == 0 else as_reference(passes[0])
    attempted = failed = 0
    problems: List[str] = []
    for res in passes:
        a, f, p = check_pass(res, reference, claims=seed == 0)
        attempted, failed = attempted + a, failed + f
        problems.extend(p)

    walls = point_walls(passes)
    p_tail = tail_percentile(len(walls))
    metrics = {
        "wall_s": metric(statistics.median(r["wall_s"] for r in passes), "s"),
        "point_p50_ms": metric(statistics.median(walls) * 1e3, "ms"),
        "point_tail_ms": metric(percentile(walls, p_tail) * 1e3, "ms"),
        "peak_rss_mb": metric(
            statistics.median(r["peak_rss_mb"] for r in passes), "MB"),
        "setup_s": metric(statistics.median(r["setup_s"] for r in passes), "s"),
    }
    notes = {
        "wall_s": f"median of {len(passes)} cold passes",
        "point_p50_ms": f"median of {len(walls)} simulated points",
        "point_tail_ms": f"p{p_tail} of {len(walls)} points, 10+ beyond it",
        "peak_rss_mb": "pass process, median over passes",
        "setup_s": f"import repro + build task list, median of {len(passes)}",
    }
    print_header(workload, seed, passes)
    for name, m in metrics.items():
        print(f"  {name:<14} {m['value']:>12.4f} {m['unit']:<5} ({notes[name]})")
    print(f"  {'failed_share':<14} {ratio(failed, attempted):>12.4f} ratio "
          f"({failed} of {attempted} operations failed)")
    return attempted, failed, problems, metrics


def per_layer(workload: str, seed: int):
    plain = run_pass(workload, seed, "plain")
    profiled = run_pass(workload, seed, "profiled")
    traced = run_pass(workload, seed, "traced")
    if seed == 0:
        attempted, failed, problems = check_pass(
            plain, load_reference(workload), claims=True)
    else:
        attempted, failed, problems = check_pass(
            plain, as_reference(plain), claims=False)
    # Tracing must stay outside the model: same records, same events,
    # and counts that repeat exactly from one traced pass to the next.
    for res in (profiled, traced):
        a, f, p = check_pass(res, as_reference(plain), claims=False)
        attempted, failed = attempted + a, failed + f
        problems.extend(f"{res['mode']} vs untraced: {msg}" for msg in p)
        attempted += 1
        if res["events"] != plain["events"]:
            failed += 1
            problems.append(f"{res['mode']} pass dispatched {res['events']} "
                            f"events, untraced {plain['events']}")
    attempted += 1
    if profiled["counts"] != traced["counts"]:
        failed += 1
        diff = sorted(k for k in traced["counts"]
                      if traced["counts"][k] != profiled["counts"].get(k))
        problems.append(f"per-layer counts differ between traced passes: {diff}")

    c, s = profiled["counts"], profiled["self_s"]
    events, packets = plain["events"], c["hardware.nic.packets"]
    values = {
        "sim.events": (events, "count"),
        "sim.events_per_packet": (ratio(events, packets), "ratio"),
        "sim.self_s": (s["sim"], "s"),
        "sim.host_us_per_event": (ratio(plain["wall_s"] * 1e6, events), "us"),
        "sim.ff.calls": (c["sim.ff.calls"], "count"),
        "sim.ff.accept_ratio": (ratio(c["sim.ff.accepted"], c["sim.ff.calls"]),
                                "ratio"),
        "hardware.self_s": (s["hardware"], "s"),
        "hardware.nic.jobs": (c["hardware.nic.jobs"], "count"),
        "hardware.nic.packets": (packets, "count"),
        "hardware.nic.multi_packet_jobs": (c["hardware.nic.multi_packet_jobs"],
                                           "count"),
        "hardware.nic.deliver_share": (ratio(c["hardware.nic.delivers"], packets),
                                       "ratio"),
        "hardware.cpu.kernel_items": (c["hardware.cpu.kernel_items"], "count"),
        "hardware.cpu.traps": (c["hardware.cpu.traps"], "count"),
        "os.self_s": (s["os"], "s"),
        "os.irqs": (c["os.irqs"], "count"),
        "os.gbn.timeouts": (c["os.gbn.timeouts"], "count"),
        "transport.self_s": (s["transport"], "s"),
        "transport.nic_rx": (c["transport.nic_rx"], "count"),
        "transport.progress_passes": (c["transport.progress_passes"], "count"),
        "transport.ctrl_packets": (c["transport.ctrl_packets"], "count"),
        "mpi.self_s": (s["mpi"], "s"),
        "mpi.calls": (c["mpi.calls"], "count"),
        "mpi.test_hit_ratio": (ratio(c["mpi.test_hits"], c["mpi.test_calls"]),
                               "ratio"),
        "core.self_s": (s["core"], "s"),
        "patterns.self_s": (s["patterns"], "s"),
        "executor.points_simulated": (plain["points_simulated"], "count"),
        "executor.memo_hit_ratio": (ratio(plain["memo_hits"], plain["lookups"]),
                                    "ratio"),
        "executor.overhead_s": (plain["overhead_s"], "s"),
        "analysis.self_s": (s["analysis"], "s"),
        "other.self_s": (s["other"], "s"),
        "trace.overhead_ratio": (ratio(profiled["wall_s"], plain["wall_s"]),
                                 "ratio"),
    }
    metrics = {k: metric(v, u) for k, (v, u) in values.items()}

    print_header(workload, seed, [plain])
    model_s = sum(v for k, v in s.items() if k != "trace")
    print(f"  untraced wall {plain['wall_s']:.3f} s, profiled "
          f"{profiled['wall_s']:.3f} s, traced {traced['wall_s']:.3f} s; "
          f"wrapper self time {s['trace']:.3f} s excluded from the layers")
    for name, m in metrics.items():
        share = (f"  {100 * m['value'] / model_s:5.1f}% of self time"
                 if name.endswith(".self_s") and model_s else "")
        value = m["value"]
        shown = f"{value:>14d}" if isinstance(value, int) else f"{value:>14.6g}"
        print(f"  {name:<32} {shown} {m['unit']:<6}{share}")
    print("  layer-boundary spans (traced pass: calls, inclusive host s;"
          " MPI generator calls are counted, not timed):")
    for name, (calls, secs) in traced["spans"].items():
        shown = f"{secs:>10.4f}" if secs else f"{'-':>10}"
        print(f"    {name:<30} {calls:>10d} {shown}")
    print("  slowest points (traced wall, calls by layer):")
    for pt in traced["slowest_points"]:
        print(f"    {pt['point']:<40} {pt['wall_s'] * 1e3:8.2f} ms  {pt['calls']}")
    return attempted, failed, problems, metrics


def print_header(workload: str, seed: int, passes: List[dict]) -> None:
    first = passes[0]
    knobs = size_knobs(workload, seed) or "paper sizes"
    kernel = "compiled" if first["compiled"] else "pure"
    print(f"workload {workload}  seed {seed}  sizes {knobs}")
    print(f"  population: {kernel} kernel, jobs=1 closed loop (one caller), "
          f"cache off, python {first['python']}, host {os.uname().nodename}")


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no simulator sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    calibration_before = calibrate()
    try:
        if args.trace:
            attempted, failed, problems, metrics = per_layer(args.workload, args.seed)
        else:
            attempted, failed, problems, metrics = end_to_end(
                args.workload, args.seed, args.seconds)
    except PassFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"  host calibration: {calibration_before:.4f} s before, "
          f"{calibrate():.4f} s after ({CALIBRATION_ITERS} pure-Python loop "
          f"iterations; not a metric)")
    for msg in problems:
        print(f"  FAIL {msg}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
