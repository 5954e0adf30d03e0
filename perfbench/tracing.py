"""Per-layer tracing installed from outside the simulator.

Two instruments, both confined to the benchmark's pass child:

* :class:`LayerTrace` wraps each layer's public functions (class
  attributes patched before any world is built, restored afterwards).
  Every wrapper counts its calls; plain functions are also timed
  (inclusive).  Calls are aggregated per sweep point under the point's
  executor key, so the spans of one point share that key.  Wrappers
  never touch simulated state, so traced results must be bit-identical
  to untraced ones; ``run.py`` checks that, and an equal
  ``sim.events`` shows that no fast path was refused (attaching
  ``Engine.trace`` would force the legacy NIC path, so it stays unset).
* :func:`self_time_by_layer` groups a cProfile's self time by
  ``repro.<package>``.  The wrappers alone would book privately
  dispatched engine callbacks to ``sim``; the profile books each
  function to the file that defines it.
"""

from __future__ import annotations

import functools
import inspect
import os
import pstats
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Tuple

import repro
import repro.core.executor as executor_mod
from repro.core.executor import task_key
from repro.hardware.cpu import CPU
from repro.hardware.nic import NIC
from repro.mpi.api import MpiHandle
from repro.os.driver import GoBackNTx
from repro.os.interrupts import InterruptController
from repro.sim.engine import Engine
from repro.transport.base import Device
from repro.transport.gm import GmDevice
from repro.transport.portals import PortalsDevice

#: Profile buckets: the packages a layer metric names; every other repro
#: module (config, obs, stats, ...) is glue booked to ``analysis``.
LAYERS = ("sim", "hardware", "os", "transport", "mpi", "core", "patterns",
          "analysis")

#: (span name, owner class, attribute) of every timed/counted function.
_WRAPPED = (
    ("sim.fast_forward", Engine, "fast_forward"),
    ("hardware.nic.submit", NIC, "submit"),
    ("hardware.nic.deliver", NIC, "deliver"),
    ("hardware.cpu.kernel_work", CPU, "kernel_work"),
    ("hardware.cpu.trap", CPU, "trap"),
    ("os.raise_irq", InterruptController, "raise_irq"),
    ("os.gbn.on_timeout", GoBackNTx, "on_timeout"),
    ("transport.gm.nic_rx", GmDevice, "nic_rx"),
    ("transport.portals.nic_rx", PortalsDevice, "nic_rx"),
) + tuple(
    (f"mpi.{name}", MpiHandle, name)
    for name, fn in sorted(vars(MpiHandle).items())
    if not name.startswith("_") and inspect.isfunction(fn)
)


def _label(task: Any) -> str:
    """Readable identity of one point task."""
    cfg = task.cfg
    if task.kind == "pattern":
        where = f"{cfg.pattern} {cfg.topology} ranks={cfg.ranks}"
    elif task.kind == "polling":
        where = f"poll={cfg.poll_interval_iters}"
    else:
        where = f"work={cfg.work_interval_iters}"
    return f"{task.kind} {task.system.name} {cfg.msg_bytes}B {where}"


class LayerTrace:
    """Counting/timing wrappers around each layer's public functions."""

    def __init__(self) -> None:
        self.point = "setup"
        #: point key -> span name -> [calls, inclusive seconds]
        self.spans: Dict[str, Dict[str, List[float]]] = defaultdict(
            lambda: defaultdict(lambda: [0, 0.0]))
        #: Derived counters that a call count alone cannot give.
        self.counts: Dict[str, int] = defaultdict(int)
        #: point key -> (start, end) perf_counter of the point's span.
        self.point_spans: Dict[str, Tuple[float, float]] = {}
        #: point key -> readable point identity.
        self.labels: Dict[str, str] = {}
        self._devices: List[Device] = []
        self._restore: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------ install
    def install(self) -> None:
        for name, owner, attr in _WRAPPED:
            self._patch(owner, attr, self._wrap(name, getattr(owner, attr)))
        self._patch(Device, "__init__", self._wrap_device_init(Device.__init__))
        # The executor calls run_task through its module global, so one
        # patch brackets every simulated point with its key.
        self._patch(executor_mod, "run_task",
                    self._wrap_point(executor_mod.run_task))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def _patch(self, owner: Any, attr: str, wrapper: Any) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    # ----------------------------------------------------------- wrappers
    def _observe(self, name: str, result: Any, args: tuple) -> None:
        """Counters read from a call's arguments or result."""
        counts = self.counts
        if name == "sim.fast_forward":
            counts["sim.ff.accepted"] += bool(result)
        elif name == "hardware.nic.submit":
            n = len(args[1].packets)
            counts["hardware.nic.packets"] += n
            counts["hardware.nic.multi_packet_jobs"] += n > 1
        elif name in ("mpi.test", "mpi.testany", "mpi.testsome"):
            # test -> bool, testany -> index or None, testsome -> list.
            counts["mpi.test_calls"] += 1
            counts["mpi.test_hits"] += bool(
                result is not None if name == "mpi.testany" else result)

    def _wrap(self, name: str, fn: Callable) -> Callable:
        spans = self.spans
        observe = self._observe
        clock = time.perf_counter
        if inspect.isgeneratorfunction(fn):
            # Generator methods (MPI calls run inside simulated processes)
            # are counted, not timed: their host time interleaves with the
            # engine's.
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                spans[self.point][name][0] += 1
                result = yield from fn(*args, **kwargs)
                observe(name, result, args)
                return result
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = clock()
            result = fn(*args, **kwargs)
            span = spans[self.point][name]
            span[0] += 1
            span[1] += clock() - t0
            observe(name, result, args)
            return result
        return wrapper

    def _wrap_device_init(self, fn: Callable) -> Callable:
        devices = self._devices

        @functools.wraps(fn)
        def wrapper(dev, *args, **kwargs):
            fn(dev, *args, **kwargs)
            devices.append(dev)
        return wrapper

    def _wrap_point(self, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(task):
            key = task_key(task)
            self.point = key
            self._devices.clear()
            t0 = time.perf_counter()
            point = fn(task)
            self.point_spans[key] = (t0, time.perf_counter())
            self.labels[key] = _label(task)
            for dev in self._devices:
                self.counts["transport.progress_passes"] += dev.stats.progress_passes
                self.counts["transport.ctrl_packets"] += dev.stats.ctrl_packets
            self._devices.clear()
            self.point = "setup"
            return point
        return wrapper

    # ------------------------------------------------------------ results
    def totals(self) -> Dict[str, List[float]]:
        """Span name -> [calls, inclusive seconds] summed over points."""
        out: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0])
        for per_point in self.spans.values():
            for name, (calls, secs) in per_point.items():
                out[name][0] += calls
                out[name][1] += secs
        return dict(out)

    def layer_counts(self) -> Dict[str, int]:
        """The per-layer counts the benchmark reports (exact integers)."""
        calls = {name: int(v[0]) for name, v in self.totals().items()}

        def total(prefix: str) -> int:
            return sum(v for k, v in calls.items() if k.startswith(prefix))

        return {
            "sim.ff.calls": calls.get("sim.fast_forward", 0),
            "sim.ff.accepted": self.counts["sim.ff.accepted"],
            "hardware.nic.jobs": calls.get("hardware.nic.submit", 0),
            "hardware.nic.packets": self.counts["hardware.nic.packets"],
            "hardware.nic.multi_packet_jobs":
                self.counts["hardware.nic.multi_packet_jobs"],
            "hardware.nic.delivers": calls.get("hardware.nic.deliver", 0),
            "hardware.cpu.kernel_items": calls.get("hardware.cpu.kernel_work", 0),
            "hardware.cpu.traps": calls.get("hardware.cpu.trap", 0),
            "os.irqs": calls.get("os.raise_irq", 0),
            "os.gbn.timeouts": calls.get("os.gbn.on_timeout", 0),
            "transport.nic_rx": total("transport."),
            "transport.progress_passes": self.counts["transport.progress_passes"],
            "transport.ctrl_packets": self.counts["transport.ctrl_packets"],
            "mpi.calls": total("mpi."),
            "mpi.test_calls": self.counts["mpi.test_calls"],
            "mpi.test_hits": self.counts["mpi.test_hits"],
        }

    def slowest_points(self, n: int) -> List[Dict[str, Any]]:
        """The ``n`` longest point spans with their per-layer call counts."""
        ranked = sorted(self.point_spans.items(),
                        key=lambda kv: kv[1][1] - kv[1][0], reverse=True)[:n]
        out = []
        for key, (t0, t1) in ranked:
            layers: Dict[str, int] = defaultdict(int)
            for name, (calls, _secs) in self.spans[key].items():
                layers[name.split(".")[0]] += int(calls)
            out.append({"point": self.labels[key], "wall_s": t1 - t0,
                        "calls": dict(sorted(layers.items()))})
        return out


def self_time_by_layer(stats: pstats.Stats, bench_dir: str) -> Dict[str, float]:
    """Profile self time (s) grouped into :data:`LAYERS`, ``trace`` (the
    benchmark's own wrappers) and ``other`` (outside repro)."""
    repro_dir = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep
    bench_dir = os.path.abspath(bench_dir) + os.sep
    out = {layer: 0.0 for layer in LAYERS + ("trace", "other")}
    for (filename, _line, _func), row in stats.stats.items():  # type: ignore[attr-defined]
        self_s = row[2]
        path = os.path.abspath(filename) if filename.endswith(".py") else filename
        if path.startswith(repro_dir):
            top = path[len(repro_dir):].split(os.sep)[0]
            out[top if top in LAYERS else "analysis"] += self_s
        elif path.startswith(bench_dir):
            out["trace"] += self_s
        else:
            out["other"] += self_s
    return out
