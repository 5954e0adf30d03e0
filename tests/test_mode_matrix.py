"""Cross-mode differential matrix: every mode, every golden point, pairwise.

One parametrized table replaces the bespoke parity checks that used to be
scattered across the suite (bare-vs-checked in the golden-drift module,
traced-vs-bare for patterns, …).  Every golden point runs under every
execution mode and the result dicts are byte-compared pairwise:

* **pure** — the unchecked fast paths (fast pump, quiescence);
* **checked** — sanitizer attached, NICs forced onto the legacy
  per-packet path (also asserts zero violations);
* **traced** — an ambient :class:`Observer` tracing every world, which
  disarms the two-node fast pump.

The **compiled** axis is a property of the running process
(``COMB_COMPILED=1`` with ``repro._simcore`` built): when active, every
row of this matrix already executed on the C kernel; a sentinel test
makes that leg visible (and visibly skipped when absent).

A replicated row (``reps=3`` on a quick config) closes the matrix over
the replication path: aggregated points must agree across modes too,
replication summaries included (deterministic configs give every mode
the same zero-width CIs).
"""

from __future__ import annotations

import pytest

from repro import compiled
from repro.config import gm_system, portals_system
from repro.core import PointTask, PollingConfig, SweepExecutor
from repro.obs import Observer, use_observer

from tests.test_verify_golden_drift import (
    ALLREDUCE_CFG,
    HALO_CFG,
    POLL_CFG,
    PWW_CFG,
)

KB = 1024

#: The full golden matrix: every recorded sweep and pattern point.
GOLDEN_TASKS = {
    "GM.polling": PointTask("polling", gm_system(), POLL_CFG),
    "GM.pww": PointTask("pww", gm_system(), PWW_CFG),
    "Portals.polling": PointTask("polling", portals_system(), POLL_CFG),
    "Portals.pww": PointTask("pww", portals_system(), PWW_CFG),
    "GM.halo2d": PointTask("pattern", gm_system(), HALO_CFG),
    "Portals.allreduce": PointTask("pattern", portals_system(),
                                   ALLREDUCE_CFG),
}

#: Quick point for the replicated row (sub-second, still full-path).
QUICK_CFG = PollingConfig(msg_bytes=50 * KB, poll_interval_iters=1_000,
                          measure_s=0.005, warmup_s=0.002, min_cycles=2)

MODES = ("pure", "checked", "traced")


def _run_mode(mode: str, tasks, reps: int = 1):
    """All ``tasks`` under one execution mode, as result dicts."""
    if mode == "checked":
        with SweepExecutor(jobs=1, check=True) as ex:
            points = ex.run(tasks, reps=reps)
            assert ex.violations == [], ex.violations
            assert ex.disagreements == [], ex.disagreements
        return [p.to_dict() for p in points]
    ex = SweepExecutor(jobs=1)
    if mode == "traced":
        with use_observer(Observer()):
            points = ex.run(tasks, reps=reps)
    else:
        points = ex.run(tasks, reps=reps)
    assert ex.disagreements == [], ex.disagreements
    return [p.to_dict() for p in points]


@pytest.fixture(scope="module")
def matrix():
    """{mode: [result dict per golden task]} — each mode simulated once."""
    tasks = list(GOLDEN_TASKS.values())
    return {mode: _run_mode(mode, tasks) for mode in MODES}


@pytest.mark.parametrize("point_index,point_id",
                         [(i, name) for i, name in enumerate(GOLDEN_TASKS)])
@pytest.mark.parametrize("mode_a,mode_b", [
    ("pure", "checked"),
    ("pure", "traced"),
    ("checked", "traced"),
])
def test_modes_bit_identical_pairwise(matrix, point_index, point_id,
                                      mode_a, mode_b):
    doc_a = matrix[mode_a][point_index]
    doc_b = matrix[mode_b][point_index]
    assert doc_a == doc_b, (point_id, mode_a, mode_b)


def test_compiled_leg_visible(matrix):
    """When this process runs the C kernel, the whole matrix above
    already executed on it; this sentinel makes that leg visible."""
    if not compiled.active():
        pytest.skip(f"compiled core not active ({compiled.status()}); "
                    "pure-Python legs covered above")
    assert matrix["pure"][0]["availability"] > 0.0


# ------------------------------------------------------------- replicated row
@pytest.fixture(scope="module")
def replicated_matrix():
    """The quick polling point replicated (reps=3) under every mode."""
    task = PointTask("polling", gm_system(), QUICK_CFG)
    return {mode: _run_mode(mode, [task], reps=3)[0] for mode in MODES}


@pytest.mark.parametrize("mode_a,mode_b", [
    ("pure", "checked"),
    ("pure", "traced"),
    ("checked", "traced"),
])
def test_replicated_point_bit_identical_pairwise(replicated_matrix,
                                                 mode_a, mode_b):
    """Aggregated replicated points — replication summary included —
    agree across modes: deterministic configs give every mode the same
    zero-width CIs."""
    assert replicated_matrix[mode_a] == replicated_matrix[mode_b]


def test_replicated_point_summary_shape(replicated_matrix):
    summary = replicated_matrix["pure"]["replication"]
    assert summary["reps"] == 3
    assert summary["disagreements"] == 0
    avail = summary["metrics"]["availability"]
    assert avail["ci_low"] == avail["ci_high"] == avail["median"]
