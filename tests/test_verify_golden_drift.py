"""Golden-drift regression: every execution mode reproduces the bits.

``tests/golden_values.json`` was recorded on the pure-Python engine with
no sanitizer attached.  Four modes must reproduce it exactly:

* **pure bare** — the fast paths (fast pump, quiescence) live;
* **pure checked** — the sanitizer attached, which also forces the NICs
  onto the legacy per-packet path: equality proves both that the
  sanitizer is observation-only *and* that the fast paths are bit-exact;
* **compiled bare / compiled checked** — the same two, on the C kernel
  (``COMB_COMPILED=1`` with ``repro._simcore`` built).  The compiled
  axis is a property of the running process, so those legs execute in
  CI's compiled-core job and *skip visibly* when the extension is
  absent.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro import compiled
from repro.config import gm_system, portals_system
from repro.core import PointTask, PollingConfig, PwwConfig, SweepExecutor
from repro.patterns import PatternConfig

KB = 1024
GOLDEN_PATH = Path(__file__).parent / "golden_values.json"

#: The fig04 (polling) and fig11 (PWW) canonical points, as recorded.
POLL_CFG = PollingConfig(msg_bytes=100 * KB, poll_interval_iters=1_000,
                         measure_s=0.02, warmup_s=0.004)
PWW_CFG = PwwConfig(msg_bytes=100 * KB, work_interval_iters=100_000,
                    batches=6, warmup_batches=2)

#: The canonical multi-rank pattern points, as recorded (4-rank worlds
#: on the default crossbar; one halo, one allreduce).
HALO_CFG = PatternConfig(pattern="halo2d", ranks=4, msg_bytes=100 * KB,
                         work_interval_iters=100_000, iterations=4,
                         warmup_iterations=1)
ALLREDUCE_CFG = PatternConfig(pattern="allreduce", ranks=4,
                              msg_bytes=100 * KB,
                              work_interval_iters=100_000, iterations=4,
                              warmup_iterations=1)


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


def _golden_tasks():
    return [
        PointTask("polling", gm_system(), POLL_CFG),
        PointTask("pww", gm_system(), PWW_CFG),
        PointTask("polling", portals_system(), POLL_CFG),
        PointTask("pww", portals_system(), PWW_CFG),
    ]


@pytest.fixture(scope="module")
def checked():
    """All four golden sweep points simulated under check=True, once."""
    with SweepExecutor(jobs=1, check=True) as ex:
        points = ex.run(_golden_tasks())
    return points, ex.violations


@pytest.fixture(scope="module")
def bare():
    """The same four points on the unchecked fast paths."""
    return SweepExecutor(jobs=1).run(_golden_tasks())


def test_zero_violations_on_golden_points(checked):
    _points, violations = checked
    assert violations == [], violations


@pytest.mark.parametrize("index,key", [
    (0, "GM.polling.100KB.1e3"),
    (2, "Portals.polling.100KB.1e3"),
])
def test_polling_bit_identical_under_check(checked, golden, index, key):
    pt = checked[0][index]
    want = golden[key]
    assert pt.availability == want["availability"]
    assert pt.bandwidth_Bps == want["bandwidth_Bps"]
    assert pt.msgs == want["msgs"]
    assert pt.interrupts == want["interrupts"]


@pytest.mark.parametrize("index,key", [
    (1, "GM.pww.100KB.1e5"),
    (3, "Portals.pww.100KB.1e5"),
])
def test_pww_bit_identical_under_check(checked, golden, index, key):
    pt = checked[0][index]
    want = golden[key]
    assert pt.availability == want["availability"]
    assert pt.bandwidth_Bps == want["bandwidth_Bps"]
    assert (pt.post_s, pt.work_s, pt.wait_s) == (
        want["post_s"], want["work_s"], want["wait_s"])


def test_checked_equals_unchecked_directly():
    """Fast head-to-head on a small config: check=True vs check=False."""
    cfg = PollingConfig(msg_bytes=50 * KB, poll_interval_iters=1_000,
                        measure_s=0.005, warmup_s=0.002, min_cycles=2)
    tasks = [PointTask("polling", gm_system(), cfg)]
    plain = SweepExecutor(jobs=1).run(tasks)
    with SweepExecutor(jobs=1, check=True) as ex:
        checked_pts = ex.run(tasks)
        assert ex.violations == []
    assert checked_pts == plain


# Cross-mode parity (bare vs checked vs traced, pairwise, every golden
# point) lives in tests/test_mode_matrix.py — this module only checks
# each mode against the recorded golden bits.

@pytest.mark.parametrize("key,index,fields", [
    ("GM.polling.100KB.1e3", 0,
     ("availability", "bandwidth_Bps", "msgs", "interrupts")),
    ("GM.pww.100KB.1e5", 1,
     ("availability", "bandwidth_Bps", "post_s", "work_s", "wait_s")),
    ("Portals.polling.100KB.1e3", 2,
     ("availability", "bandwidth_Bps", "msgs", "interrupts")),
    ("Portals.pww.100KB.1e5", 3,
     ("availability", "bandwidth_Bps", "post_s", "work_s", "wait_s")),
])
def test_bare_bit_identical_to_golden(bare, golden, key, index, fields):
    want = golden[key]
    pt = bare[index]
    for f in fields:
        assert getattr(pt, f) == want[f], (key, f)


def test_compiled_core_reproduces_golden(checked, bare, golden):
    """The compiled legs of the matrix: when this process runs on the
    C kernel, the assertions above already executed against it — this
    test makes that leg visible (and visibly skipped when absent)."""
    if not compiled.active():
        pytest.skip(f"compiled core not active ({compiled.status()}); "
                    "pure-Python legs covered above")
    # Running compiled: bare + checked fixtures were produced by the
    # extension modules.  Pin one value end to end as a tripwire.
    want = golden["GM.polling.100KB.1e3"]
    assert bare[0].availability == want["availability"]
    assert checked[0][0].availability == want["availability"]


# --------------------------------------------------------------- patterns
# The N-rank pattern points get their own task list so the original
# four-point matrix above keeps its recorded indices.

def _pattern_tasks():
    return [
        PointTask("pattern", gm_system(), HALO_CFG),
        PointTask("pattern", portals_system(), ALLREDUCE_CFG),
    ]


@pytest.fixture(scope="module")
def pattern_checked():
    """Both golden pattern points simulated under check=True, once."""
    with SweepExecutor(jobs=1, check=True) as ex:
        points = ex.run(_pattern_tasks())
    return points, ex.violations


@pytest.fixture(scope="module")
def pattern_bare():
    """The same two points on the unchecked fast paths."""
    return SweepExecutor(jobs=1).run(_pattern_tasks())


def test_zero_violations_on_pattern_points(pattern_checked):
    _points, violations = pattern_checked
    assert violations == [], violations


@pytest.mark.parametrize("index,key", [
    (0, "GM.pattern.halo2d.4r"),
    (1, "Portals.pattern.allreduce.4r"),
])
def test_pattern_bit_identical_to_golden(pattern_bare, golden, index, key):
    pt = pattern_bare[index]
    want = golden[key]
    assert pt.availability == want["availability"]
    assert pt.bandwidth_Bps == want["bandwidth_Bps"]
    assert pt.msgs == want["msgs"]
    assert pt.interrupts == want["interrupts"]


def test_compiled_core_reproduces_pattern_golden(pattern_bare, golden):
    """Compiled-leg tripwire for the pattern points (CI's compiled job)."""
    if not compiled.active():
        pytest.skip(f"compiled core not active ({compiled.status()}); "
                    "pure-Python legs covered above")
    want = golden["GM.pattern.halo2d.4r"]
    assert pattern_bare[0].availability == want["availability"]


def test_pool_checked_equals_serial_checked():
    """Violations and points both survive the spawn pool."""
    cfg = PollingConfig(msg_bytes=50 * KB, poll_interval_iters=1_000,
                        measure_s=0.005, warmup_s=0.002, min_cycles=2)
    tasks = [
        PointTask("polling", gm_system(), cfg),
        PointTask("polling", portals_system(), cfg),
    ]
    with SweepExecutor(jobs=1, check=True) as serial:
        serial_pts = serial.run(tasks)
    with SweepExecutor(jobs=2, check=True) as pooled:
        pooled_pts = pooled.run(tasks)
        assert pooled.violations == []
    assert pooled_pts == serial_pts
