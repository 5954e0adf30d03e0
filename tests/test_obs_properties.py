"""Property-based tests over the observability layer.

The ISSUE's named invariants, enforced for arbitrary draws:

* **availability ∈ [0, 1]** on observed runs — and, stronger, observed
  results are *bit-identical* to detached runs for the same draw;
* **phase durations sum to the total PWW iteration time** — the
  ``pww_phase`` trace records tile the run contiguously, agree with the
  driver's own per-batch records (the point's phase means), and the
  measured phases sum to the point's elapsed window;
* **histogram bucket counts equal event counts** — ``sum(counts) ==
  count`` for arbitrary observation streams, regardless of bounds;
* **trace events are monotone in sim-time per rank** (per source row —
  the property the Chrome export relies on to render sane timelines).

Pure-structure properties run at the profile's full example budget; the
simulation-backed ones cap ``max_examples`` because each example is a
whole cluster run.
"""

import dataclasses
from collections import defaultdict

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.config import gm_system, portals_system
from repro.core import PollingConfig, PwwConfig, run_polling, run_pww
from repro.obs import Gauge, Histogram, Observer, RingBuffer, use_observer

KB = 1024

_systems = st.sampled_from(["GM", "Portals"])
_sizes = st.sampled_from([4 * KB, 16 * KB, 64 * KB])


def _system(name):
    return gm_system() if name == "GM" else portals_system()


# ------------------------------------------------------- structure properties
@given(
    bounds=st.lists(
        st.floats(min_value=1e-9, max_value=1e9,
                  allow_nan=False, allow_infinity=False),
        min_size=1, max_size=12, unique=True,
    ),
    values=st.lists(
        st.floats(min_value=-1e12, max_value=1e12,
                  allow_nan=False, allow_infinity=False),
        max_size=200,
    ),
)
def test_histogram_bucket_counts_equal_event_count(bounds, values):
    """Every observation lands in exactly one bucket: no event is lost,
    none is double-counted, whatever the bounds and stream."""
    hist = Histogram("h", sorted(bounds))
    for v in values:
        hist.observe(v)
    assert sum(hist.counts) == hist.count == len(values)
    # And each count is attributable: bucket i holds values <= bounds[i].
    for i, bound in enumerate(hist.bounds):
        lower = hist.bounds[i - 1] if i else float("-inf")
        expected = sum(1 for v in values if lower < v <= bound)
        assert hist.counts[i] == expected
    assert hist.counts[-1] == sum(1 for v in values if v > hist.bounds[-1])


@given(
    capacity=st.integers(min_value=1, max_value=32),
    n=st.integers(min_value=0, max_value=200),
)
def test_ring_buffer_keeps_newest_and_accounts_all(capacity, n):
    ring = RingBuffer(capacity)
    for i in range(n):
        ring.append(i)
    kept = ring.to_list()
    assert kept == list(range(max(0, n - capacity), n))
    assert len(kept) + ring.dropped == n


@given(values=st.lists(
    st.floats(min_value=-1e9, max_value=1e9,
              allow_nan=False, allow_infinity=False),
    min_size=1, max_size=100,
))
def test_gauge_watermarks_bound_every_written_value(values):
    g = Gauge("g")
    for v in values:
        g.set(v)
    assert g.min == min(values)
    assert g.max == max(values)
    assert g.value == values[-1]
    assert g.min <= g.value <= g.max


# ------------------------------------------------------ simulation properties
@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    name=_systems,
    msg_bytes=_sizes,
    interval=st.integers(min_value=100, max_value=1_000_000),
)
def test_observed_availability_in_range_and_bit_identical(
    name, msg_bytes, interval
):
    cfg = PollingConfig(
        msg_bytes=msg_bytes, poll_interval_iters=interval,
        measure_s=0.004, warmup_s=0.001, min_cycles=2,
    )
    bare = run_polling(_system(name), cfg)
    obs = Observer()
    with use_observer(obs):
        seen = run_polling(_system(name), cfg)
    assert 0.0 <= seen.availability <= 1.0 + 1e-9
    # The observer is strictly passive: same draw, same bits.
    assert dataclasses.asdict(seen) == dataclasses.asdict(bare)
    # Poll accounting covers every completion test the worker made.
    m = obs.metrics
    hits = m.counter("sim.poll.hits").value if "sim.poll.hits" in m else 0
    misses = m.counter("sim.poll.misses").value if "sim.poll.misses" in m else 0
    assert hits + misses > 0


@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    name=_systems,
    msg_bytes=_sizes,
    work=st.integers(min_value=0, max_value=1_000_000),
    batch=st.integers(min_value=1, max_value=2),
)
def test_pww_phases_tile_the_run_and_sum_to_elapsed(
    name, msg_bytes, work, batch
):
    cfg = PwwConfig(
        msg_bytes=msg_bytes, work_interval_iters=work, batch_msgs=batch,
        batches=4, warmup_batches=1,
    )
    obs = Observer()
    with use_observer(obs):
        point = run_pww(_system(name), cfg)
    events = obs.tracer.of_kind("pww_phase")
    assert len(events) == cfg.warmup_batches + cfg.batches

    # Contiguity: each batch starts exactly where the previous ended
    # (both are readings of the same engine.now instant, so this is
    # bit-exact), and each record's timestamp is its own cycle end (the
    # phases are stored as *differences*, so re-summing them only
    # recovers the end time to float associativity).
    for prev, ev in zip(events, events[1:]):
        _b, t0_s, post_s, work_s, wait_s = prev.detail
        assert prev.time_s == pytest.approx(
            t0_s + post_s + work_s + wait_s, rel=1e-9, abs=1e-15
        )
        assert ev.detail[1] == prev.time_s
    last = events[-1]
    assert last.time_s == pytest.approx(
        last.detail[1] + sum(last.detail[2:]), rel=1e-9, abs=1e-15
    )

    # Phase durations sum to the total measured iteration time.
    measured = events[cfg.warmup_batches:]
    total_s = sum(sum(ev.detail[2:]) for ev in measured)
    assert total_s == pytest.approx(point.elapsed_s, rel=1e-9)

    # The trace agrees with the driver's own per-batch records: the
    # point's phase means are those records' means, so averaging the
    # traced phases the same way must reproduce them bit for bit.
    assert point.batches == len(measured)
    for field_i, mean_s in enumerate(
        (point.post_s, point.work_s, point.wait_s), start=2
    ):
        assert float(np.mean([ev.detail[field_i] for ev in measured])) == mean_s


@settings(max_examples=6, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    name=_systems,
    msg_bytes=_sizes,
    method=st.sampled_from(["polling", "pww"]),
)
def test_trace_events_monotone_in_sim_time_per_source(
    name, msg_bytes, method
):
    obs = Observer()
    with use_observer(obs):
        if method == "polling":
            run_polling(_system(name), PollingConfig(
                msg_bytes=msg_bytes, poll_interval_iters=10_000,
                measure_s=0.004, warmup_s=0.001, min_cycles=2,
            ))
        else:
            run_pww(_system(name), PwwConfig(
                msg_bytes=msg_bytes, work_interval_iters=50_000,
                batches=3, warmup_batches=1,
            ))
    by_source = defaultdict(list)
    for ev in obs.events():  # emission order (sorted by seq)
        by_source[ev.source].append(ev.time_s)
    assert by_source, "run produced no events"
    for source, times in by_source.items():
        for earlier, later in zip(times, times[1:]):
            assert later >= earlier, (
                f"{source}: event at {later} precedes {earlier} — "
                f"timeline not monotone in sim-time"
            )
