"""Tests: executor wall-clock profiling + cache eviction accounting.

Satellite of the observability PR: the new ``metrics=`` seam on
:class:`~repro.core.executor.SweepExecutor` and the eviction counters on
:class:`~repro.core.executor.PointCache` are asserted against *forced*
hits, misses, and corrupt-record evictions, and the profiled path is
proven bit-identical to the unprofiled one.
"""

import json

import pytest

from repro.config import gm_system
from repro.core import (
    PointCache,
    PointTask,
    PollingConfig,
    SweepExecutor,
    task_key,
)
from repro.obs import MetricsRegistry

KB = 1024

#: Fast-but-real polling points (distinct intervals → distinct keys).
TASKS = [
    PointTask("polling", gm_system(), PollingConfig(
        msg_bytes=10 * KB, poll_interval_iters=interval,
        measure_s=0.002, warmup_s=0.0005, min_cycles=2,
    ))
    for interval in (1_000, 10_000)
]


def _corrupt(cache: PointCache, task: PointTask) -> None:
    """Overwrite a task's on-disk record with garbage."""
    cache._path(task_key(task)).write_text("{ not json")


# ------------------------------------------------------------ hit/miss stats
class TestLookupMetrics:
    def test_cold_run_counts_misses_only(self):
        reg = MetricsRegistry()
        ex = SweepExecutor(metrics=reg)
        ex.run(TASKS)
        assert reg.counter("executor.cache.misses").value == len(TASKS)
        assert "executor.cache.hits" not in reg
        assert reg.histogram("executor.lookup_miss_s").count == len(TASKS)

    def test_memo_hits_counted(self):
        reg = MetricsRegistry()
        ex = SweepExecutor(metrics=reg)
        ex.run(TASKS)
        ex.run(TASKS)  # second pass: all memo hits
        assert reg.counter("executor.cache.hits").value == len(TASKS)
        assert reg.counter("executor.cache.misses").value == len(TASKS)
        assert reg.histogram("executor.lookup_hit_s").count == len(TASKS)

    def test_disk_hits_counted(self, tmp_path):
        cache = PointCache(tmp_path / "cache")
        SweepExecutor(cache=cache).run(TASKS)  # populate the disk cache
        reg = MetricsRegistry()
        ex = SweepExecutor(cache=cache, metrics=reg)
        ex.run(TASKS)
        assert reg.counter("executor.cache.hits").value == len(TASKS)
        assert "executor.cache.misses" not in reg
        assert ex.stats.hits == len(TASKS)

    def test_lookup_histogram_totals_partition_lookups(self, tmp_path):
        cache = PointCache(tmp_path / "cache")
        SweepExecutor(cache=cache).run(TASKS[:1])  # one record on disk
        reg = MetricsRegistry()
        SweepExecutor(cache=cache, metrics=reg).run(TASKS)
        hits = reg.histogram("executor.lookup_hit_s").count
        misses = reg.histogram("executor.lookup_miss_s").count
        assert (hits, misses) == (1, 1)
        assert (reg.counter("executor.cache.hits").value,
                reg.counter("executor.cache.misses").value) == (1, 1)


# ----------------------------------------------------------------- evictions
class TestEvictionAccounting:
    def test_forced_eviction_counted_everywhere(self, tmp_path):
        cache = PointCache(tmp_path / "cache")
        SweepExecutor(cache=cache).run(TASKS)
        _corrupt(cache, TASKS[0])
        reg = MetricsRegistry()
        ex = SweepExecutor(cache=cache, metrics=reg)
        ex.run(TASKS)
        # The corrupt record was a miss (recomputed), the good one a hit.
        assert ex.stats.hits == 1
        assert ex.stats.misses == 1
        assert ex.stats.evictions == 1
        assert cache.evictions == 1
        assert reg.counter("executor.cache.evictions").value == 1
        assert ex.stats.to_dict()["evictions"] == 1
        # The eviction recomputed and rewrote the record: clean next time.
        ex2 = SweepExecutor(cache=cache)
        ex2.run(TASKS)
        assert ex2.stats.hits == 2
        assert ex2.stats.evictions == 0

    def test_multiple_evictions_accumulate(self, tmp_path):
        cache = PointCache(tmp_path / "cache")
        SweepExecutor(cache=cache).run(TASKS)
        for task in TASKS:
            _corrupt(cache, task)
        reg = MetricsRegistry()
        ex = SweepExecutor(cache=cache, metrics=reg)
        ex.run(TASKS)
        assert ex.stats.evictions == len(TASKS)
        assert reg.counter("executor.cache.evictions").value == len(TASKS)

    def test_eviction_base_is_per_executor(self, tmp_path):
        """A pre-used cache's lifetime evictions don't leak into a new
        executor's stats."""
        cache = PointCache(tmp_path / "cache")
        SweepExecutor(cache=cache).run(TASKS)
        _corrupt(cache, TASKS[0])
        ex1 = SweepExecutor(cache=cache)
        ex1.run(TASKS)
        assert ex1.stats.evictions == 1
        assert cache.evictions == 1
        # Fresh executor on the same (now healthy) cache: zero evictions.
        ex2 = SweepExecutor(cache=cache)
        ex2.run(TASKS)
        assert ex2.stats.evictions == 0
        assert cache.evictions == 1  # cache lifetime count unchanged

    def test_wrong_shape_record_evicted_and_counted(self, tmp_path):
        cache = PointCache(tmp_path / "cache")
        SweepExecutor(cache=cache).run(TASKS[:1])
        path = cache._path(task_key(TASKS[0]))
        path.write_text(json.dumps({"kind": "polling", "point": {"bogus": 1}}))
        assert cache.get(task_key(TASKS[0]), "polling") is None
        assert cache.evictions == 1
        assert not path.exists()


# ------------------------------------------------------------- sim profiling
class TestSimulationProfiling:
    def test_batch_and_task_wall_metrics(self):
        reg = MetricsRegistry()
        SweepExecutor(metrics=reg).run(TASKS)
        assert reg.counter("executor.batches").value == 1
        assert reg.counter("executor.points_simulated").value == len(TASKS)
        assert reg.counter("executor.simulate_wall_s").value > 0
        hist = reg.histogram("executor.task_wall_s")
        assert hist.count == len(TASKS)
        assert hist.total > 0

    def test_fanout_utilization_serial(self):
        reg = MetricsRegistry()
        SweepExecutor(metrics=reg).run(TASKS)
        util = reg.gauge("executor.fanout_utilization").value
        # Serial: busy time ~= batch wall time (one slot, no dispatch gap).
        assert 0.0 < util <= 1.0

    def test_fanout_utilization_pooled(self):
        reg = MetricsRegistry()
        with SweepExecutor(jobs=2, metrics=reg) as ex:
            ex.run(TASKS)
        util = reg.gauge("executor.fanout_utilization").value
        # Pool spin-up makes the batch wall long relative to busy time;
        # the gauge just has to be a sane fraction of slot capacity.
        assert 0.0 < util <= 1.0
        assert reg.counter("executor.points_simulated").value == len(TASKS)

    def test_cached_second_run_simulates_nothing(self):
        reg = MetricsRegistry()
        ex = SweepExecutor(metrics=reg)
        ex.run(TASKS)
        ex.run(TASKS)
        # One batch only: the second run was all hits.
        assert reg.counter("executor.batches").value == 1
        assert reg.counter("executor.points_simulated").value == len(TASKS)


# -------------------------------------------------------------- bit-identity
class TestProfiledBitIdentity:
    def test_profiled_run_bit_identical_to_plain(self):
        plain = SweepExecutor().run(TASKS)
        profiled = SweepExecutor(metrics=MetricsRegistry()).run(TASKS)
        assert plain == profiled

    def test_profiled_checked_pooled_bit_identical(self):
        plain = SweepExecutor().run(TASKS)
        with SweepExecutor(jobs=2, check=True,
                           metrics=MetricsRegistry()) as ex:
            fancy = ex.run(TASKS)
        assert plain == fancy
        assert ex.violations == []

    def test_unprofiled_executor_has_no_metrics(self):
        ex = SweepExecutor()
        ex.run(TASKS)
        assert ex.metrics is None
        assert ex.stats.misses == len(TASKS)


# ------------------------------------------------------------------ snapshot
class TestSnapshotIntegration:
    def test_registry_snapshot_serializes(self):
        reg = MetricsRegistry()
        SweepExecutor(metrics=reg).run(TASKS)
        doc = json.loads(json.dumps(reg.to_dict()))
        assert doc["counters"]["executor.points_simulated"] == len(TASKS)
        assert "executor.task_wall_s" in doc["histograms"]
        assert "executor.fanout_utilization" in doc["gauges"]
