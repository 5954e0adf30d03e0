"""Tests: the sweep execution layer (pool parity, point cache, memo).

The executor's contract is that *every* configuration — serial, pooled,
cached, memoized — produces bit-identical results.  These tests enforce
that contract, reusing the canonical configurations behind
``tests/golden_values.json`` so the cached path is pinned to the same
values the golden regression pins the direct path to.
"""

import dataclasses
import json
import signal
from pathlib import Path

import pytest

from repro.cli import main
from repro.config import gm_system, portals_system
from repro.core import (
    PointCache,
    PointTask,
    PollingConfig,
    PwwConfig,
    SweepExecutor,
    current_executor,
    default_executor,
    polling_sweep,
    pww_sweep,
    run_task,
    task_key,
    use_executor,
)
from repro.core.executor import code_salt

KB = 1024
GOLDEN_PATH = Path(__file__).parent / "golden_values.json"

#: Coarse-but-real sweep settings shared by the parity tests.
POLL_BASE = PollingConfig(measure_s=0.005, warmup_s=0.002, min_cycles=2)
PWW_BASE = PwwConfig(batches=3, warmup_batches=1)
GRID = [1_000, 100_000, 10_000_000]


def _poll(executor=None):
    return polling_sweep(gm_system(), 50 * KB, GRID, base=POLL_BASE,
                         executor=executor)


def _pww(executor=None):
    return pww_sweep(portals_system(), 50 * KB, GRID, base=PWW_BASE,
                     executor=executor)


# ------------------------------------------------------------------ task keys
class TestTaskKey:
    def test_stable_across_calls(self):
        t = PointTask("polling", gm_system(), POLL_BASE)
        assert task_key(t) == task_key(t)

    def test_differs_on_method_config_field(self):
        a = PointTask("polling", gm_system(), POLL_BASE)
        b = PointTask("polling", gm_system(),
                      dataclasses.replace(POLL_BASE, queue_depth=2))
        assert task_key(a) != task_key(b)

    def test_differs_on_system_field(self):
        sys_a = gm_system()
        sys_b = gm_system(seed=1)
        cfg = POLL_BASE
        assert (task_key(PointTask("polling", sys_a, cfg))
                != task_key(PointTask("polling", sys_b, cfg)))

    def test_differs_on_nested_machine_field(self):
        sys_a = gm_system()
        machine = dataclasses.replace(
            sys_a.machine,
            cpu=dataclasses.replace(sys_a.machine.cpu, cycles_per_work_iter=3.0),
        )
        sys_b = sys_a.replaced(machine=machine)
        cfg = POLL_BASE
        assert (task_key(PointTask("polling", sys_a, cfg))
                != task_key(PointTask("polling", sys_b, cfg)))

    def test_differs_on_kind(self):
        cfg_p = PollingConfig(msg_bytes=50 * KB)
        cfg_w = PwwConfig(msg_bytes=50 * KB)
        assert (task_key(PointTask("polling", gm_system(), cfg_p))
                != task_key(PointTask("pww", gm_system(), cfg_w)))

    def test_differs_on_salt(self):
        t = PointTask("polling", gm_system(), POLL_BASE)
        assert task_key(t, salt="a") != task_key(t, salt="b")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            PointTask("bogus", gm_system(), POLL_BASE)

    def test_code_salt_is_stable_in_process(self):
        assert code_salt() == code_salt()

    def test_code_salt_covers_the_c_kernel(self):
        # The C kernel replicates the DES kernel: an edit to it can change
        # every point, so it must change every cache key too.
        import repro
        from repro.core.executor import salt_files

        root = Path(repro.__file__).resolve().parent
        assert root / "_simcore.c" in salt_files()
        assert root / "sim" / "engine.py" in salt_files()


# ----------------------------------------------------------------- pool parity
class TestPoolParity:
    def test_jobs1_vs_jobs4_polling_and_pww(self):
        """The ISSUE's headline guarantee: pool output == serial output."""
        serial_poll = _poll(SweepExecutor(jobs=1))
        serial_pww = _pww(SweepExecutor(jobs=1))
        with SweepExecutor(jobs=4) as pool_ex:
            pool_poll = _poll(pool_ex)
            pool_pww = _pww(pool_ex)
        assert serial_poll.points == pool_poll.points
        assert serial_pww.points == pool_pww.points

    def test_pool_preserves_task_order(self):
        with SweepExecutor(jobs=2) as ex:
            series = _poll(ex)
        assert series.xs("poll_interval_iters") == GRID

    def test_close_lets_workers_exit_cleanly(self):
        """A normal shutdown does not kill the workers, so each can flush
        its telemetry queue before it exits."""
        with SweepExecutor(jobs=2) as ex:
            _poll(ex)
            workers = list(ex._pool._pool)
        assert [w.exitcode for w in workers] == [0, 0]

    def test_error_exit_terminates_workers(self):
        """On an error the pool is killed, not waited out."""
        with pytest.raises(RuntimeError):
            with SweepExecutor(jobs=2) as ex:
                _poll(ex)
                workers = list(ex._pool._pool)
                raise RuntimeError("interrupted")
        assert [w.exitcode for w in workers] == [-signal.SIGTERM] * 2

    def test_jobs_validation(self):
        with pytest.raises(ValueError):
            SweepExecutor(jobs=0)


# ----------------------------------------------------------------- point cache
class TestPointCache:
    def test_cached_vs_uncached_identical(self, tmp_path):
        plain = _poll(None)
        ex1 = SweepExecutor(jobs=1, cache=PointCache(tmp_path))
        first = _poll(ex1)
        assert ex1.stats.misses == len(GRID) and ex1.stats.hits == 0
        # Fresh executor, warm disk cache: no simulation at all.
        ex2 = SweepExecutor(jobs=1, cache=PointCache(tmp_path))
        second = _poll(ex2)
        assert ex2.stats.hits == len(GRID) and ex2.stats.misses == 0
        assert plain.points == first.points == second.points

    def test_pww_round_trip_bit_exact(self, tmp_path):
        plain = _pww(None)
        _pww(SweepExecutor(jobs=1, cache=PointCache(tmp_path)))
        warm = _pww(SweepExecutor(jobs=1, cache=PointCache(tmp_path)))
        assert plain.points == warm.points

    def test_config_change_invalidates(self, tmp_path):
        ex = SweepExecutor(jobs=1, cache=PointCache(tmp_path))
        _poll(ex)
        assert ex.stats.misses == len(GRID)
        # Same grid, different queue depth: every point is a fresh miss.
        other = dataclasses.replace(POLL_BASE, queue_depth=2)
        polling_sweep(gm_system(), 50 * KB, GRID, base=other, executor=ex)
        assert ex.stats.misses == 2 * len(GRID)

    def test_system_change_invalidates(self, tmp_path):
        ex = SweepExecutor(jobs=1, cache=PointCache(tmp_path))
        _poll(ex)
        polling_sweep(gm_system(seed=7), 50 * KB, GRID, base=POLL_BASE,
                      executor=ex)
        assert ex.stats.misses == 2 * len(GRID)
        assert ex.stats.hits == 0

    def test_kind_cross_contamination_impossible(self, tmp_path):
        cache = PointCache(tmp_path)
        ex = SweepExecutor(jobs=1, cache=cache)
        series = _poll(ex)
        key = task_key(PointTask("polling", gm_system(),
                                 dataclasses.replace(
                                     POLL_BASE, msg_bytes=50 * KB,
                                     poll_interval_iters=GRID[0])))
        assert cache.get(key, "polling") == series.points[0]
        assert cache.get(key, "pww") is None

    def test_corrupt_record_is_a_miss(self, tmp_path):
        cache = PointCache(tmp_path)
        ex = SweepExecutor(jobs=1, cache=cache)
        _poll(ex)
        for f in Path(tmp_path).rglob("*.json"):
            f.write_text("{not json")
        ex2 = SweepExecutor(jobs=1, cache=PointCache(tmp_path))
        again = _poll(ex2)
        assert ex2.stats.misses == len(GRID)
        assert again.points == _poll(None).points

    @pytest.mark.parametrize("garbage", [
        "",                                  # zero-length (crashed writer)
        '{"kind": "polling", "point": {',    # truncated mid-record
        "[1, 2, 3]",                         # valid JSON, wrong shape
        '{"kind": "polling"}',               # record missing its point
        '{"kind": "polling", "point": {"bogus_field": 1}}',
        "\x00\x01\x02 binary trash",
    ])
    def test_garbage_record_evicted_then_recomputed(self, tmp_path, garbage):
        """A bad cache file costs one recompute, then heals itself."""
        cache = PointCache(tmp_path)
        _poll(SweepExecutor(jobs=1, cache=cache))
        files = sorted(Path(tmp_path).rglob("*.json"))
        assert len(files) == len(GRID)
        victim = files[0]
        victim.write_text(garbage)
        ex = SweepExecutor(jobs=1, cache=PointCache(tmp_path))
        again = _poll(ex)
        # Exactly the corrupted record misses; the rest still hit.
        assert ex.stats.misses == 1 and ex.stats.hits == len(GRID) - 1
        assert again.points == _poll(None).points
        # The garbage was evicted and the slot rewritten with a good record.
        rewritten = json.loads(victim.read_text())
        assert rewritten["kind"] == "polling"
        ex3 = SweepExecutor(jobs=1, cache=PointCache(tmp_path))
        _poll(ex3)
        assert ex3.stats.misses == 0

    def test_wrong_kind_record_not_evicted(self, tmp_path):
        """A kind mismatch is a miss but NOT corruption: the record is
        intact and must survive for its own kind's lookups."""
        cache = PointCache(tmp_path)
        ex = SweepExecutor(jobs=1, cache=cache)
        series = _poll(ex)
        key = task_key(PointTask("polling", gm_system(),
                                 dataclasses.replace(
                                     POLL_BASE, msg_bytes=50 * KB,
                                     poll_interval_iters=GRID[0])))
        assert cache.get(key, "pww") is None
        assert cache.get(key, "polling") == series.points[0]

    def test_len_and_clear(self, tmp_path):
        cache = PointCache(tmp_path)
        assert len(cache) == 0
        _poll(SweepExecutor(jobs=1, cache=cache))
        assert len(cache) == len(GRID)
        assert cache.clear() == len(GRID)
        assert len(cache) == 0


# --------------------------------------------------------------- golden values
class TestGoldenThroughExecutor:
    """The cached/executor path reproduces the golden regression values."""

    @pytest.fixture(scope="class")
    def golden(self):
        return json.loads(GOLDEN_PATH.read_text())

    def test_polling_golden_via_cache_round_trip(self, tmp_path_factory, golden):
        tmp = tmp_path_factory.mktemp("cache")
        cfg = PollingConfig(msg_bytes=100 * KB, poll_interval_iters=1_000,
                            measure_s=0.02, warmup_s=0.004)
        for name, factory in (("GM", gm_system), ("Portals", portals_system)):
            task = PointTask("polling", factory(), cfg)
            SweepExecutor(jobs=1, cache=PointCache(tmp)).run_one(task)
            warm_ex = SweepExecutor(jobs=1, cache=PointCache(tmp))
            pt = warm_ex.run_one(task)
            assert warm_ex.stats.hits == 1, "expected a disk hit"
            want = golden[f"{name}.polling.100KB.1e3"]
            assert pt.availability == want["availability"]
            assert pt.bandwidth_Bps == want["bandwidth_Bps"]
            assert pt.msgs == want["msgs"]
            assert pt.interrupts == want["interrupts"]

    def test_pww_golden_via_cache_round_trip(self, tmp_path_factory, golden):
        tmp = tmp_path_factory.mktemp("cache")
        cfg = PwwConfig(msg_bytes=100 * KB, work_interval_iters=100_000,
                        batches=6, warmup_batches=2)
        for name, factory in (("GM", gm_system), ("Portals", portals_system)):
            task = PointTask("pww", factory(), cfg)
            SweepExecutor(jobs=1, cache=PointCache(tmp)).run_one(task)
            warm_ex = SweepExecutor(jobs=1, cache=PointCache(tmp))
            pt = warm_ex.run_one(task)
            assert warm_ex.stats.hits == 1, "expected a disk hit"
            want = golden[f"{name}.pww.100KB.1e5"]
            assert pt.availability == want["availability"]
            assert pt.bandwidth_Bps == want["bandwidth_Bps"]
            assert (pt.post_s, pt.work_s, pt.wait_s) == (
                want["post_s"], want["work_s"], want["wait_s"])


# ------------------------------------------------------------------------ memo
class TestMemo:
    def test_intra_run_dedup(self):
        ex = SweepExecutor(jobs=1)
        _poll(ex)
        assert ex.stats.misses == len(GRID)
        _poll(ex)
        assert ex.stats.hits == len(GRID)

    def test_duplicate_tasks_in_one_batch_simulated_once(self):
        cfg = dataclasses.replace(POLL_BASE, msg_bytes=50 * KB,
                                  poll_interval_iters=1_000)
        tasks = [PointTask("polling", gm_system(), cfg)] * 3
        ex = SweepExecutor(jobs=1)
        points = ex.run(tasks)
        assert ex.stats.misses == 1
        assert points[0] == points[1] == points[2]
        # Copies, not aliases: mutating one must not leak into the others.
        assert points[0] is not points[1]

    def test_hits_return_copies(self):
        ex = SweepExecutor(jobs=1)
        a = _poll(ex).points[0]
        b = _poll(ex).points[0]
        assert a == b and a is not b


# ----------------------------------------------------------------- resolution
class TestExecutorResolution:
    def test_default_is_serial_singleton(self):
        assert current_executor() is default_executor()
        assert default_executor().jobs == 1

    def test_explicit_wins(self):
        ex = SweepExecutor(jobs=1)
        assert current_executor(ex) is ex

    def test_ambient_context(self):
        ex = SweepExecutor(jobs=1)
        with use_executor(ex):
            assert current_executor() is ex
        assert current_executor() is not ex

    def test_use_executor_accepts_none(self):
        with use_executor(None):
            assert current_executor() is default_executor()

    def test_run_task_direct(self):
        cfg = dataclasses.replace(POLL_BASE, poll_interval_iters=1_000)
        pt = run_task(PointTask("polling", gm_system(), cfg))
        assert pt.bandwidth_Bps > 0


# ------------------------------------------------------------------------- CLI
class TestCliFlags:
    def test_figures_with_cache_and_jobs(self, capsys, tmp_path):
        rc = main(["figures", "--ids", "fig13", "--per-decade", "1",
                   "--no-plots", "--jobs", "2",
                   "--cache-dir", str(tmp_path / "cache")])
        assert rc == 0
        assert (tmp_path / "cache").is_dir(), "cache dir should be populated"
        # Second run hits the disk cache and must agree claim-for-claim.
        out_first = capsys.readouterr().out
        rc = main(["figures", "--ids", "fig13", "--per-decade", "1",
                   "--no-plots", "--cache-dir", str(tmp_path / "cache")])
        assert rc == 0
        assert capsys.readouterr().out == out_first

    def test_figures_no_cache(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        rc = main(["figures", "--ids", "fig13", "--per-decade", "1",
                   "--no-plots", "--no-cache"])
        assert rc == 0
        assert not (tmp_path / ".comb_cache").exists()

    def test_figures_check_flag_clean(self, capsys, tmp_path):
        rc = main(["figures", "--ids", "fig13", "--per-decade", "1",
                   "--no-plots", "--no-cache", "--check",
                   "--cache-dir", str(tmp_path / "unused")])
        assert rc == 0
        assert "0 violations" in capsys.readouterr().out

    def test_polling_check_flag_clean(self, capsys):
        rc = main(["polling", "--system", "GM", "--size", "50",
                   "--interval", "1000", "--check"])
        assert rc == 0
        assert "0 violations" in capsys.readouterr().out
