"""Tests: the post-work-wait method driver (COMB §2.2)."""

import pytest

from repro.core.pww import PwwConfig, run_pww

KB = 1024

FAST = dict(batches=6, warmup_batches=2)


class TestValidation:
    def test_negative_work_rejected(self, gm):
        with pytest.raises(ValueError):
            run_pww(gm, PwwConfig(work_interval_iters=-1))

    def test_bad_batch_params_rejected(self, gm):
        with pytest.raises(ValueError):
            run_pww(gm, PwwConfig(batch_msgs=0))
        with pytest.raises(ValueError):
            run_pww(gm, PwwConfig(batches=0))
        with pytest.raises(ValueError):
            run_pww(gm, PwwConfig(test_at_frac=1.5))


class TestPhases:
    def test_phase_durations_positive_and_sum(self, either_system):
        pt = run_pww(either_system, PwwConfig(
            msg_bytes=100 * KB, work_interval_iters=100_000, **FAST,
        ))
        assert pt.post_s > 0
        assert pt.work_s > 0
        assert pt.wait_s >= 0
        cycle = pt.post_s + pt.work_s + pt.wait_s
        assert cycle * pt.batches == pytest.approx(pt.elapsed_s, rel=1e-6)

    def test_work_never_shorter_than_dry(self, either_system):
        pt = run_pww(either_system, PwwConfig(
            msg_bytes=100 * KB, work_interval_iters=200_000, **FAST,
        ))
        assert pt.work_s >= pt.work_dry_s - 1e-12

    def test_gm_work_exactly_dry(self, gm):
        """Fig 13: GM steals no cycles during the (blocked) work phase."""
        pt = run_pww(gm, PwwConfig(
            msg_bytes=100 * KB, work_interval_iters=200_000, **FAST,
        ))
        assert pt.work_s == pytest.approx(pt.work_dry_s)
        assert pt.overhead_s == pytest.approx(0.0, abs=1e-9)

    def test_portals_work_stretched(self, portals):
        """Fig 12: interrupts stretch the Portals work phase."""
        pt = run_pww(portals, PwwConfig(
            msg_bytes=100 * KB, work_interval_iters=200_000, **FAST,
        ))
        assert pt.overhead_s > 300e-6

    def test_zero_work_interval(self, either_system):
        pt = run_pww(either_system, PwwConfig(
            msg_bytes=100 * KB, work_interval_iters=0, **FAST,
        ))
        assert pt.work_dry_s == 0.0
        assert pt.bandwidth_Bps > 0

    def test_batch_records_available(self, gm):
        pt = run_pww(gm, PwwConfig(
            msg_bytes=100 * KB, work_interval_iters=100_000, **FAST,
        ))
        # Only the measured batch records (warmup dropped) feed the point.
        assert pt.batches == FAST["batches"]
        assert pt.post_s > 0


class TestOffloadSignature:
    def test_gm_wait_constant_with_work(self, gm):
        """Fig 11: GM's wait does not shrink as work grows — no offload."""
        short = run_pww(gm, PwwConfig(
            msg_bytes=100 * KB, work_interval_iters=10_000, **FAST,
        ))
        long = run_pww(gm, PwwConfig(
            msg_bytes=100 * KB, work_interval_iters=5_000_000, **FAST,
        ))
        assert long.wait_s == pytest.approx(short.wait_s, rel=0.15)
        assert long.wait_s > 1e-3

    def test_portals_wait_drains_with_work(self, portals):
        """Fig 11: Portals completes messaging inside a long work phase."""
        short = run_pww(portals, PwwConfig(
            msg_bytes=100 * KB, work_interval_iters=10_000, **FAST,
        ))
        long = run_pww(portals, PwwConfig(
            msg_bytes=100 * KB, work_interval_iters=5_000_000, **FAST,
        ))
        assert short.wait_s > 1e-3
        assert long.wait_s < 1e-4

    def test_post_cost_ranking(self, gm, portals):
        """Fig 10: Portals posts (kernel traps) cost far more than GM's."""
        g = run_pww(gm, PwwConfig(
            msg_bytes=100 * KB, work_interval_iters=100_000, **FAST,
        ))
        p = run_pww(portals, PwwConfig(
            msg_bytes=100 * KB, work_interval_iters=100_000, **FAST,
        ))
        assert p.post_s > 5 * g.post_s


class TestVariants:
    def test_single_test_restores_gm_overlap(self, gm):
        """Fig 17: one MPI_Test early in the work phase lets GM launch the
        rendezvous transfer, collapsing the wait at long work intervals."""
        plain = run_pww(gm, PwwConfig(
            msg_bytes=100 * KB, work_interval_iters=5_000_000, **FAST,
        ))
        tested = run_pww(gm, PwwConfig(
            msg_bytes=100 * KB, work_interval_iters=5_000_000,
            tests_in_work=1, **FAST,
        ))
        assert tested.wait_s < 0.3 * plain.wait_s
        assert tested.bandwidth_Bps > plain.bandwidth_Bps

    def test_test_variant_noop_for_offloaded(self, portals):
        """For Portals the inserted test changes nothing material."""
        plain = run_pww(portals, PwwConfig(
            msg_bytes=100 * KB, work_interval_iters=5_000_000, **FAST,
        ))
        tested = run_pww(portals, PwwConfig(
            msg_bytes=100 * KB, work_interval_iters=5_000_000,
            tests_in_work=1, **FAST,
        ))
        assert tested.wait_s == pytest.approx(plain.wait_s, abs=100e-6)

    def test_interleaved_batches_variant(self, gm):
        """§4.3's legacy formulation keeps multiple batches in flight and
        (for GM) sustains more bandwidth at the same work interval."""
        plain = run_pww(gm, PwwConfig(
            msg_bytes=100 * KB, work_interval_iters=500_000, **FAST,
        ))
        interleaved = run_pww(gm, PwwConfig(
            msg_bytes=100 * KB, work_interval_iters=500_000, interleave=3,
            **FAST,
        ))
        assert interleaved.bandwidth_Bps > plain.bandwidth_Bps

    def test_multi_message_batches(self, either_system):
        pt = run_pww(either_system, PwwConfig(
            msg_bytes=50 * KB, work_interval_iters=100_000, batch_msgs=3,
            **FAST,
        ))
        assert pt.batch_msgs == 3
        assert pt.post_per_msg_s == pytest.approx(pt.post_s / 6)


class TestDeterminism:
    def test_identical_runs_identical_results(self, gm):
        cfg = PwwConfig(msg_bytes=100 * KB, work_interval_iters=123_456,
                        **FAST)
        assert run_pww(gm, cfg).to_dict() == run_pww(gm, cfg).to_dict()
