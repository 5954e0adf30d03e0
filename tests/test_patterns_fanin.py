"""Tests: multi-peer fan-in polling (``repro.patterns.fanin``)."""

import pytest

from repro.config import gm_system, portals_system
from repro.core import PollingConfig
from repro.patterns.fanin import run_fanin_polling

KB = 1024

# Fan-in needs longer windows: more messages in flight means larger
# window-edge bias at short measures.
CFG = PollingConfig(msg_bytes=100 * KB, poll_interval_iters=1_000,
                    measure_s=0.1, warmup_s=0.02)


class TestValidation:
    def test_zero_peers_rejected(self, gm):
        with pytest.raises(ValueError):
            run_fanin_polling(gm, CFG, 0)

    def test_too_many_peers_rejected(self, gm):
        with pytest.raises(ValueError):
            run_fanin_polling(gm, CFG, 8)  # 8 peers + worker > 8 ports


class TestFanIn:
    def test_single_peer_matches_two_node_comb(self, gm):
        """n_peers=1 must be the ordinary polling method, field for field
        (polls included: fan-in runs the polling driver itself)."""
        from repro.core import run_polling

        fan = run_fanin_polling(gm, CFG, 1)
        assert fan.point == run_polling(gm, CFG)

    def test_multi_peer_counts_polls(self, portals):
        fan = run_fanin_polling(portals, CFG, 3)
        assert fan.point.polls > 0

    def test_gm_stays_bus_bound(self, gm):
        """More peers cannot push GM past the worker's host bus, and the
        worker's availability barely moves (no interrupts)."""
        one = run_fanin_polling(gm, CFG, 1)
        seven = run_fanin_polling(gm, CFG, 7)
        bus = gm.machine.nic.host_dma_bandwidth_Bps
        assert seven.point.bandwidth_Bps <= bus * 1.05
        assert seven.point.availability == pytest.approx(
            one.point.availability, abs=0.05
        )

    def test_portals_worker_cpu_saturates(self, portals):
        """Fan-in drives the kernel share up: availability falls while
        aggregate bandwidth gains little."""
        one = run_fanin_polling(portals, CFG, 1)
        seven = run_fanin_polling(portals, CFG, 7)
        assert seven.point.availability < one.point.availability
        assert seven.point.bandwidth_Bps < 1.6 * one.point.bandwidth_Bps

    def test_per_peer_bandwidth_dilutes(self, portals):
        seven = run_fanin_polling(portals, CFG, 7)
        one = run_fanin_polling(portals, CFG, 1)
        assert seven.per_peer_bandwidth_Bps < 0.5 * one.per_peer_bandwidth_Bps
