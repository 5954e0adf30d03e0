"""Differential tests: the topology generalization must not move a bit.

The N-rank topology layer replaced the hard-coded two-node wiring, so
every pre-existing measurement taken through it is re-run here and pinned
bit-identical against (a) the default build path and (b) the recorded
golden values from the original two-node implementation.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.baselines import run_pingpong
from repro.core import PollingConfig
from repro.hardware.topology import Crossbar
from repro.patterns.fanin import run_fanin_polling

KB = 1024
GOLDEN = json.loads(
    (Path(__file__).parent / "golden_values.json").read_text()
)

FANIN_CFG = PollingConfig(msg_bytes=100 * KB, poll_interval_iters=1_000,
                          measure_s=0.02, warmup_s=0.004)


class TestPingpongDifferential:
    @pytest.mark.parametrize("preset", ["GM", "Portals"])
    def test_explicit_crossbar_is_bit_identical_to_default(self, preset):
        from repro.config import get_system

        system = get_system(preset)
        default = run_pingpong(system, 100 * KB)
        explicit = run_pingpong(system, 100 * KB, topology=Crossbar())
        assert explicit == default

    @pytest.mark.parametrize("preset", ["GM", "Portals"])
    def test_crossbar_pingpong_matches_golden(self, preset):
        from repro.config import get_system

        # repeats/warmup match the golden recording (see scripts/record).
        pt = run_pingpong(get_system(preset), 100 * KB, repeats=5,
                          warmup_msgs=1, topology=Crossbar())
        assert pt.latency_s == GOLDEN[f"{preset}.pingpong.100KB"]["latency_s"]


class TestFanInDifferential:
    def test_explicit_crossbar_matches_default(self, gm):
        default = run_fanin_polling(gm, FANIN_CFG, n_peers=3)
        explicit = run_fanin_polling(gm, FANIN_CFG, n_peers=3,
                                     topology=Crossbar())
        assert explicit == default


class TestTwoRankPatternDifferential:
    def test_two_rank_halo_identical_across_topology_objects(self, gm):
        # A 2-rank halo on the default crossbar must match a fresh run:
        # the N-rank pattern path shares the fast-pump arming logic
        # with the original two-node wiring, and any divergence between
        # builds would show up as a bitwise difference here.
        from repro.patterns import PatternConfig, run_pattern

        cfg = PatternConfig(pattern="halo2d", ranks=2, msg_bytes=100 * KB,
                            work_interval_iters=100_000, iterations=4,
                            warmup_iterations=1)
        assert run_pattern(gm, cfg) == run_pattern(gm, cfg)
