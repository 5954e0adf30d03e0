"""Unit tests: the Pipe capacity primitive."""

import pytest

from repro.sim import Engine, Pipe


@pytest.fixture
def engine():
    return Engine()


def _ignore(_arg):
    pass


class TestPipe:
    def test_occupancy_math(self, engine):
        pipe = Pipe(engine, bandwidth_Bps=1000.0, setup_s=0.5)
        assert pipe.occupancy_time(1000) == pytest.approx(1.5)

    def test_serialization(self, engine):
        pipe = Pipe(engine, bandwidth_Bps=100.0)
        delivered = []
        for i in range(3):
            pipe.transfer_then(
                100, lambda arg: delivered.append((engine.now, arg)), i
            )
        engine.run()
        assert delivered == [(1.0, 0), (2.0, 1), (3.0, 2)]

    def test_latency_is_pipelined(self, engine):
        pipe = Pipe(engine, bandwidth_Bps=100.0, latency_s=10.0)
        delivered = []
        for _ in range(2):
            pipe.transfer_then(100, lambda _arg: delivered.append(engine.now))
        engine.run()
        # Occupancy 1s each, latency 10s added after exit, not serialized.
        assert delivered == [11.0, 12.0]

    def test_idle_gap_resets_busy(self, engine):
        pipe = Pipe(engine, bandwidth_Bps=100.0)
        pipe.transfer_then(100, _ignore)
        engine.run()
        assert engine.now == 1.0
        engine.timeout(5.0)
        engine.run()
        pipe.transfer_then(100, _ignore)
        engine.run()
        assert engine.now == 7.0  # started at 6.0, not back-to-back

    def test_counters(self, engine):
        pipe = Pipe(engine, bandwidth_Bps=100.0)
        pipe.transfer_then(30, _ignore)
        pipe.transfer_then(70, _ignore)
        assert pipe.total_bytes == 100
        assert pipe.total_items == 2

    def test_validation(self, engine):
        with pytest.raises(ValueError):
            Pipe(engine, bandwidth_Bps=0.0)
        pipe = Pipe(engine, bandwidth_Bps=10.0)
        with pytest.raises(ValueError):
            pipe.transfer_then(-1, _ignore)
