"""Tests: the fast transmit pump against the legacy per-packet loop.

Two-node clusters with no tracer arm the NICs' fast transmit pump
(:meth:`repro.hardware.nic.NIC.enable_fast`): every fragment's credit
grant, NIC-processing and switch-latency steps fold into one wire
reservation made at its exact future instant.  The pump is an
*optimization with a bit-identity contract*: every measurement must
equal the legacy per-packet loop exactly, for every fragmentation shape.

Equivalence checks compare bare (fast pump) runs against traced
(legacy) runs bit for bit; the event-count checks assert that the bare
run dispatches strictly fewer heap events for the same measurement.
"""

import dataclasses

import pytest

from repro.config import FaultConfig, gm_system, portals_system
from repro.core import PollingConfig, PwwConfig, run_polling, run_pww
from repro.core.accounting import drain_events
from repro.mpi import build_world
from repro.obs import Observer
from repro.obs.context import use_observer

KB = 1024
MTU = gm_system().machine.nic.mtu_bytes


def _traced(fn, system, cfg):
    """Run a point with the observer attached: the NICs keep the legacy
    per-packet path (enable_fast refuses when a tracer is present)."""
    with use_observer(Observer()):
        return fn(system, cfg)


# ---------------------------------------------------------------- structure
class TestBatchingDecision:
    """Which clusters arm the fast pump."""

    def test_traced_cluster_keeps_legacy_path(self):
        with use_observer(Observer()):
            world = build_world(gm_system())
        assert not world.cluster[0].nic._fast


# -------------------------------------------------------------- equivalence
#: Fragmentation edge shapes: below one MTU, exactly one MTU, an exact
#: multiple, one byte past a boundary, and a deep multi-fragment message.
EDGE_SIZES = [KB, MTU, 2 * MTU, 2 * MTU + 1, 25 * MTU]


@pytest.mark.parametrize("factory", [gm_system, portals_system],
                         ids=["gm", "portals"])
@pytest.mark.parametrize("msg_bytes", EDGE_SIZES)
def test_polling_bare_equals_traced(factory, msg_bytes):
    cfg = PollingConfig(msg_bytes=msg_bytes, poll_interval_iters=2_000,
                        measure_s=0.008, warmup_s=0.002, min_cycles=2)
    bare = run_polling(factory(), cfg)
    traced = _traced(run_polling, factory(), cfg)
    assert bare == traced


@pytest.mark.parametrize("factory", [gm_system, portals_system],
                         ids=["gm", "portals"])
@pytest.mark.parametrize("msg_bytes", EDGE_SIZES)
def test_pww_bare_equals_traced(factory, msg_bytes):
    cfg = PwwConfig(msg_bytes=msg_bytes, work_interval_iters=50_000,
                    batches=4, warmup_batches=1)
    bare = run_pww(factory(), cfg)
    traced = _traced(run_pww, factory(), cfg)
    assert bare == traced


@pytest.mark.parametrize("factory", [gm_system, portals_system],
                         ids=["gm", "portals"])
def test_lossy_run_bare_equals_traced(factory):
    """With loss on the wire both modes take the per-packet path — and
    must still agree bit for bit (same RNG streams, same retransmits)."""
    base = factory()
    system = dataclasses.replace(
        base, machine=dataclasses.replace(
            base.machine, fault=FaultConfig(data_loss_rate=0.02)
        )
    )
    cfg = PwwConfig(msg_bytes=3 * MTU, work_interval_iters=50_000,
                    batches=3, warmup_batches=1)
    bare = run_pww(system, cfg)
    traced = _traced(run_pww, system, cfg)
    assert bare == traced


# -------------------------------------------------------------- event count
class TestEventCounts:
    def _count(self, fn, system, cfg, traced):
        drain_events()  # isolate from any earlier runs in the process
        if traced:
            pt = _traced(fn, system, cfg)
        else:
            pt = fn(system, cfg)
        return pt, drain_events()

    def test_large_message_point_drops_10x_gm(self):
        """On a large-message OS-bypass sweep point the fast paths
        dispatch strictly fewer heap events than the legacy path, while
        producing the identical measurement."""
        cfg = PollingConfig(msg_bytes=500 * KB, poll_interval_iters=100_000,
                            measure_s=0.02, warmup_s=0.004)
        bare, n_bare = self._count(run_polling, gm_system(), cfg,
                                   traced=False)
        traced, n_traced = self._count(run_polling, gm_system(), cfg,
                                       traced=True)
        assert bare == traced
        assert 0 < n_bare < n_traced, (n_traced, n_bare)

    def test_large_message_point_improves_portals(self):
        """Portals' kernel transport tracks every fragment for go-back-N
        reliability, so DATA jobs cannot burst — but the quiescence
        fast-forward still has to cut the event count strictly."""
        cfg = PollingConfig(msg_bytes=500 * KB, poll_interval_iters=100_000,
                            measure_s=0.02, warmup_s=0.004)
        bare, n_bare = self._count(run_polling, portals_system(), cfg,
                                   traced=False)
        traced, n_traced = self._count(run_polling, portals_system(), cfg,
                                       traced=True)
        assert bare == traced
        assert 0 < n_bare < n_traced, (n_traced, n_bare)

    def test_runners_deposit_counts(self):
        cfg = PwwConfig(msg_bytes=64 * KB, work_interval_iters=50_000,
                        batches=3, warmup_batches=1)
        drain_events()
        run_pww(gm_system(), cfg)
        assert drain_events() > 0
        # Drained: a second drain reports nothing.
        assert drain_events() == 0
