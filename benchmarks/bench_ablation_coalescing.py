"""Ablation (DESIGN.md #1): interrupt coalescing on the Portals stack.

Coalescing folds the trap entry/exit of back-to-back interrupts into one.
Because the Portals pipeline is CPU-bound, the saved cycles surface as
*throughput*: bytes moved per CPU-second consumed rises, without touching
the protocol.
"""

from repro.config import portals_system
from repro.core import PollingConfig, run_polling
from repro.ext import coalesced_portals

KB = 1024


def _plateau(system):
    pt = run_polling(system, PollingConfig(
        msg_bytes=100 * KB, poll_interval_iters=1_000, measure_s=0.05,
    ))
    return pt


def _efficiency(pt):
    """Payload bytes per CPU-second taken from the application."""
    return pt.bandwidth_Bps / max(1e-9, 1.0 - pt.availability)


def test_ablation_interrupt_coalescing(benchmark):
    """Coalescing raises throughput per CPU-second consumed."""
    base = _plateau(portals_system())

    coalesced = benchmark.pedantic(
        lambda: _plateau(coalesced_portals()), rounds=1, iterations=1
    )
    print(f"\n  stock    : bw={base.bandwidth_MBps:6.2f} MB/s "
          f"avail={base.availability:.3f} eff={_efficiency(base) / 1e6:.1f}")
    print(f"  coalesced: bw={coalesced.bandwidth_MBps:6.2f} MB/s "
          f"avail={coalesced.availability:.3f} "
          f"eff={_efficiency(coalesced) / 1e6:.1f}")
    assert _efficiency(coalesced) > _efficiency(base) * 1.03
    assert coalesced.bandwidth_MBps > base.bandwidth_MBps
