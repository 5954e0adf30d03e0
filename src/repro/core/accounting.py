"""Process-local simulation cost accounting.

The engine counts every heap event it dispatches
(:attr:`repro.sim.engine.Engine.events_processed`) — the cost model of
the simulator itself, and the number the NIC fast pump exists to
shrink.  Each engine dies with its world, so the method runners deposit
their final counts here; the sweep executor drains the tally into the
metrics registry (``sim.events_processed``) and ``BENCH_<n>.json``
records it per trajectory point.

The tally is process-local by design: points simulated in pool workers
tally in *their* processes and are not shipped back.  Serial runs (the
bench default) therefore account for every point; pooled runs account
for the in-process remainder — the same caveat the observer's sim
metrics carry.
"""

from __future__ import annotations

_events_processed = 0


def tally_events(n: int) -> None:
    """Add one finished engine's dispatched-event count to the tally."""
    global _events_processed
    # Process-local by design (see module docstring): pooled workers tally
    # in their own processes and the counts are knowingly not shipped back.
    _events_processed += n  # comb-lint: disable=EXEC001


def drain_events() -> int:
    """Return the tally accumulated since the last drain, and reset it."""
    global _events_processed
    n = _events_processed
    _events_processed = 0
    return n
