"""Benchmark workloads and their seeded inputs.

Importable without the simulator on the path: the parent process
(``run.py``) reads the workload table, and only the pass child
(``passrun.py``) imports ``repro``.

Seed 0 is the paper's grid: every figure runs with its default knobs,
and its result records are checked bit for bit against the committed
digests under ``refs/``.  Any other seed keeps the point count and
draws each message size from the three edge sizes (one byte below, at,
one byte above) of the MTU multiple nearest the paper size; the
smallest slot (10 KB in the paper) draws around 16 KB, which is both
an MTU multiple and the eager/rendezvous threshold.  Whether a message
ends in a one-byte fragment, and which protocol it takes, then changes
from seed to seed, while the work per run stays close across seeds.
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

KB = 1024
#: ``NicConfig.mtu_bytes`` and ``MpiConfig.eager_threshold_bytes``
#: defaults the edge sizes straddle.
MTU_BYTES = 4096
EAGER_THRESHOLD_BYTES = 16 * KB
#: ``repro.core.suite.PAPER_SIZES`` and the figures' default ``msg_bytes``.
PAPER_SIZES = (10 * KB, 50 * KB, 100 * KB, 300 * KB)
PAPER_MSG_BYTES = 100 * KB
PER_DECADE = 2

#: workload -> ((figure id, the size knob that figure takes), ...).
#: ``sizes`` figures fan out one curve per message size; ``msg_bytes``
#: figures run one message size.
WORKLOADS: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "paper-portals": (
        ("fig04", "sizes"), ("fig05", "sizes"), ("fig06", "sizes"),
        ("fig07", "sizes"), ("fig12", "msg_bytes"), ("fig15", "sizes"),
    ),
    "paper-gm": (
        ("fig13", "msg_bytes"), ("fig14", "sizes"), ("fig16", "msg_bytes"),
        ("fig17", "msg_bytes"),
    ),
    "scale-patterns": (
        ("scale_halo", "msg_bytes"), ("scale_allreduce", "msg_bytes"),
    ),
}


def _edges(nbytes: int) -> List[int]:
    """One byte either side of, and at, ``nbytes``."""
    return [nbytes - 1, nbytes, nbytes + 1]


def _mtu_edges(nbytes: int) -> List[int]:
    """Edge sizes around the MTU multiple nearest ``nbytes``."""
    return _edges((nbytes + MTU_BYTES // 2) // MTU_BYTES * MTU_BYTES)


def size_knobs(workload: str, seed: int) -> Dict[str, object]:
    """Message-size knobs for ``workload`` at ``seed``.

    Returns ``{}`` at seed 0 (the paper's defaults), otherwise
    ``{"sizes": (4 sizes), "msg_bytes": n}`` drawn from the edge sets.
    The same (workload, seed) always gives the same knobs.
    """
    if workload not in WORKLOADS:
        raise KeyError(f"unknown workload {workload!r}; have {sorted(WORKLOADS)}")
    if seed == 0:
        return {}
    rng = random.Random(f"{workload}:{seed}")
    # The eager threshold is itself an MTU multiple, so the smallest slot
    # straddles both edges at once.
    small = rng.choice(_edges(EAGER_THRESHOLD_BYTES))
    sizes = (small,) + tuple(rng.choice(_mtu_edges(s)) for s in PAPER_SIZES[1:])
    return {"sizes": sizes, "msg_bytes": rng.choice(_mtu_edges(PAPER_MSG_BYTES))}


def figure_calls(workload: str, seed: int) -> List[Tuple[str, Dict[str, object]]]:
    """``[(figure id, run_figure keyword arguments), ...]`` for one pass."""
    knobs = size_knobs(workload, seed)
    return [(fig_id, {knob: knobs[knob]} if knobs else {})
            for fig_id, knob in WORKLOADS[workload]]
