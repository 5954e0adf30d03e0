"""Fan-in pattern: the polling method with many support peers.

The paper measures one worker against one support process; real
applications talk to several neighbours at once.  This pattern runs the
polling method with ``n_peers`` support processes (one per extra node),
all streaming messages at the single worker.  It answers: how do the
worker's CPU availability and aggregate bandwidth scale as communication
partners multiply?

For kernel transports the answer compounds badly — every peer's packets
interrupt the same worker CPU — while OS-bypass stacks only saturate the
worker's host bus.

The world is built through the :class:`~repro.hardware.topology.
Topology` seam, so fan-in runs on the fat-tree too; the worker and
support processes are the polling method's own
(:func:`repro.core.polling.drive_polling`).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config import SystemConfig
from ..core.polling import PollingConfig, drive_polling
from ..core.results import PollingPoint
from ..hardware.topology import Topology


@dataclass
class FanInPoint:
    """One multi-peer polling measurement."""

    point: PollingPoint
    n_peers: int

    @property
    def per_peer_bandwidth_Bps(self) -> float:
        """Aggregate bandwidth divided by peer count."""
        return self.point.bandwidth_Bps / self.n_peers


def run_fanin_polling(
    system: SystemConfig,
    cfg: PollingConfig,
    n_peers: int,
    topology: "Topology | None" = None,
) -> FanInPoint:
    """Polling method with ``n_peers`` support nodes feeding rank 0.

    ``topology`` selects the fabric; ``None`` keeps the paper's crossbar
    switch, whose port count caps the world at ``ports - 1`` peers.
    """
    if n_peers < 1:
        raise ValueError("need at least one peer")
    if topology is None and n_peers + 1 > system.machine.switch.ports:
        raise ValueError(
            f"{n_peers} peers + worker exceed the "
            f"{system.machine.switch.ports}-port switch"
        )
    _, point = drive_polling(system, cfg, n_peers, topology)
    return FanInPoint(point=point, n_peers=n_peers)
