"""Cluster builder: nodes wired through a network topology."""

from __future__ import annotations

from typing import List, Optional

from ..config import SystemConfig
from ..sim.engine import Engine
from ..sim.rng import RngRegistry
from .node import Node
from .switch import Switch
from .topology import Crossbar, Topology


class Cluster:
    """A set of :class:`Node`\\ s connected by a :class:`Topology`.

    This is hardware only; transports and MPI endpoints are layered on by
    :func:`repro.mpi.world.build_world`.  The default topology is the
    paper's single crossbar switch; pass ``topology=`` to build N-rank
    worlds on other fabrics (see :mod:`repro.hardware.topology`).
    """

    def __init__(
        self,
        engine: Engine,
        system: SystemConfig,
        n_nodes: int = 2,
        topology: Optional[Topology] = None,
    ):
        if n_nodes < 2:
            raise ValueError("a cluster needs at least two nodes")
        self.engine = engine
        self.system = system
        self.rng = RngRegistry(system.seed)
        self.topology = topology if topology is not None else Crossbar()
        #: The crossbar's switch (``None`` on multi-switch topologies).
        self.switch: Optional[Switch] = None
        self.nodes: List[Node] = []
        self.topology.wire(self, n_nodes)

    def __len__(self) -> int:
        return len(self.nodes)

    def __getitem__(self, idx: int) -> Node:
        return self.nodes[idx]
