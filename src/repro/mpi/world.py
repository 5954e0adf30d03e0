"""World builder: hardware + transports + MPI endpoints, ready to run."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..config import SystemConfig, TransportKind
from ..hardware.cluster import Cluster
from ..sim.engine import Engine
from ..sim.trace import Tracer
from ..transport.base import Device
from ..transport.gm import GmDevice
from ..transport.portals import PortalsDevice, TcpDevice
from .api import Endpoint

_DEVICE_CLASSES = {
    TransportKind.GM: GmDevice,
    TransportKind.PORTALS: PortalsDevice,
    TransportKind.TCP: TcpDevice,
}

#: Custom device classes keyed by ``SystemConfig.name`` — lets extensions
#: (e.g. :mod:`repro.ext.whatif`) run the unmodified benchmark drivers on
#: transports beyond the built-in three.
CUSTOM_DEVICES: dict = {}


def register_device(system_name: str, device_cls) -> None:
    """Route worlds built for ``system_name`` to ``device_cls``."""
    CUSTOM_DEVICES[system_name] = device_cls


def make_device(engine: Engine, node, rank: int, system: SystemConfig) -> Device:
    """Instantiate the device class for ``system`` (custom name wins)."""
    cls = CUSTOM_DEVICES.get(system.name)
    if cls is None:
        try:
            cls = _DEVICE_CLASSES[system.transport]
        except KeyError:  # pragma: no cover - enum covers all kinds
            raise ValueError(f"unknown transport {system.transport}") from None
    return cls(engine, node, rank, system)


@dataclass
class World:
    """A built simulation: engine, hardware, and one endpoint per node."""

    engine: Engine
    system: SystemConfig
    cluster: Cluster
    endpoints: List[Endpoint]
    tracer: Optional[Tracer] = None

    def endpoint(self, rank: int) -> Endpoint:
        """The endpoint for ``rank``."""
        return self.endpoints[rank]

    @property
    def size(self) -> int:
        """Number of ranks."""
        return len(self.endpoints)


def build_world(
    system: SystemConfig,
    n_nodes: int = 2,
    tracer: Optional[Tracer] = None,
    topology=None,
) -> World:
    """Build a fresh deterministic world: rank *i* lives on node *i*.

    ``topology`` selects the network fabric (a
    :class:`~repro.hardware.topology.Topology`; ``None`` is the paper's
    crossbar switch, bit-identical to the seed two-node wiring).

    If no explicit ``tracer`` is given, ambient attachments are resolved:
    a sanitizer (see :func:`repro.verify.use_sanitizer`) and/or an
    observer (see :func:`repro.obs.use_observer`).  Each contributes its
    tracer to the engine's trace seam — both at once share it through a
    :class:`~repro.sim.trace.MultiTracer` — and is installed on the built
    world (sanitizer first, so the observer chains its queue hooks after
    the sanitizer's rather than replacing them).
    """
    attachments: list = []
    if tracer is None:
        from ..obs.context import current_observer
        from ..verify.context import current_sanitizer

        for ambient in (current_sanitizer(), current_observer()):
            if ambient is not None:
                attachments.append(ambient)
        if len(attachments) == 1:
            tracer = attachments[0].tracer
        elif attachments:
            from ..sim.trace import MultiTracer

            tracer = MultiTracer([a.tracer for a in attachments])
    engine = Engine(trace=tracer)
    # Live-telemetry seam: expose the engine's clock/event counters to
    # this process's heartbeat thread.  One module-global read when no
    # telemetry is armed; never influences the simulation.
    from ..obs.live import attach_engine_probe

    attach_engine_probe(engine)
    cluster = Cluster(engine, system, n_nodes=n_nodes, topology=topology)
    devices = [
        make_device(engine, cluster[i], i, system) for i in range(n_nodes)
    ]
    routes = {rank: rank for rank in range(n_nodes)}
    for dev in devices:
        dev.routes = dict(routes)
    endpoints = [
        Endpoint(engine, dev, rank, n_nodes) for rank, dev in enumerate(devices)
    ]
    world = World(engine, system, cluster, endpoints, tracer)
    for ambient in attachments:
        ambient.install(world)
    return world
