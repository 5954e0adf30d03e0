"""What-if systems: hypothetical stacks for the design-choice ablations.

These exercise the simulator beyond the paper's two measured systems:

* :func:`coalesced_portals` — Portals with NIC interrupt mitigation;
* :class:`OffloadNicDevice` / :func:`offload_nic_system` — an idealized
  NIC that performs matching and delivery with *no* host interrupts (the
  direction Quadrics/Elan and later RDMA NICs took): full application
  offload *and* GM-class CPU availability;
* :func:`build_custom_world` — a world builder accepting any device class,
  the extension hook custom transports plug into.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Type

from ..config import InterruptConfig, SystemConfig, portals_system
from ..hardware.cluster import Cluster
from ..hardware.memory import copy_time
from ..mpi.api import Endpoint
from ..mpi.world import World, register_device
from ..sim.engine import Engine
from ..sim.units import usec
from ..transport.base import Device
from ..transport.packets import Packet, PacketKind
from ..transport.portals import PortalsDevice


def coalesced_portals(window_s: float = usec(40)) -> SystemConfig:
    """Portals with interrupt coalescing (ablation for design decision 1)."""
    base = portals_system()
    machine = dataclasses.replace(
        base.machine,
        irq=dataclasses.replace(base.machine.irq, coalesce_window_s=window_s),
    )
    return dataclasses.replace(base, name="Portals+coalesce", machine=machine)


class OffloadNicDevice(PortalsDevice):
    """An idealized offload NIC: kernel-Portals semantics, zero interrupts.

    Matching, reassembly and delivery run on the NIC; received data is
    DMA'd straight to user buffers (the host-bus transfer is already paid
    in the NIC receive path), so the host CPU is never involved in data
    motion.  Posting still traps (cheaply) to pin buffers.
    """

    #: NIC-side processing latency per data packet (no host CPU).
    NIC_RX_LATENCY_S = usec(1.0)

    def nic_rx(self, pkt: Packet) -> None:
        if pkt.kind is PacketKind.DATA:
            step = self._rx_commit
        elif pkt.kind is PacketKind.RTS:
            step = self._rts_commit
        elif pkt.kind is PacketKind.CTS:
            step = self._get_commit
        elif pkt.kind is PacketKind.ACK:
            step = self._ack_commit
        else:
            return
        self.engine._call(step, pkt, self.NIC_RX_LATENCY_S)

    def _ack_commit(self, pkt: Packet) -> None:
        self._on_ack(pkt.src, pkt.meta["cum"])

    def _tx_admitted(self, _arg) -> None:
        """NIC-side transmit: no kernel work per packet."""
        self._tx_send(None)


def offload_nic_system() -> SystemConfig:
    """Parameters for the idealized offload NIC (cheap traps, no copies).

    Registered with the world builder, so the standard ``run_polling`` /
    ``run_pww`` drivers work on it directly.
    """
    base = portals_system()
    portals = dataclasses.replace(
        base.portals,
        isend_trap_s=usec(4.0),
        irecv_trap_s=usec(4.0),
        tx_window_pkts=8,
    )
    system = dataclasses.replace(base, name="OffloadNIC", portals=portals)
    register_device(system.name, OffloadNicDevice)
    return system


def build_custom_world(
    system: SystemConfig,
    device_cls: Type[Device],
    n_nodes: int = 2,
    tracer=None,
) -> World:
    """Like :func:`repro.mpi.world.build_world` but with any device class.

    This is the supported way to plug a custom transport into COMB: write a
    :class:`~repro.transport.base.Device` subclass, build a world with it,
    and run the unmodified benchmark methods on top.
    """
    engine = Engine(trace=tracer)
    cluster = Cluster(engine, system, n_nodes=n_nodes, tracer=tracer)
    devices: List[Device] = [
        device_cls(engine, cluster[i], i, system) for i in range(n_nodes)
    ]
    routes: Dict[int, int] = {rank: rank for rank in range(n_nodes)}
    for dev in devices:
        dev.routes = dict(routes)
    endpoints = [
        Endpoint(engine, dev, rank, n_nodes) for rank, dev in enumerate(devices)
    ]
    return World(engine, system, cluster, endpoints, tracer)
