"""What-if systems: hypothetical stacks for the design-choice ablations.

These exercise the simulator beyond the paper's two measured systems:

* :func:`coalesced_portals` — Portals with NIC interrupt mitigation;
* :class:`OffloadNicDevice` / :func:`offload_nic_system` — an idealized
  NIC that performs matching and delivery with *no* host interrupts (the
  direction Quadrics/Elan and later RDMA NICs took): full application
  offload *and* GM-class CPU availability.

Custom transports plug in through
:func:`repro.mpi.world.register_device`: the registered device class
serves every world built for its system name, so the unmodified drivers
run on it.
"""

from __future__ import annotations

import dataclasses

from ..config import SystemConfig, portals_system
from ..mpi.world import register_device
from ..sim.units import usec
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
