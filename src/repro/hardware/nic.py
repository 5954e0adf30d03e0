"""Network-interface model (Myrinet LANai-class).

The NIC owns:

* the **host bus** — one DMA pipe shared by transmit and receive (the
  32/33 PCI bus of the era), which is what actually bounds aggregate MPI
  bandwidth;
* a **transmit engine** — streams packetized send jobs: DMA from host
  memory, then serialization onto the uplink, with bounded on-NIC buffering
  (wire credits) and a priority lane for small control packets;
* the **receive path** — inbound DATA packets are DMA'd to host memory
  (user buffer, bounce buffer or kernel ring — the transport decides what
  that memory *means*), then handed to the transport's ``rx_handler``;
  control packets skip the bus.

The NIC itself never touches the host CPU: interrupts, if any, are raised
by the transport from ``rx_handler``.  That separation is exactly the
OS-bypass vs. kernel-transport distinction COMB probes.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, List, Optional

from ..config import NicConfig
from ..sim.engine import Engine
from ..sim.resources import Pipe
from ..transport.packets import Packet, PacketKind

#: Maximum packets buffered on the NIC between host DMA and the wire.
NIC_TX_BUFFER_PKTS = 8


class SendJob:
    """A packetized transmit request.

    Parameters
    ----------
    packets:
        Wire packets, in order.
    on_packet_out:
        Called after each packet has been DMA'd off host memory.
    on_done:
        Called once the *last* packet has left host memory (MPI local
        completion: the send buffer is reusable).
    urgent:
        Control-lane jobs (RTS/CTS/ACK) that jump ahead of bulk data.
    """

    __slots__ = ("packets", "on_packet_out", "on_done", "urgent")

    def __init__(
        self,
        packets: List[Packet],
        on_packet_out: Optional[Callable[[Packet], None]] = None,
        on_done: Optional[Callable[[], None]] = None,
        urgent: bool = False,
    ):
        if not packets:
            raise ValueError("SendJob needs at least one packet")
        self.packets = packets
        self.on_packet_out = on_packet_out
        self.on_done = on_done
        self.urgent = urgent


class NIC:
    """One node's network interface."""

    #: The job the legacy transmit loop is sending (set when it takes one).
    _tx_job: SendJob

    def __init__(
        self,
        engine: Engine,
        config: NicConfig,
        node_id: int,
        name: str = "",
    ):
        self.engine = engine
        self.config = config
        self.node_id = node_id
        self.name = name or f"node{node_id}.nic"
        # Tracer seam: the engine's, fixed for the engine's lifetime.
        self.trace = engine.trace
        #: Shared host DMA pipe (PCI): transmit and receive contend here.
        self.host_bus = Pipe(
            engine,
            bandwidth_Bps=config.host_dma_bandwidth_Bps,
            setup_s=config.dma_setup_s,
            name=f"{self.name}.bus",
        )
        #: Uplink towards the switch; set by the cluster builder.
        self.uplink: Optional[Callable[[Packet], None]] = None
        #: Inbound packet handler; set by the transport.
        self.rx_handler: Optional[Callable[[Packet], None]] = None
        self._bulk: Deque[SendJob] = deque()
        self._urgent: Deque[SendJob] = deque()
        self._credits = NIC_TX_BUFFER_PKTS
        self.tx_packets = 0
        self.rx_packets = 0
        # Legacy per-packet transmit loop (see _tx_get): the packet index in
        # the current job, jobs submitted but not yet taken, and the two
        # places it can wait — for a job, and for a wire credit.
        self._tx_i = 0
        self._tx_tokens = 0
        self._tx_idle = False
        self._credit_wait = False
        # Fast transmit pump (see enable_fast): populated by the cluster
        # builder on exclusive two-node routes; False selects the legacy
        # per-packet loop.
        self._fast = False
        self._tx_busy = False
        self._switch = None
        self._routes: dict = {}
        # The loop's start-up step: an urgent slot at construction time.
        engine._call(self._tx_get, None, 0.0, 0)

    # ------------------------------------------------------------- fast path
    def enable_fast(self, switch, routes: dict) -> None:
        """Arm the event-lean transmit pump for an exclusive route group.

        Requires: no tracer attached (traced runs take the legacy path so
        per-packet records stay byte-identical), and a credit window wide
        enough that wire credits can never block — emissions are spaced at
        least ``dma_setup_s`` apart, so at most
        ``ceil(nic_processing_s / dma_setup_s)`` credits are ever in
        flight.  When armed, per-packet bookkeeping events (credit grants,
        NIC-processing and switch-latency timeouts) fold into analytically
        computed wire reservations: a DATA fragment costs four heap slots
        (DMA out, pump hop, wire delivery, receiver DMA) instead of six.
        """
        cfg = self.config
        if self.trace is not None:
            return
        if cfg.dma_setup_s <= 0.0:
            return
        if cfg.nic_processing_s > NIC_TX_BUFFER_PKTS * cfg.dma_setup_s:
            return
        self._switch = switch
        self._routes = routes
        self._fast = True

    # -------------------------------------------------------------- transmit
    def submit(self, job: SendJob) -> None:
        """Queue a send job (urgent jobs preempt bulk jobs between packets)."""
        if job.urgent:
            self._urgent.append(job)
        else:
            self._bulk.append(job)
        if self._fast:
            if not self._tx_busy:
                self._tx_busy = True
                # One zero-delay hop before the first reservation, mirroring
                # the legacy loop's wake: pending same-instant events
                # (deliveries, in particular) stay ordered ahead of us.
                self.engine._call(self._pump_next, None)
        elif self._tx_idle:
            self._tx_idle = False
            self.engine._call(self._tx_take, None)
        else:
            self._tx_tokens += 1

    def _pump_next(self, _arg) -> None:
        """Fast pump: start the next queued job (urgent lane first)."""
        job = self._next_job()
        if job is None:
            self._tx_busy = False
            return
        self._pump_pkt((job, 0))

    def _pump_pkt(self, state: tuple) -> None:
        """Start the DMA of packet ``i`` of ``job`` (``state = (job, i)``)."""
        job, i = state
        cfg = self.config
        pkt = job.packets[i]
        # The DMA-done continuation carries the (job, index) state — a
        # bound method replaces a per-packet closure.
        if pkt.kind is PacketKind.DATA:
            self.host_bus.transfer_then(pkt.wire_bytes(cfg.header_bytes),
                                        self._pkt_out, state)
        else:
            # Control descriptors live on the NIC; fixed setup only.
            self.engine._call(self._pkt_out, state, cfg.dma_setup_s)

    def _pkt_out(self, state: tuple) -> None:
        """DMA finished for packet ``i``: emit and continue the job.

        Merged emission: the legacy path spends two timeout events getting
        a DMA'd packet onto the wire (``nic_processing_s`` on the NIC, then
        the cut-through switch latency).  Both offsets are constants, and
        on an exclusive route nothing else can reserve the wire in the
        window — so the wire slot is reserved *now* at its exact future
        instant, with arithmetic matching the legacy callback chain term
        for term.
        """
        job, i = state
        pkt = job.packets[i]
        if job.on_packet_out is not None:
            job.on_packet_out(pkt)
        self.tx_packets += 1
        link = self._routes[pkt.dst]
        s = (self.engine._now + self.config.nic_processing_s) \
            + self._switch.config.latency_s
        self._switch.packets_forwarded += 1
        nbytes = pkt.wire_bytes(link.header_bytes)
        link.packets_carried += 1
        link.bytes_carried += nbytes
        link._pipe.transfer_at_then(s, nbytes, link._on_delivered, pkt)
        # Continue through a zero-delay hop, never synchronously: the legacy
        # loop resumes via a fresh credit-grant step, so every event already
        # pending at this instant — a same-instant arrival contending for the
        # shared host bus, above all — acts before the next reservation.
        # Job-to-job transitions take two hops (credit, then the job wake).
        if i + 1 < len(job.packets):
            self.engine._call(self._pump_pkt, (job, i + 1))
        else:
            self.engine._call(self._pump_job_done, job)

    def _pump_job_done(self, job: SendJob) -> None:
        if job.on_done is not None:
            job.on_done()
        if self._urgent or self._bulk:
            self.engine._call(self._pump_next, None)
        else:
            # Nothing queued: the legacy loop would go idle here and resume
            # via one fresh step on the next submit — exactly the hop that
            # submit() schedules when it finds the pump idle.  Skipping the
            # dead hop changes no ordering.
            self._tx_busy = False

    def _next_job(self) -> Optional[SendJob]:
        if self._urgent:
            return self._urgent.popleft()
        if self._bulk:
            return self._bulk.popleft()
        return None

    # The legacy per-packet loop (traced and N-rank runs): a small state
    # machine whose every wait — for a job, for the DMA, for a wire
    # credit — resumes through exactly one heap slot, taken the moment
    # the wait ends.  Per packet: DMA, credit, then a NIC-processing
    # delay before the uplink; with switch forwarding, wire delivery and
    # the receiver's DMA that is six heap slots per DATA fragment.
    def _tx_get(self, _arg=None) -> None:
        """Wait for the next job: wake at once if one was submitted."""
        if self._tx_tokens:
            self._tx_tokens -= 1
            self.engine._call(self._tx_take, None)
        else:
            self._tx_idle = True

    def _tx_take(self, _arg) -> None:
        job = self._next_job()
        assert job is not None  # one token per queued job
        self._tx_job = job
        self._tx_i = 0
        self._tx_dma()

    def _tx_dma(self) -> None:
        pkt = self._tx_job.packets[self._tx_i]
        if pkt.kind is PacketKind.DATA:
            self.host_bus.transfer_then(pkt.wire_bytes(self.config.header_bytes),
                                        self._tx_dma_done)
        else:
            # Control descriptors live on the NIC; fixed setup only.
            self.engine._call(self._tx_dma_done, None, self.config.dma_setup_s)

    def _tx_dma_done(self, _arg) -> None:
        job = self._tx_job
        if job.on_packet_out is not None:
            job.on_packet_out(job.packets[self._tx_i])
        # Take a wire credit (wait for _return_credit if none is free).
        if self._credits > 0:
            self._credits -= 1
            self.engine._call(self._tx_credit, None)
        else:
            self._credit_wait = True

    def _tx_credit(self, _arg) -> None:
        job = self._tx_job
        pkt = job.packets[self._tx_i]
        self.tx_packets += 1
        if self.trace is not None:
            self.trace.record(self.engine.now, self.name, "packet_tx",
                              (pkt.kind.value, pkt.msg_id, pkt.index))
        self.engine._call(self._emit, pkt, self.config.nic_processing_s)
        self._tx_i += 1
        if self._tx_i < len(job.packets):
            self._tx_dma()
            return
        if job.on_done is not None:
            job.on_done()
        self._tx_get()

    def _emit(self, pkt: Packet) -> None:
        if self.uplink is None:
            raise RuntimeError(f"{self.name}: not wired to a switch")
        self.uplink(pkt)
        self._return_credit()

    def _return_credit(self) -> None:
        if self._credit_wait:
            self._credit_wait = False
            self.engine._call(self._tx_credit, None)
        else:
            self._credits += 1

    # --------------------------------------------------------------- receive
    def deliver(self, packet: Packet) -> None:
        """Entry point for packets arriving from the switch."""
        self.rx_packets += 1
        if self.rx_handler is None:
            raise RuntimeError(f"{self.name}: no transport attached")
        if self.trace is not None:
            # One record per *delivery attempt*: the conservation monitor
            # counts these to catch duplicated packets.
            self.trace.record(self.engine.now, self.name, "nic_rx",
                              (packet.kind.value, packet.msg_id, packet.index))
        if packet.kind is PacketKind.DATA:
            self.host_bus.transfer_then(
                packet.wire_bytes(self.config.header_bytes), self._rx_done,
                packet,
            )
        else:
            self.engine._call(self._rx_done, packet,
                              self.config.nic_processing_s)

    def _rx_done(self, packet: Packet) -> None:
        self.rx_handler(packet)
