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
        tracer=None,
    ):
        self.engine = engine
        self.config = config
        self.node_id = node_id
        self.name = name or f"node{node_id}.nic"
        self.tracer = tracer
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
        self._domain = None
        # The loop's start-up step: an urgent slot at construction time.
        engine._call(self._tx_get, None, 0.0, 0)

    # ------------------------------------------------------------- fast path
    def enable_fast(self, switch, routes: dict, domain) -> None:
        """Arm the event-lean transmit pump for an exclusive route group.

        Requires: no tracer attached (traced runs take the legacy path so
        per-packet records stay byte-identical), and a credit window wide
        enough that wire credits can never block — emissions are spaced at
        least ``dma_setup_s`` apart, so at most
        ``ceil(nic_processing_s / dma_setup_s)`` credits are ever in
        flight.  When armed, per-packet bookkeeping events (credit grants,
        NIC-processing and switch-latency timeouts) fold into analytically
        computed wire reservations, and multi-fragment DATA jobs ride a
        single lazy :class:`~repro.sim.resources.BurstDomain` burst.
        """
        cfg = self.config
        if self.tracer is not None or self.engine.trace is not None:
            return
        if cfg.dma_setup_s <= 0.0:
            return
        if cfg.nic_processing_s > NIC_TX_BUFFER_PKTS * cfg.dma_setup_s:
            return
        self._switch = switch
        self._routes = routes
        self._domain = domain
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
        pkts = job.packets
        if len(pkts) > 1 and job.on_packet_out is None:
            link = self._routes.get(pkts[0].dst)
            if (
                link is not None
                and link._loss_rate == 0.0
                and getattr(link, "rx_nic", None) is not None
                and all(p.kind is PacketKind.DATA for p in pkts)
            ):
                _Burst(self, job, link)
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
        if self.tracer is not None:
            self.tracer.record(self.engine.now, self.name, "packet_tx",
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
        if self.tracer is not None:
            # One record per *delivery attempt*: the conservation monitor
            # counts these to catch duplicated packets.
            self.tracer.record(self.engine.now, self.name, "nic_rx",
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


class _TxStream:
    """Burst-side lazy stream: host-bus DMA reservations of the sender."""

    __slots__ = ("b", "seq")
    is_rx = False

    def __init__(self, b: "_Burst"):
        self.b = b

    def next_res(self):
        b = self.b
        return b.tx_next if b.i < b.n else None

    def commit_next(self) -> bool:
        return self.b._commit_tx()


class _RxStream:
    """Burst-side lazy stream: host-bus DMA reservations of the receiver."""

    __slots__ = ("b", "seq")
    is_rx = True

    def __init__(self, b: "_Burst"):
        self.b = b

    def next_res(self):
        arr = self.b.arrivals
        return arr[0] if arr else None

    def commit_next(self) -> bool:
        return self.b._commit_rx()


class _Burst:
    """A contiguous run of DATA fragments carried as one lazy transfer.

    All per-fragment timing — sender DMA chain, NIC processing + switch
    latency offsets, wire serialization, receiver DMA chain — is computed
    with exactly the arithmetic of the legacy per-packet path, but
    reservations are committed lazily through the route's
    :class:`~repro.sim.resources.BurstDomain` merge instead of one heap
    event per fragment per hop.  Only two heap events fire per burst in
    the uncontended case: sender completion (``on_done``, MPI local
    completion) at the last DMA-out, and receiver completion
    (``rx_handler`` with the first and last fragments) at the last DMA-in.
    Both are scheduled at optimistic lower-bound estimates and re-armed
    forward when foreign bus traffic stretches the chain.
    """

    __slots__ = (
        "nic", "rx_nic", "job", "pkts", "link", "switch", "engine", "domain",
        "sizes", "n", "bus", "wire", "rx_bus", "np_s", "sl_s",
        "i", "tx_next", "tx_done", "arrivals", "j", "rx_done",
    )

    def __init__(self, nic: NIC, job: SendJob, link):
        self.nic = nic
        self.rx_nic = link.rx_nic
        self.job = job
        self.pkts = job.packets
        self.link = link
        self.switch = nic._switch
        self.engine = nic.engine
        self.domain = nic._domain
        hdr = nic.config.header_bytes
        self.sizes = [p.wire_bytes(hdr) for p in self.pkts]
        self.n = len(self.sizes)
        self.bus = nic.host_bus
        self.wire = link._pipe
        self.rx_bus = self.rx_nic.host_bus
        self.np_s = nic.config.nic_processing_s
        self.sl_s = self.switch.config.latency_s
        self.i = 0
        self.tx_next = self.engine.now
        self.tx_done = 0.0
        self.arrivals: Deque[float] = deque()
        self.j = 0
        self.rx_done = 0.0
        dom = self.domain
        alone = not dom.streams
        dom.add(_TxStream(self))
        dom.add(_RxStream(self))
        # No eager materialize: the first fragment's reservation sits at
        # exactly `now`, and committing it here would jump ahead of any
        # arrival still pending at this instant (legacy order: arrivals
        # reserve the shared bus first).  The estimates below run the same
        # arithmetic over the uncommitted chain — one pass for both ends.
        if alone:
            tx_at, rx_at = self._chain_ends(want_rx=True)
        else:
            tx_at, rx_at = _project(dom, self, want_rx=True)
        self._arm(tx_at, self._tx_end)
        self._arm(rx_at, self._rx_end)

    # ------------------------------------------------------------ commits
    #
    # Every timestamp below reproduces the legacy per-packet event chain's
    # float arithmetic *exactly*, including the ``call + (x - call)``
    # round-trip the engine's delay-based scheduling performs — the legacy
    # chain observes event fire times, not the raw ``done`` values, and the
    # two can differ by a ulp.  Bit-identity of the figures depends on it.
    def _commit_tx(self) -> bool:
        i = self.i
        sz = self.sizes[i]
        bus = self.bus
        call = self.tx_next
        start = call
        if bus._busy_until > start:
            start = bus._busy_until
        # occupancy_time inlined here and below — parenthesized to keep the
        # exact float association of start + (setup + nbytes / bandwidth).
        done = start + (bus.setup_s + sz / bus.bandwidth_Bps)
        bus._busy_until = done
        bus.total_bytes += sz
        bus.total_items += 1
        fire = call + (done - call)  # host bus has zero latency
        self.tx_next = fire
        self.nic.tx_packets += 1
        # Merged emission onto the (exclusive) wire.
        s = (fire + self.np_s) + self.sl_s
        wire = self.wire
        wstart = s if wire._busy_until <= s else wire._busy_until
        wdone = wstart + (wire.setup_s + sz / wire.bandwidth_Bps)
        wire._busy_until = wdone
        wire.total_bytes += sz
        wire.total_items += 1
        self.switch.packets_forwarded += 1
        link = self.link
        link.packets_carried += 1
        link.bytes_carried += sz
        self.arrivals.append(s + ((wdone + wire.latency_s) - s))
        self.i = i + 1
        if self.i == self.n:
            self.tx_done = fire
            return True
        return False

    def _commit_rx(self) -> bool:
        w = self.arrivals.popleft()
        bus = self.rx_bus
        sz = self.sizes[self.j]
        start = w if bus._busy_until <= w else bus._busy_until
        done = start + (bus.setup_s + sz / bus.bandwidth_Bps)
        bus._busy_until = done
        bus.total_bytes += sz
        bus.total_items += 1
        self.j += 1
        if self.j == self.n:
            self.rx_done = w + (done - w)
            return True
        return False

    # --------------------------------------------------------- end events
    def _arm(self, at_s: float, fn) -> None:
        engine = self.engine
        # Absolute insertion: converting to a delay and back would cost a
        # ulp and desynchronize the fire time from the estimate.
        engine._call_at(fn, None, at_s if at_s > engine._now else engine._now)

    def _tx_end(self, _arg) -> None:
        now = self.engine._now
        dom = self.domain
        if dom.streams:
            # tx_strict cannot stall: every reservation time is the
            # *previous* fragment's fire time, strictly below this event's.
            dom.materialize(now, tx_strict=True)
        if self.i == self.n and self.tx_done <= now:
            # on_done and the next job go through the NIC's hops, exactly
            # where the legacy loop's credit grant and job wake put them.
            self.engine._call(self.nic._pump_job_done, self.job)
        else:
            self._arm(self._estimate_tx(), self._tx_end)

    def _rx_end(self, _arg) -> None:
        now = self.engine._now
        dom = self.domain
        if dom.streams:
            dom.materialize(now, tx_strict=True)
        if self.j == self.n and self.rx_done <= now:
            rx_nic = self.rx_nic
            rx_nic.rx_packets += self.n
            handler = rx_nic.rx_handler
            handler(self.pkts[0])
            handler(self.pkts[-1])
        else:
            self._arm(self._estimate_rx(), self._rx_end)

    # ---------------------------------------------------------- estimates
    #
    # Estimates project the *whole domain's* merged commit order forward on
    # shadow state — opposing bursts contending for the same host buses are
    # accounted exactly, so the end event fires once unless non-domain
    # traffic (control packets on the wire, a foreign DMA) lands after the
    # estimate.  Even then the projection stays a lower bound — foreign
    # reservations only push chains later — and the fire re-arms forward.
    # Crucially the shadow commits run the same float operations (including
    # the fire-time round-trips) as the real ones, so an undisturbed
    # estimate equals the eventual end time bit for bit.
    def _estimate_tx(self) -> float:
        if self.i == self.n:
            return self.tx_done
        if self._alone():
            return self._chain_ends(want_rx=False)[0]
        return _project(self.domain, self, want_rx=False)[0]

    def _estimate_rx(self) -> float:
        if self.j == self.n:
            return self.rx_done
        if self._alone():
            return self._chain_ends(want_rx=True)[1]
        return _project(self.domain, self, want_rx=True)[1]

    def _alone(self) -> bool:
        """True when every pending stream in the domain is this burst's —
        the common case, where projection needs no merge at all."""
        for s in self.domain.streams:
            if s.b is not self:
                return False
        return True

    def _chain_ends(self, want_rx: bool):
        """Straight-line projection for an uncontended burst.

        The transmit chain touches the sender bus and the wire; the
        receive chain touches only the receiver bus — with no other burst
        in the domain the merge order is immaterial and both chains
        simulate as plain loops.  Identical float operations to
        :func:`_project` and to the commits.
        """
        sizes = self.sizes
        arr = list(self.arrivals)
        t = self.tx_next
        if self.i < self.n:
            bus = self.bus
            wire = self.wire
            busy = bus._busy_until
            wbusy = wire._busy_until
            # occupancy_time inlined with hoisted attribute loads; the
            # parenthesization keeps start + (setup + n / bandwidth) exact.
            b_setup = bus.setup_s
            b_bw = bus.bandwidth_Bps
            w_setup = wire.setup_s
            w_bw = wire.bandwidth_Bps
            w_lat = wire.latency_s
            for k in range(self.i, self.n):
                start = t if busy <= t else busy
                done = start + (b_setup + sizes[k] / b_bw)
                busy = done
                t = t + (done - t)
                s = (t + self.np_s) + self.sl_s
                wstart = s if wbusy <= s else wbusy
                wdone = wstart + (w_setup + sizes[k] / w_bw)
                wbusy = wdone
                arr.append(s + ((wdone + w_lat) - s))
        if not want_rx:
            return t, 0.0
        rx_bus = self.rx_bus
        rbusy = rx_bus._busy_until
        r_setup = rx_bus.setup_s
        r_bw = rx_bus.bandwidth_Bps
        end = rbusy
        j = self.j
        for idx, w in enumerate(arr):
            start = w if rbusy <= w else rbusy
            done = start + (r_setup + sizes[j + idx] / r_bw)
            rbusy = done
            end = w + (done - w)
        return t, end


def _project(domain, target: _Burst, want_rx: bool):
    """Replay the domain's pending reservations on shadow state; return
    ``(tx_end, rx_end)`` for ``target`` (``rx_end`` is 0.0 unless
    ``want_rx``, which runs the replay through to the receive chain).

    The replay picks streams in exactly :meth:`BurstDomain.materialize`'s
    order — (reservation time, receive-before-transmit, stream seq) — so
    absent foreign traffic it *is* the future, bit for bit.
    """
    tx_end = target.tx_done  # already exact when the tx chain is done
    # Shadow state: per burst [i, tx_next, arrivals, j]; per pipe busy_until.
    pipes: dict = {}
    st: dict = {}
    for s in domain.streams:
        b = s.b
        if b not in st:
            st[b] = [b.i, b.tx_next, list(b.arrivals), b.j]
            for p in (b.bus, b.wire, b.rx_bus):
                if p not in pipes:
                    pipes[p] = p._busy_until
    while True:
        best = None
        best_key = (0.0, 0, 0)
        for s in domain.streams:
            state = st[s.b]
            if s.is_rx:
                if not state[2]:
                    continue
                key = (state[2][0], 0, s.seq)
            else:
                if state[0] >= s.b.n:
                    continue
                key = (state[1], 1, s.seq)
            if best is None or key < best_key:
                best, best_key = s, key
        if best is None:  # pragma: no cover - target pends, so unreachable
            raise RuntimeError("burst projection failed to converge")
        b = best.b
        state = st[b]
        if best.is_rx:
            w = state[2].pop(0)
            bus = b.rx_bus
            busy = pipes[bus]
            start = w if busy <= w else busy
            done = start + (bus.setup_s + b.sizes[state[3]] / bus.bandwidth_Bps)
            pipes[bus] = done
            state[3] += 1
            if want_rx and b is target and state[3] == b.n:
                return tx_end, w + (done - w)
        else:
            i = state[0]
            sz = b.sizes[i]
            bus = b.bus
            call = state[1]
            busy = pipes[bus]
            start = call if busy <= call else busy
            done = start + (bus.setup_s + sz / bus.bandwidth_Bps)
            pipes[bus] = done
            fire = call + (done - call)
            state[1] = fire
            s_ = (fire + b.np_s) + b.sl_s
            wire = b.wire
            wbusy = pipes[wire]
            wstart = s_ if wbusy <= s_ else wbusy
            wdone = wstart + (wire.setup_s + sz / wire.bandwidth_Bps)
            pipes[wire] = wdone
            state[2].append(s_ + ((wdone + wire.latency_s) - s_))
            state[0] = i + 1
            if b is target and state[0] == b.n:
                tx_end = fire
                if not want_rx:
                    return tx_end, 0.0
