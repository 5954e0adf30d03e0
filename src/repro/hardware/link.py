"""Point-to-point wire segments.

A :class:`Link` is one *direction* of a cable: packets serialize at the
wire's signalling rate and arrive after the propagation latency.  Two links
make a full-duplex cable; the switch owns the links of its ports.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..config import NicConfig
from ..sim.engine import Engine
from ..sim.resources import Pipe
from ..transport.packets import Packet, PacketKind


class Link:
    """A unidirectional wire with finite bandwidth and latency.

    Parameters
    ----------
    engine:
        Owning engine.
    bandwidth_Bps / latency_s:
        Signalling rate and propagation delay.
    header_bytes:
        Per-packet framing overhead on the wire.
    name:
        Label for traces.
    """

    def __init__(
        self,
        engine: Engine,
        bandwidth_Bps: float,
        latency_s: float,
        header_bytes: int,
        name: str = "link",
    ):
        self.engine = engine
        self.header_bytes = header_bytes
        self.name = name
        # Tracer seam: the engine's, fixed for the engine's lifetime.
        self.trace = engine.trace
        self._pipe = Pipe(
            engine, bandwidth_Bps=bandwidth_Bps, latency_s=latency_s, name=name
        )
        #: Delivery callback, set by whoever sits at the far end.
        self.deliver: Optional[Callable[[Packet], None]] = None
        self.packets_carried = 0
        self.bytes_carried = 0
        self._loss_rate = 0.0
        self._loss_rng = None
        #: DATA packets corrupted/dropped on this link (fault injection).
        self.packets_dropped = 0

    def set_loss(self, rate: float, rng) -> None:
        """Enable fault injection: drop DATA packets with probability
        ``rate`` (control packets are assumed protected; see FaultConfig)."""
        if not (0.0 <= rate < 1.0):
            raise ValueError("loss rate must be in [0, 1)")
        self._loss_rate = rate
        self._loss_rng = rng

    def send(self, packet: Packet) -> None:
        """Enqueue ``packet`` for transmission (FIFO serialization)."""
        if self.deliver is None:
            raise RuntimeError(f"{self.name}: no receiver attached")
        nbytes = packet.wire_bytes(self.header_bytes)
        self.packets_carried += 1
        self.bytes_carried += nbytes
        self._pipe.transfer_then(nbytes, self._on_delivered, packet)
        if self.trace is not None:
            self.trace.record(self.engine.now, self.name, "wire_tx",
                              (packet.kind.value, packet.msg_id, packet.index))

    def _on_delivered(self, packet: Packet) -> None:
        if (
            self._loss_rate > 0.0
            and packet.kind is PacketKind.DATA
            and self._loss_rng.random() < self._loss_rate
        ):
            # The packet occupied the wire but arrives corrupt: dropped.
            self.packets_dropped += 1
            if self.trace is not None:
                self.trace.record(self.engine.now, self.name, "wire_drop",
                                  (packet.kind.value, packet.msg_id,
                                   packet.index))
            return
        if self.trace is not None:
            self.trace.record(self.engine.now, self.name, "wire_rx",
                              (packet.kind.value, packet.msg_id, packet.index))
        self.deliver(packet)

    @property
    def busy_until(self) -> float:
        """When the wire drains, given the packets queued so far."""
        return self._pipe.busy_until
