"""Crossbar switch model (Myrinet 8-port SAN/LAN switch).

The switch is cut-through: a packet entering port *i* destined for node on
port *j* is forwarded after the switch latency, serializing only on the
*output* link of port *j* (input links are the senders' own wires, owned by
their NICs).  With COMB's two-node setup contention never occurs, but the
model supports full N-port fan-in so multi-node tests exercise it.
"""

from __future__ import annotations

from typing import Callable, Dict

from ..config import NicConfig, SwitchConfig
from ..sim.engine import Engine
from .link import Link
from ..transport.packets import Packet


class PortFullError(RuntimeError):
    """All switch ports are occupied."""


class Switch:
    """A cut-through crossbar with one output :class:`Link` per port."""

    def __init__(
        self,
        engine: Engine,
        config: SwitchConfig,
        nic_config: NicConfig,
        name: str = "switch",
    ):
        self.engine = engine
        self.config = config
        self.nic_config = nic_config
        self.name = name
        #: node id -> output link towards that node.
        self._out: Dict[int, Link] = {}
        self.packets_forwarded = 0

    def attach(self, node_id: int, deliver: Callable[[Packet], None]) -> None:
        """Connect a node: ``deliver`` receives packets addressed to it."""
        if len(self._out) >= self.config.ports:
            raise PortFullError(
                f"{self.name}: all {self.config.ports} ports in use"
            )
        if node_id in self._out:
            raise ValueError(f"node {node_id} already attached")
        link = Link(
            self.engine,
            bandwidth_Bps=self.nic_config.wire_bandwidth_Bps,
            latency_s=self.nic_config.wire_latency_s,
            header_bytes=self.nic_config.header_bytes,
            name=f"{self.name}.out{node_id}",
        )
        link.deliver = deliver
        self._out[node_id] = link

    def out_link(self, node_id: int) -> Link:
        """The output link towards ``node_id`` (fault-injection seam)."""
        return self._out[node_id]

    def ingress(self, packet: Packet) -> None:
        """A packet arriving from some node's uplink; forward it."""
        try:
            out = self._out[packet.dst]
        except KeyError:
            raise RuntimeError(
                f"{self.name}: packet for unattached node {packet.dst}"
            ) from None
        self.packets_forwarded += 1
        # Cut-through forwarding latency, then serialize on the output link.
        self.engine._call(out.send, packet, self.config.latency_s)
