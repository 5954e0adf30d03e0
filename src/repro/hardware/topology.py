"""Network topologies: how N nodes are wired together.

The paper's testbed is two nodes on one Myrinet crossbar; its §4 analysis
(and §7 future work) is about how host processing and rendezvous stalls
compose *at scale*.  A :class:`Topology` builds the network side of a
:class:`~repro.hardware.cluster.Cluster`: it creates the switches and
links, attaches every node's NIC, and installs the routing so packets
addressed to node ``dst`` arrive at ``dst``'s NIC.  Two models ship:

* :class:`Crossbar` — the paper's single cut-through switch.  Every pair
  of nodes contends only on the destination's output link; this is the
  seed topology, preserved statement-for-statement so two-node worlds
  stay bit-identical to the recorded golden values (including the NIC
  fast pump, which only arms on exclusive 2-node routes).
* :class:`FatTree` — a two-level k-ary fat-tree: ``k/2``-host edge
  switches uplinked to ``k/2`` core switches, every inter-switch hop a
  real contended :class:`~repro.hardware.link.Link` plus the cut-through
  switch latency.  Up-routes are selected deterministically by
  destination (``dst % n_core``), so runs are reproducible and the core
  spreads flows the way the era's source-routed Myrinet maps did.

Topologies are hardware-only: transports and MPI endpoints are layered on
by :func:`repro.mpi.world.build_world`, which accepts ``topology=``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List

from ..config import NicConfig, SwitchConfig, SystemConfig
from ..sim.engine import Engine
from ..transport.packets import Packet
from .link import Link
from .node import Node
from .switch import Switch

if TYPE_CHECKING:  # pragma: no cover
    from .cluster import Cluster


class TopologyError(ValueError):
    """A topology cannot be built for the requested node count."""


class Topology:
    """Contract for cluster network builders.

    ``wire(cluster, n_nodes)`` must populate ``cluster.nodes`` with
    ``n_nodes`` :class:`~repro.hardware.node.Node`\\ s (node ``i`` hosting
    rank ``i``) and connect their NICs so ``nic.uplink`` injects packets
    into the network and packets for node ``i`` reach
    ``cluster.nodes[i].nic.deliver``.  Wire-loss injection
    (``system.machine.fault.data_loss_rate``) applies to the final
    host-facing link of each node, drawing from the cluster's RNG streams
    ``loss.link{i}`` in node order — the stream discipline the crossbar
    established, kept so fault studies stay comparable across topologies.
    """

    #: Registry name (also what scenario/CLI specs use).
    name = "topology"

    def capacity(self, system: SystemConfig) -> int:
        """Largest node count this topology supports for ``system``;
        raises :class:`TopologyError` if it cannot be built at all (so
        callers can reject bad parameters before building a world)."""
        raise NotImplementedError

    def max_nodes(self, cluster: "Cluster") -> int:
        """Largest node count this topology supports for the cluster's
        system."""
        return self.capacity(cluster.system)

    def wire(self, cluster: "Cluster", n_nodes: int) -> None:
        """Build switches/links and attach ``n_nodes`` nodes."""
        raise NotImplementedError

    def describe(self) -> str:
        """One-line human description (CLI output, docs)."""
        return self.name


class Crossbar(Topology):
    """The paper's single cut-through switch (Myrinet 8-port SAN/LAN).

    This is the seed two-node wiring generalized only in name: the
    construction order, RNG stream names, and the exclusive-route fast
    pump (armed solely on untraced two-node worlds) are identical,
    which the golden-value differential tests pin bit-for-bit.
    """

    name = "crossbar"

    def capacity(self, system: SystemConfig) -> int:
        return system.machine.switch.ports

    def wire(self, cluster: "Cluster", n_nodes: int) -> None:
        engine = cluster.engine
        system = cluster.system
        if n_nodes > system.machine.switch.ports:
            raise ValueError(
                f"{n_nodes} nodes exceed the switch's "
                f"{system.machine.switch.ports} ports"
            )
        cluster.switch = Switch(engine, system.machine.switch, system.machine.nic)
        loss = system.machine.fault.data_loss_rate
        for nid in range(n_nodes):
            node = Node(engine, system, nid)
            node.nic.uplink = cluster.switch.ingress
            cluster.switch.attach(nid, node.nic.deliver)
            if loss > 0.0:
                cluster.switch.out_link(nid).set_loss(
                    loss, cluster.rng.stream(f"loss.link{nid}")
                )
            cluster.nodes.append(node)
        if n_nodes == 2 and engine.trace is None:
            # Exclusive routes: each wire carries exactly one sender's
            # traffic, so the NICs can run the event-lean fast pump (see
            # NIC.enable_fast).  Traced runs keep the legacy per-packet
            # path so observer and sanitizer see the exact per-packet
            # record stream.
            routes = {nid: cluster.switch.out_link(nid)
                      for nid in range(n_nodes)}
            for node in cluster.nodes:
                node.nic.enable_fast(cluster.switch, routes)

    def describe(self) -> str:
        return "crossbar (single cut-through switch)"


class TreeSwitch:
    """A routed cut-through switch stage of the fat-tree.

    Unlike the crossbar :class:`~repro.hardware.switch.Switch` (whose
    output ports *are* the destinations), a tree switch forwards by a
    routing table mapping destination node ids to named ports; the port's
    :class:`~repro.hardware.link.Link` may lead to a host NIC or to
    another switch's ingress.  Forwarding charges the same cut-through
    latency and serializes on the chosen output link, so shared up/down
    links are genuine contention points.
    """

    def __init__(
        self,
        engine: Engine,
        config: SwitchConfig,
        nic_config: NicConfig,
        name: str,
    ):
        self.engine = engine
        self.config = config
        self.nic_config = nic_config
        self.name = name
        #: port key -> output link.
        self._ports: Dict[str, Link] = {}
        #: destination node id -> port key.
        self._route: Dict[int, str] = {}
        self.packets_forwarded = 0

    def add_port(self, key: str, deliver: Callable[[Packet], None]) -> Link:
        """Create an output link on port ``key`` delivering to ``deliver``."""
        if key in self._ports:
            raise ValueError(f"{self.name}: port {key!r} already wired")
        if len(self._ports) >= self.config.ports:
            raise TopologyError(
                f"{self.name}: all {self.config.ports} ports in use"
            )
        link = Link(
            self.engine,
            bandwidth_Bps=self.nic_config.wire_bandwidth_Bps,
            latency_s=self.nic_config.wire_latency_s,
            header_bytes=self.nic_config.header_bytes,
            name=f"{self.name}.{key}",
        )
        link.deliver = deliver
        self._ports[key] = link
        return link

    def set_route(self, dst: int, port: str) -> None:
        """Route packets for node ``dst`` out of ``port``."""
        if port not in self._ports:
            raise ValueError(f"{self.name}: no port {port!r}")
        self._route[dst] = port

    def ingress(self, packet: Packet) -> None:
        """Forward an arriving packet along its routed port."""
        try:
            out = self._ports[self._route[packet.dst]]
        except KeyError:
            raise RuntimeError(
                f"{self.name}: no route to node {packet.dst}"
            ) from None
        self.packets_forwarded += 1
        # Cut-through forwarding latency, then serialize on the output link.
        self.engine._call(out.send, packet, self.config.latency_s)


class FatTree(Topology):
    """A two-level k-ary fat-tree with per-hop link/switch contention.

    Shape (``k`` = :attr:`arity`, default the system switch's port count):

    * up to ``k`` *edge* switches, each hosting ``k/2`` nodes on its down
      ports and uplinked to every core switch on its ``k/2`` up ports;
    * ``k/2`` *core* switches, each with one down link per edge switch;
    * capacity ``k * k/2`` nodes (32 for the Myrinet-era ``k = 8``).

    Node ``i`` lives on edge switch ``i // (k/2)``.  Intra-edge traffic
    takes one switch hop (host → edge → host); inter-edge traffic takes
    three (edge → core → edge), crossing two shared inter-switch links.
    The up-route is chosen per destination (``core = dst % n_core``), so
    routing is deterministic and flows to distinct destinations spread
    over the core.  Every hop is a real :class:`Link` — contention shows
    up as serialization on the shared up/down links, which is exactly
    what distinguishes the fat-tree from the ideal crossbar at scale.
    """

    name = "fattree"

    def __init__(self, arity: int = 0):
        if arity and (arity < 2 or arity % 2):
            raise TopologyError(
                f"fat-tree arity must be an even number >= 2, got {arity}"
            )
        #: Switch radix ``k``; 0 defers to the system's switch port count.
        self.arity = arity
        #: Edge switches, filled by :meth:`wire` (introspection seam).
        self.edges: List[TreeSwitch] = []
        #: Core switches, filled by :meth:`wire`.
        self.cores: List[TreeSwitch] = []

    def _k(self, system: SystemConfig) -> int:
        ports = system.machine.switch.ports
        k = self.arity or ports
        if k < 2 or k % 2:
            raise TopologyError(
                f"fat-tree arity must be an even number >= 2, got {k}"
            )
        if k > ports:
            # Every fat-tree switch spends k ports (k/2 down, k/2 up).
            raise TopologyError(
                f"fat-tree arity {k} exceeds the switch's {ports} ports"
            )
        return k

    def capacity(self, system: SystemConfig) -> int:
        k = self._k(system)
        return k * (k // 2)

    def wire(self, cluster: "Cluster", n_nodes: int) -> None:
        engine = cluster.engine
        system = cluster.system
        k = self._k(system)
        hosts_per_edge = k // 2
        n_core = k // 2
        if n_nodes > k * hosts_per_edge:
            raise ValueError(
                f"{n_nodes} nodes exceed the k={k} fat-tree's "
                f"{k * hosts_per_edge}-host capacity"
            )
        n_edge = -(-n_nodes // hosts_per_edge)  # ceil division
        sw_cfg = system.machine.switch
        nic_cfg = system.machine.nic
        self.edges = [TreeSwitch(engine, sw_cfg, nic_cfg, f"edge{e}")
                      for e in range(n_edge)]
        self.cores = [TreeSwitch(engine, sw_cfg, nic_cfg, f"core{c}")
                      for c in range(n_core)]

        # Hosts: NIC uplinks inject at the owning edge switch; the edge's
        # host-facing down link is where wire loss is injected (same RNG
        # stream names and draw order as the crossbar).
        loss = system.machine.fault.data_loss_rate
        for nid in range(n_nodes):
            node = Node(engine, system, nid)
            edge = self.edges[nid // hosts_per_edge]
            node.nic.uplink = edge.ingress
            link = edge.add_port(f"host{nid}", node.nic.deliver)
            edge.set_route(nid, f"host{nid}")
            if loss > 0.0:
                link.set_loss(loss, cluster.rng.stream(f"loss.link{nid}"))
            cluster.nodes.append(node)

        # Inter-switch fabric: every edge uplinks to every core, every
        # core downlinks to every edge.
        for e, edge in enumerate(self.edges):
            for c, core in enumerate(self.cores):
                edge.add_port(f"up{c}", core.ingress)
                core.add_port(f"down{e}", edge.ingress)

        # Routing tables: edges send foreign destinations up to the
        # destination-selected core; cores send down to the owning edge.
        for e, edge in enumerate(self.edges):
            for dst in range(n_nodes):
                dst_edge = dst // hosts_per_edge
                if dst_edge != e:
                    edge.set_route(dst, f"up{dst % n_core}")
        for core in self.cores:
            for dst in range(n_nodes):
                core.set_route(dst, f"down{dst // hosts_per_edge}")

    def hops(self, src: int, dst: int, cluster: "Cluster") -> int:
        """Switch hops a packet takes from ``src`` to ``dst``."""
        hpe = self._k(cluster.system) // 2
        return 1 if src // hpe == dst // hpe else 3

    def describe(self) -> str:
        k = self.arity or "system"
        return f"2-level k-ary fat-tree (k={k})"


#: Registered topology builders, keyed by spec name.
TOPOLOGIES = {
    Crossbar.name: Crossbar,
    FatTree.name: FatTree,
}


def make_topology(spec: str, arity: int = 0) -> Topology:
    """Build a topology from its spec name (``crossbar`` / ``fattree``).

    ``arity`` applies to the fat-tree only (0 = the system's switch port
    count); the crossbar rejects a nonzero arity rather than ignoring it.
    """
    try:
        cls = TOPOLOGIES[spec]
    except KeyError:
        raise TopologyError(
            f"unknown topology {spec!r}; have {sorted(TOPOLOGIES)}"
        ) from None
    if cls is FatTree:
        return FatTree(arity=arity)
    if arity:
        raise TopologyError(f"topology {spec!r} takes no arity")
    return cls()
