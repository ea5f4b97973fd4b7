"""Fabric construction: the paper's 16-node mesh of 5-port switches.

"For our experiments, we simulated a 16-node mesh network designed using
5-port switches and an HCA" — each switch spends four ports on its mesh
neighbours (edge switches fewer) and one on its node's HCA.  Routing is
dimension-ordered (X then Y), deadlock-free on a mesh.

:func:`build_mesh` wires switches, HCAs, links (both directions), routing
tables and returns a :class:`Fabric` handle used by the runner, the security
layer, and tests; ``mesh_height=1`` makes it a degenerate 1×N line.
:func:`build_fat_tree` builds the k-ary fat tree of the scale workloads.

A switch's routing table is one byte per LID (``Switch.route_table``, see
:mod:`repro.iba.switch`).  The mesh builder and the SM's fault resweep
(:func:`recompute_routes`) write it entry by entry through
``Switch.set_route``; the fat-tree builder fills whole tables by slice
assignment from the LID layout, so no build step loops over LIDs per switch.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.iba.hca import HCA
from repro.iba.link import Link
from repro.iba.packet import PacketIds
from repro.iba.subnet_manager import SubnetManager
from repro.iba.switch import HCA_PORT, NO_ROUTE, Switch
from repro.iba.types import LID
from repro.sim.config import EnforcementMode, SimConfig
from repro.sim.counters import CounterRegistry
from repro.sim.engine import Engine
from repro.sim.metrics import MetricsCollector
from repro.sim.trace import Tracer

#: Mesh port numbering on every switch.
PORT_EAST, PORT_WEST, PORT_NORTH, PORT_SOUTH = 1, 2, 3, 4

_DIRS = {
    PORT_EAST: (1, 0),
    PORT_WEST: (-1, 0),
    PORT_NORTH: (0, 1),
    PORT_SOUTH: (0, -1),
}
_OPPOSITE = {PORT_EAST: PORT_WEST, PORT_WEST: PORT_EAST, PORT_NORTH: PORT_SOUTH, PORT_SOUTH: PORT_NORTH}


@dataclass
class Fabric:
    """Everything built for one experiment run."""

    engine: Engine
    config: SimConfig
    metrics: MetricsCollector
    switches: dict[tuple[int, int], Switch] = field(default_factory=dict)
    hcas: dict[int, HCA] = field(default_factory=dict)  #: LID -> HCA
    #: LID -> (switch coordinates) of the node's ingress switch.
    ingress_of: dict[int, tuple[int, int]] = field(default_factory=dict)
    #: LID -> input port on the ingress switch its HCA feeds.  On the mesh
    #: this is always HCA_PORT; a fat-tree edge switch hosts several HCAs,
    #: one per low-numbered port.
    ingress_port_of: dict[int, int] = field(default_factory=dict)
    sm: SubnetManager | None = None
    #: single namespace every component's statistics live in.
    registry: CounterRegistry = field(default_factory=CounterRegistry)
    #: lifecycle event bus (None = tracing off, zero overhead).
    tracer: Tracer | None = None
    #: the run's packet-id source, shared by every HCA.
    packet_ids: PacketIds = field(default_factory=PacketIds)
    #: mode :func:`repro.core.enforcement.install_enforcement` wired in
    #: (None until it runs).
    enforcement_installed: EnforcementMode | None = None

    @property
    def lids(self) -> list[int]:
        return sorted(self.hcas)

    def hca(self, lid: int) -> HCA:
        return self.hcas[int(lid)]

    def ingress_switch(self, lid: int) -> Switch:
        return self.switches[self.ingress_of[int(lid)]]

    def ingress_port(self, lid: int) -> int:
        """Input port of ``ingress_switch(lid)`` that faces the node's HCA
        — where ingress enforcement (IF/SIF) attaches."""
        return self.ingress_port_of.get(int(lid), HCA_PORT)

    def all_switches(self) -> list[Switch]:
        return [self.switches[k] for k in sorted(self.switches)]

    def all_links(self) -> list[Link]:
        """Every directed link of the fabric, each exactly once.

        Every link is somebody's out-link: the HCA→switch up-links hang off
        the HCAs, everything else (switch→HCA down-links and the mesh
        links) off the switches.  Deterministic order.
        """
        links: list[Link] = []
        for lid in self.lids:
            link = self.hcas[lid].out_link
            if link is not None:
                links.append(link)
        for sw in self.all_switches():
            links.extend(l for l in sw.out_links if l is not None)
        return links

    def in_flight_count(self) -> int:
        """Packets currently alive anywhere between submit and their fate.

        Sums HCA send queues, link transit (serialization + wire), switch
        pipeline/buffer occupancy, and receive-side processing.  Together
        with the submitted/delivered/dropped/filtered counters this makes
        packet conservation machine-checkable at any inter-event instant —
        the fuzz subsystem's first invariant (see repro.fuzz.oracles).
        """
        total = 0
        for hca in self.hcas.values():
            total += hca.queued_tx_count() + hca.rx_in_flight_count()
        for sw in self.switches.values():
            total += sw.buffered_packet_count()
        for link in self.all_links():
            total += link.in_transit
        return total


def node_lid(x: int, y: int, width: int) -> LID:
    """LID of the node attached to switch (x, y).  LID 0 is reserved."""
    return LID(1 + y * width + x)


def build_mesh(
    engine: Engine,
    config: SimConfig,
    metrics: MetricsCollector,
    registry: CounterRegistry | None = None,
    tracer: Tracer | None = None,
) -> Fabric:
    """Construct the width×height mesh fabric described by *config*.

    All components register their statistics into one shared *registry*
    (created here when not supplied) and, when *tracer* is given, emit
    lifecycle events into it natively.
    """
    config.validate()
    fabric = Fabric(
        engine=engine, config=config, metrics=metrics,
        registry=registry if registry is not None else CounterRegistry(),
        tracer=tracer,
    )
    w, h = config.mesh_width, config.mesh_height
    byte_ps = config.byte_time_ps

    # switches and HCAs
    for y in range(h):
        for x in range(w):
            sw = Switch(
                engine,
                name=f"sw({x},{y})",
                num_ports=config.ports_per_switch,
                num_vls=config.num_vls,
                vl_buffer_packets=config.vl_buffer_packets,
                routing_delay_ns=config.switch_routing_delay_ns,
                credit_return_delay_ns=config.credit_return_delay_ns,
                arbiter_high_limit=config.vl_arbitration_high_limit,
                registry=fabric.registry,
                tracer=tracer,
            )
            fabric.switches[(x, y)] = sw
            lid = node_lid(x, y, w)
            hca = HCA(
                engine,
                lid=lid,
                num_vls=config.num_vls,
                vl_buffer_packets=config.vl_buffer_packets,
                processing_delay_ns=config.hca_processing_delay_ns,
                credit_return_delay_ns=config.credit_return_delay_ns,
                metrics=metrics,
                warmup_ps=config.warmup_ps,
                registry=fabric.registry,
                tracer=tracer,
                packet_ids=fabric.packet_ids,
            )
            fabric.hcas[int(lid)] = hca
            fabric.ingress_of[int(lid)] = (x, y)
            fabric.ingress_port_of[int(lid)] = HCA_PORT

    # HCA <-> switch links
    for (x, y), sw in fabric.switches.items():
        lid = node_lid(x, y, w)
        hca = fabric.hcas[int(lid)]
        up = Link(
            engine, f"hca{int(lid)}->sw({x},{y})", byte_ps, sw, HCA_PORT,
            config.num_vls, config.vl_buffer_packets, config.wire_delay_ns,
            registry=fabric.registry, tracer=tracer,
        )
        hca.attach_out_link(up)
        sw.attach_in_link(HCA_PORT, up)
        down = Link(
            engine, f"sw({x},{y})->hca{int(lid)}", byte_ps, hca, 0,
            config.num_vls, config.vl_buffer_packets, config.wire_delay_ns,
            registry=fabric.registry, tracer=tracer,
        )
        sw.attach_out_link(HCA_PORT, down)
        hca.attach_in_link(down)

    # switch <-> switch links
    for (x, y), sw in fabric.switches.items():
        for port, (dx, dy) in _DIRS.items():
            nx, ny = x + dx, y + dy
            if (nx, ny) not in fabric.switches:
                continue
            neighbour = fabric.switches[(nx, ny)]
            link = Link(
                engine, f"sw({x},{y})->sw({nx},{ny})", byte_ps,
                neighbour, _OPPOSITE[port], config.num_vls,
                config.vl_buffer_packets, config.wire_delay_ns,
                registry=fabric.registry, tracer=tracer,
            )
            sw.attach_out_link(port, link)
            neighbour.attach_in_link(_OPPOSITE[port], link)

    # dimension-ordered (X then Y) routing tables
    for (x, y), sw in fabric.switches.items():
        for ty in range(h):
            for tx in range(w):
                dest = int(node_lid(tx, ty, w))
                if tx > x:
                    port = PORT_EAST
                elif tx < x:
                    port = PORT_WEST
                elif ty > y:
                    port = PORT_NORTH
                elif ty < y:
                    port = PORT_SOUTH
                else:
                    port = HCA_PORT
                sw.set_route(dest, port)
    return fabric


#: fat-tree switch layers (first element of a switch's coordinate tuple).
FT_EDGE, FT_AGG, FT_CORE = 0, 1, 2


def fat_tree_lid(pod: int, edge: int, host: int, k: int) -> LID:
    """LID of host *host* on edge switch *edge* of pod *pod*.  LID 0 is
    reserved, matching :func:`node_lid`."""
    half = k // 2
    return LID(1 + pod * half * half + edge * half + host)


def build_fat_tree(
    engine: Engine,
    config: SimConfig,
    metrics: MetricsCollector,
    registry: CounterRegistry | None = None,
    tracer: Tracer | None = None,
) -> Fabric:
    """Construct the k-ary fat tree described by *config* (k = fat_tree_k).

    Standard three-layer Clos: k pods, each with k/2 edge and k/2
    aggregation switches of k ports, over (k/2)^2 core switches; every
    edge switch hosts k/2 HCAs on ports 0..k/2-1 and uplinks on ports
    k/2..k-1.  k^3/4 HCAs total (k=4 -> 16, k=8 -> 128, k=16 -> 1024).

    Routing is deterministic and loop-free: up-paths hash on the
    destination LID (``(lid-1) % (k/2)`` picks the uplink at both edge
    and aggregation layers), so all traffic toward one destination uses
    one core; down-paths are fully determined by the tree.  Switch
    coordinates are ``(layer, index)`` with layer in (FT_EDGE, FT_AGG,
    FT_CORE).
    """
    config.validate()
    if config.topology != "fat_tree":
        raise ValueError("build_fat_tree needs config.topology == 'fat_tree'")
    fabric = Fabric(
        engine=engine, config=config, metrics=metrics,
        registry=registry if registry is not None else CounterRegistry(),
        tracer=tracer,
    )
    k = config.fat_tree_k
    half = k // 2
    byte_ps = config.byte_time_ps

    def make_switch(name: str) -> Switch:
        return Switch(
            engine,
            name=name,
            num_ports=k,
            num_vls=config.num_vls,
            vl_buffer_packets=config.vl_buffer_packets,
            routing_delay_ns=config.switch_routing_delay_ns,
            credit_return_delay_ns=config.credit_return_delay_ns,
            arbiter_high_limit=config.vl_arbitration_high_limit,
            registry=fabric.registry,
            tracer=tracer,
        )

    def wire(src: Switch, src_port: int, dst: Switch, dst_port: int) -> None:
        link = Link(
            engine, f"{src.name}.p{src_port}->{dst.name}.p{dst_port}", byte_ps,
            dst, dst_port, config.num_vls, config.vl_buffer_packets,
            config.wire_delay_ns, registry=fabric.registry, tracer=tracer,
        )
        src.attach_out_link(src_port, link)
        dst.attach_in_link(dst_port, link)

    # switches
    for pod in range(k):
        for i in range(half):
            fabric.switches[(FT_EDGE, pod * half + i)] = make_switch(f"ftE{pod}-{i}")
            fabric.switches[(FT_AGG, pod * half + i)] = make_switch(f"ftA{pod}-{i}")
    for c in range(half * half):
        fabric.switches[(FT_CORE, c)] = make_switch(f"ftC{c}")

    # HCAs and host links
    for pod in range(k):
        for e in range(half):
            sw = fabric.switches[(FT_EDGE, pod * half + e)]
            for h in range(half):
                lid = fat_tree_lid(pod, e, h, k)
                hca = HCA(
                    engine,
                    lid=lid,
                    num_vls=config.num_vls,
                    vl_buffer_packets=config.vl_buffer_packets,
                    processing_delay_ns=config.hca_processing_delay_ns,
                    credit_return_delay_ns=config.credit_return_delay_ns,
                    metrics=metrics,
                    warmup_ps=config.warmup_ps,
                    registry=fabric.registry,
                    tracer=tracer,
                    packet_ids=fabric.packet_ids,
                )
                fabric.hcas[int(lid)] = hca
                fabric.ingress_of[int(lid)] = (FT_EDGE, pod * half + e)
                fabric.ingress_port_of[int(lid)] = h
                up = Link(
                    engine, f"hca{int(lid)}->{sw.name}.p{h}", byte_ps, sw, h,
                    config.num_vls, config.vl_buffer_packets,
                    config.wire_delay_ns,
                    registry=fabric.registry, tracer=tracer,
                )
                hca.attach_out_link(up)
                sw.attach_in_link(h, up)
                down = Link(
                    engine, f"{sw.name}.p{h}->hca{int(lid)}", byte_ps, hca, 0,
                    config.num_vls, config.vl_buffer_packets,
                    config.wire_delay_ns,
                    registry=fabric.registry, tracer=tracer,
                )
                sw.attach_out_link(h, down)
                hca.attach_in_link(down)

    # edge <-> aggregation (edge port half+a <-> agg port e, within a pod)
    for pod in range(k):
        for e in range(half):
            edge = fabric.switches[(FT_EDGE, pod * half + e)]
            for a in range(half):
                agg = fabric.switches[(FT_AGG, pod * half + a)]
                wire(edge, half + a, agg, e)
                wire(agg, e, edge, half + a)

    # aggregation <-> core (agg a port half+j <-> core a*half+j port pod)
    for pod in range(k):
        for a in range(half):
            agg = fabric.switches[(FT_AGG, pod * half + a)]
            for j in range(half):
                core = fabric.switches[(FT_CORE, a * half + j)]
                wire(agg, half + j, core, pod)
                wire(core, pod, agg, half + j)

    # routing tables (deterministic destination-hashed up-paths), built
    # from the LID layout: LID 1 + pod*half^2 + edge*half + host.  The
    # up-port toward a LID is half + host, so an edge or aggregation table
    # is the shared "up" pattern with its own edge's hosts or pod's edges
    # written over it; a core table sends each pod's LID range to that pod.
    pod_size = half * half
    up_pattern = bytes([NO_ROUTE]) + bytes(range(half, k)) * (k * half)
    host_ports = bytes(range(half))
    pod_edges = bytes(e for e in range(half) for _ in range(half))
    core_pattern = bytes([NO_ROUTE]) + bytes(
        pod for pod in range(k) for _ in range(pod_size)
    )
    for pod in range(k):
        first = 1 + pod * pod_size
        for i in range(half):
            edge = fabric.switches[(FT_EDGE, pod * half + i)]
            edge.route_table = bytearray(up_pattern)
            edge.route_table[first + i * half:first + (i + 1) * half] = host_ports
            agg = fabric.switches[(FT_AGG, pod * half + i)]
            agg.route_table = bytearray(up_pattern)
            agg.route_table[first:first + pod_size] = pod_edges
    for c in range(half * half):
        fabric.switches[(FT_CORE, c)].route_table = bytearray(core_pattern)
    return fabric


def build_fabric(
    engine: Engine,
    config: SimConfig,
    metrics: MetricsCollector,
    registry: CounterRegistry | None = None,
    tracer: Tracer | None = None,
) -> Fabric:
    """Construct whichever fabric *config.topology* names."""
    builder = build_fat_tree if config.topology == "fat_tree" else build_mesh
    return builder(engine, config, metrics, registry=registry, tracer=tracer)


def path_length(fabric: Fabric, src: int, dst: int) -> int:
    """Number of switch hops between two nodes (XY on the mesh; the
    1/3/5-switch tree paths on a fat tree)."""
    if fabric.config.topology == "fat_tree":
        if int(src) == int(dst):
            return 1
        half = fabric.config.fat_tree_k // 2
        s_edge, d_edge = fabric.ingress_of[int(src)], fabric.ingress_of[int(dst)]
        if s_edge == d_edge:
            return 1
        if s_edge[1] // half == d_edge[1] // half:  # same pod
            return 3
        return 5
    sx, sy = fabric.ingress_of[int(src)]
    dx, dy = fabric.ingress_of[int(dst)]
    return abs(sx - dx) + abs(sy - dy) + 1


def recompute_routes(fabric: Fabric, avoid: set[tuple[int, int]] | None = None) -> int:
    """Rebuild every switch's forwarding table by BFS over *healthy* links.

    The Subnet Manager's fault response: after a switch crash or link
    failure it sweeps the subnet and reprograms forwarding so surviving
    traffic routes around the hole (minimal paths, no longer necessarily
    XY).  ``avoid`` lists crashed switches; links whose ``failed`` flag is
    set are skipped automatically.  Returns the number of (switch, dest)
    forwarding entries installed (unreachable pairs get none — packets to
    them die as unroutable, which is the honest degraded behaviour).

    Note: arbitrary minimal routing on a mesh lacks XY's deadlock-freedom
    guarantee; fault-recovery experiments should run at moderate load, as
    real degraded fabrics do.
    """
    from collections import deque

    avoid = avoid or set()
    # reverse adjacency over healthy directed links: B -> [(A, port on A)].
    # Walked via each switch's out_links (topology-agnostic): a link whose
    # dst is an HCA is not in coords_of and is skipped.  On the mesh the
    # port order 1..4 reproduces the old E,W,N,S scan exactly.
    coords_of = {id(sw): coords for coords, sw in fabric.switches.items()}
    reverse: dict[tuple[int, int], list[tuple[tuple[int, int], int]]] = {
        coords: [] for coords in fabric.switches
    }
    for coords, sw in fabric.switches.items():
        if coords in avoid:
            continue
        for port, link in enumerate(sw.out_links):
            if link is None or link.failed:
                continue
            ncoords = coords_of.get(id(link.dst))
            if ncoords is None or ncoords in avoid:
                continue
            reverse[ncoords].append((coords, port))

    for sw in fabric.all_switches():
        sw.route_table = bytearray()
    installed = 0
    for dest_lid, dest_coords in fabric.ingress_of.items():
        if dest_coords in avoid:
            continue
        fabric.switches[dest_coords].set_route(
            dest_lid, fabric.ingress_port(dest_lid)
        )
        installed += 1
        visited = {dest_coords}
        frontier = deque([dest_coords])
        while frontier:
            here = frontier.popleft()
            for upstream, port in reverse[here]:
                if upstream in visited:
                    continue
                fabric.switches[upstream].set_route(dest_lid, port)
                visited.add(upstream)
                frontier.append(upstream)
                installed += 1
    # flush/re-route packets already buffered toward dead outputs — the
    # resweep isn't complete until in-flight state matches the new tables
    for coords, sw in fabric.switches.items():
        if coords in avoid:
            continue
        sw.reroute_buffered()
    return installed
