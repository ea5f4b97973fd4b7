"""Mesh and fat-tree construction: port counts, link wiring, routing,
delivery."""

import pytest

from repro.iba.switch import HCA_PORT, NO_ROUTE
from repro.iba.topology import (
    FT_AGG,
    FT_CORE,
    FT_EDGE,
    PORT_EAST,
    PORT_NORTH,
    PORT_SOUTH,
    PORT_WEST,
    build_fabric,
    build_fat_tree,
    build_mesh,
    fat_tree_lid,
    node_lid,
    path_length,
)
from repro.sim.config import SimConfig
from repro.sim.engine import Engine
from repro.sim.metrics import MetricsCollector

from tests.conftest import make_packet


def fabric_of(width, height, **kwargs):
    cfg = SimConfig(
        mesh_width=width, mesh_height=height,
        num_partitions=1, enable_realtime=False, enable_best_effort=False,
        **kwargs,
    )
    return build_mesh(Engine(), cfg, MetricsCollector())


class TestConstruction:
    def test_paper_testbed_shape(self):
        f = fabric_of(4, 4)
        assert len(f.switches) == 16
        assert len(f.hcas) == 16
        assert f.lids == list(range(1, 17))

    def test_every_switch_has_five_ports(self):
        f = fabric_of(4, 4)
        for sw in f.all_switches():
            assert sw.num_ports == 5

    def test_corner_switch_has_two_neighbours(self):
        f = fabric_of(4, 4)
        corner = f.switches[(0, 0)]
        wired = [l for l in corner.out_links if l is not None]
        # 1 HCA + 2 neighbours
        assert len(wired) == 3

    def test_center_switch_has_four_neighbours(self):
        f = fabric_of(4, 4)
        center = f.switches[(1, 1)]
        wired = [l for l in center.out_links if l is not None]
        assert len(wired) == 5

    def test_in_and_out_links_paired(self):
        f = fabric_of(3, 3)
        for sw in f.all_switches():
            for port in range(sw.num_ports):
                assert (sw.out_links[port] is None) == (sw.in_links[port] is None)

    def test_lid_layout(self):
        assert int(node_lid(0, 0, 4)) == 1
        assert int(node_lid(3, 0, 4)) == 4
        assert int(node_lid(0, 1, 4)) == 5
        assert int(node_lid(3, 3, 4)) == 16

    def test_ingress_map(self):
        f = fabric_of(4, 4)
        assert f.ingress_of[1] == (0, 0)
        assert f.ingress_of[16] == (3, 3)
        assert f.ingress_switch(6) is f.switches[(1, 1)]

    def test_line_builder(self):
        engine = Engine()
        cfg = SimConfig(mesh_width=4, mesh_height=3, num_partitions=1,
                        enable_realtime=False, enable_best_effort=False)
        f = build_mesh(engine, cfg.replace(mesh_height=1), MetricsCollector())
        assert len(f.switches) == 4


class TestRouting:
    def test_route_to_self_is_hca_port(self):
        f = fabric_of(4, 4)
        assert f.switches[(2, 1)].route_table[int(node_lid(2, 1, 4))] == HCA_PORT

    def test_full_reachability(self):
        """Follow the route tables from every src to every dst: must reach
        the destination switch without loops (XY is minimal)."""
        from repro.iba.topology import PORT_EAST, PORT_NORTH, PORT_SOUTH, PORT_WEST

        step = {PORT_EAST: (1, 0), PORT_WEST: (-1, 0), PORT_NORTH: (0, 1), PORT_SOUTH: (0, -1)}
        f = fabric_of(4, 4)
        for src in f.lids:
            for dst in f.lids:
                pos = f.ingress_of[src]
                hops = 0
                while True:
                    port = f.switches[pos].route_table[dst]
                    if port == HCA_PORT:
                        break
                    dx, dy = step[port]
                    pos = (pos[0] + dx, pos[1] + dy)
                    hops += 1
                    assert hops <= 6, "routing loop"
                assert pos == f.ingress_of[dst]

    def test_xy_goes_x_first(self):
        from repro.iba.topology import PORT_EAST

        f = fabric_of(4, 4)
        # from (0,0) to node at (3,3): first hop must be EAST
        assert f.switches[(0, 0)].route_table[int(node_lid(3, 3, 4))] == PORT_EAST

    def test_path_length(self):
        f = fabric_of(4, 4)
        assert path_length(f, 1, 1) == 1  # same switch
        assert path_length(f, 1, 2) == 2
        assert path_length(f, 1, 16) == 7  # 3+3 switch-to-switch + 1


def fat_tree_of(k, **kwargs):
    cfg = SimConfig(
        topology="fat_tree", fat_tree_k=k,
        num_partitions=1, enable_realtime=False, enable_best_effort=False,
        **kwargs,
    )
    return build_fat_tree(Engine(), cfg, MetricsCollector())


def walk_route(fabric, src, dst):
    """Follow the route tables from src's edge switch until the packet
    would exit onto dst's HCA; return the switches visited."""
    from repro.iba.hca import HCA

    sw = fabric.ingress_switch(src)
    visited = [sw]
    for _ in range(6):
        port = sw.route_table[dst]
        link = sw.out_links[port]
        assert link is not None, f"{sw.name} routes {dst} to unwired port {port}"
        nxt = link.dst
        if isinstance(nxt, HCA):
            assert int(nxt.lid) == dst
            return visited
        sw = nxt
        visited.append(sw)
    raise AssertionError(f"routing loop {src}->{dst}: {[s.name for s in visited]}")


class TestFatTreeConstruction:
    def test_k4_shape(self):
        f = fat_tree_of(4)
        assert len(f.hcas) == 16                       # k^3/4
        assert len(f.switches) == 20                   # 8 edge + 8 agg + 4 core
        assert f.lids == list(range(1, 17))
        layers = [coord[0] for coord in f.switches]
        assert layers.count(FT_EDGE) == 8
        assert layers.count(FT_AGG) == 8
        assert layers.count(FT_CORE) == 4

    def test_k8_scales_cubically(self):
        f = fat_tree_of(8)
        assert len(f.hcas) == 128
        assert len(f.switches) == 8 * 4 + 8 * 4 + 16

    def test_every_switch_has_k_ports(self):
        f = fat_tree_of(4)
        for sw in f.all_switches():
            assert sw.num_ports == 4

    def test_every_port_fully_wired(self):
        """A fat tree has no spare ports: k/2 down + k/2 up everywhere."""
        f = fat_tree_of(4)
        for sw in f.all_switches():
            assert all(l is not None for l in sw.out_links), sw.name
            assert all(l is not None for l in sw.in_links), sw.name

    def test_lid_layout(self):
        assert int(fat_tree_lid(0, 0, 0, 4)) == 1
        assert int(fat_tree_lid(0, 0, 1, 4)) == 2
        assert int(fat_tree_lid(0, 1, 0, 4)) == 3
        assert int(fat_tree_lid(1, 0, 0, 4)) == 5
        assert int(fat_tree_lid(3, 1, 1, 4)) == 16

    def test_lids_unique_and_ingress_consistent(self):
        f = fat_tree_of(4)
        assert len(set(f.lids)) == len(f.lids)
        for lid in f.lids:
            layer, idx = f.ingress_of[lid]
            assert layer == FT_EDGE
            port = f.ingress_port_of[lid]
            assert int(f.switches[(layer, idx)].out_links[port].dst.lid) == lid

    def test_build_fabric_dispatches_on_topology(self):
        cfg = SimConfig(topology="fat_tree", fat_tree_k=4, num_partitions=1,
                        enable_realtime=False, enable_best_effort=False)
        f = build_fabric(Engine(), cfg, MetricsCollector())
        assert (FT_CORE, 0) in f.switches
        mesh_cfg = SimConfig(mesh_width=2, mesh_height=2, num_partitions=1,
                             enable_realtime=False, enable_best_effort=False)
        m = build_fabric(Engine(), mesh_cfg, MetricsCollector())
        assert (0, 0) in m.switches and (FT_CORE, 0) not in m.switches

    def test_wrong_topology_rejected(self):
        cfg = SimConfig(mesh_width=2, mesh_height=2, num_partitions=1,
                        enable_realtime=False, enable_best_effort=False)
        with pytest.raises(ValueError, match="fat_tree"):
            build_fat_tree(Engine(), cfg, MetricsCollector())


class TestFatTreeRouting:
    def test_full_reachability_and_hop_counts(self):
        """Route-table walk for every pair reaches the destination HCA in
        exactly path_length() switches (1 same-edge, 3 same-pod, 5 inter-pod)."""
        f = fat_tree_of(4)
        for src in f.lids:
            for dst in f.lids:
                if src == dst:
                    continue
                visited = walk_route(f, src, dst)
                assert len(visited) == path_length(f, src, dst), (src, dst)

    def test_path_length_tiers(self):
        f = fat_tree_of(4)
        assert path_length(f, 1, 1) == 1   # same node
        assert path_length(f, 1, 2) == 1   # same edge switch
        assert path_length(f, 1, 3) == 3   # same pod, different edge
        assert path_length(f, 1, 16) == 5  # different pod (via core)

    def test_route_to_local_host_is_host_port(self):
        f = fat_tree_of(4)
        edge = f.switches[(FT_EDGE, 0)]
        assert edge.route_table[1] == 0
        assert edge.route_table[2] == 1

    def test_inter_pod_route_transits_core(self):
        f = fat_tree_of(4)
        visited = walk_route(f, 1, 16)
        layers = [next(c for c, s in f.switches.items() if s is sw)[0]
                  for sw in visited]
        assert layers == [FT_EDGE, FT_AGG, FT_CORE, FT_AGG, FT_EDGE]


def old_fat_tree_routes(k, layer, index, lids):
    """The fat tree's per-LID routing formula, one dict entry per LID."""
    half = k // 2
    pod, i = divmod(index, half)
    routes = {}
    for lid in lids:
        lid0 = lid - 1
        dpod = lid0 // (half * half)
        dedge = (lid0 % (half * half)) // half
        dhost = lid0 % half
        up = half + lid0 % half
        if layer == FT_EDGE:
            routes[lid] = dhost if dpod == pod and dedge == i else up
        elif layer == FT_AGG:
            routes[lid] = dedge if dpod == pod else up
        else:
            routes[lid] = dpod
    return routes


def old_mesh_routes(x, y, w, h):
    """Dimension-ordered (X then Y) routes of switch (x, y), per LID."""
    routes = {}
    for ty in range(h):
        for tx in range(w):
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
            routes[int(node_lid(tx, ty, w))] = port
    return routes


def as_table(routes):
    """A per-LID route dict as the byte table it must equal."""
    table = bytearray([NO_ROUTE]) * (max(routes) + 1)
    for lid, port in routes.items():
        table[lid] = port
    return table


class TestRouteTableOracle:
    """Byte route tables equal the per-LID formulas they replaced."""

    @pytest.mark.parametrize("k", [4, 8, 16])
    def test_fat_tree_tables_match_per_lid_formula(self, k):
        f = fat_tree_of(k)
        for (layer, index), sw in f.switches.items():
            expected = old_fat_tree_routes(k, layer, index, f.lids)
            assert sw.route_table == as_table(expected), sw.name
            assert sw.route_table[0] == NO_ROUTE
            assert sw.route(0) is None

    @pytest.mark.parametrize("w,h", [(4, 4), (3, 5)])
    def test_mesh_tables_match_xy_loop(self, w, h):
        f = fabric_of(w, h)
        for (x, y), sw in f.switches.items():
            assert sw.route_table == as_table(old_mesh_routes(x, y, w, h)), sw.name
            assert sw.route_table[0] == NO_ROUTE

    def test_k16_tables_hold_one_byte_per_lid(self):
        """A deterministic size bound: a regression to per-switch dicts or
        to oversized tables breaks it."""
        f = fat_tree_of(16)
        assert all(type(sw.route_table) is bytearray for sw in f.switches.values())
        total = sum(len(sw.route_table) for sw in f.switches.values())
        assert total <= len(f.switches) * (max(f.lids) + 1)

    def test_tables_are_not_shared_between_switches(self):
        f = fat_tree_of(4)
        tables = [sw.route_table for sw in f.switches.values()]
        assert len({id(t) for t in tables}) == len(tables)

    @pytest.mark.parametrize("topology", ["mesh", "fat_tree"])
    def test_dlid_past_every_table_is_an_unroutable_drop(self, topology):
        f = fabric_of(4, 4) if topology == "mesh" else fat_tree_of(4)
        hca = f.hca(1)
        hca.out_link.send(make_packet(src=1, dst=0xBFFF, wire_length=100))
        f.engine.run()
        assert f.ingress_switch(1).unroutable_drops == 1
        assert sum(sw.forwarded for sw in f.switches.values()) == 0
        assert hca.out_link.credits == [f.config.vl_buffer_packets] * f.config.num_vls


class TestFatTreeDelivery:
    def test_inter_pod_packet_delivers(self):
        engine = Engine()
        cfg = SimConfig(topology="fat_tree", fat_tree_k=4, num_partitions=1,
                        enable_realtime=False, enable_best_effort=False)
        f = build_fat_tree(engine, cfg, MetricsCollector())
        from repro.iba.keys import PKey, QKey
        from repro.iba.qp import QueuePair
        from repro.iba.types import QPN, ServiceType

        dst = f.hca(16)
        dst.keys.grant_pkey(PKey(0x8001))
        dst.add_qp(QueuePair(qpn=QPN(0x102), service=ServiceType.UNRELIABLE_DATAGRAM,
                             pkey=PKey(0x8001), qkey=QKey(0x1234)))
        f.hca(1).submit(make_packet(src=1, dst=16, wire_length=1058))
        engine.run()
        assert dst.delivered == 1

    def test_every_pair_delivers(self):
        engine = Engine()
        cfg = SimConfig(topology="fat_tree", fat_tree_k=4, num_partitions=1,
                        enable_realtime=False, enable_best_effort=False)
        f = build_fat_tree(engine, cfg, MetricsCollector())
        from repro.iba.keys import PKey, QKey
        from repro.iba.qp import QueuePair
        from repro.iba.types import QPN, ServiceType

        for lid in f.lids:
            h = f.hca(lid)
            h.keys.grant_pkey(PKey(0x8001))
            h.add_qp(QueuePair(qpn=QPN(0x102), service=ServiceType.UNRELIABLE_DATAGRAM,
                               pkey=PKey(0x8001), qkey=QKey(0x1234)))
        sent = 0
        for src in f.lids:
            for dst in f.lids:
                if src != dst:
                    f.hca(src).submit(make_packet(src=src, dst=dst, wire_length=200))
                    sent += 1
        engine.run()
        assert sum(h.delivered for h in f.hcas.values()) == sent


class TestEndToEndDelivery:
    def test_packet_travels_across_mesh(self):
        engine = Engine()
        cfg = SimConfig(mesh_width=4, mesh_height=4, num_partitions=1,
                        enable_realtime=False, enable_best_effort=False)
        f = build_mesh(engine, cfg, MetricsCollector())
        from repro.iba.keys import PKey, QKey
        from repro.iba.qp import QueuePair
        from repro.iba.types import QPN, ServiceType

        dst = f.hca(16)
        dst.keys.grant_pkey(PKey(0x8001))
        dst.add_qp(QueuePair(qpn=QPN(0x102), service=ServiceType.UNRELIABLE_DATAGRAM,
                             pkey=PKey(0x8001), qkey=QKey(0x1234)))
        p = make_packet(src=1, dst=16, wire_length=1058)
        f.hca(1).submit(p)
        engine.run()
        assert dst.delivered == 1
        # latency sanity: 7 links of ~3.39us each plus per-hop costs
        assert 20 < engine.now / 1e6 < 40

    def test_every_pair_delivers(self):
        engine = Engine()
        cfg = SimConfig(mesh_width=3, mesh_height=3, num_partitions=1,
                        enable_realtime=False, enable_best_effort=False)
        f = build_mesh(engine, cfg, MetricsCollector())
        from repro.iba.keys import PKey, QKey
        from repro.iba.qp import QueuePair
        from repro.iba.types import QPN, ServiceType

        for lid in f.lids:
            h = f.hca(lid)
            h.keys.grant_pkey(PKey(0x8001))
            h.add_qp(QueuePair(qpn=QPN(0x102), service=ServiceType.UNRELIABLE_DATAGRAM,
                               pkey=PKey(0x8001), qkey=QKey(0x1234)))
        sent = 0
        for src in f.lids:
            for dst in f.lids:
                if src != dst:
                    f.hca(src).submit(make_packet(src=src, dst=dst, wire_length=200))
                    sent += 1
        engine.run()
        assert sum(h.delivered for h in f.hcas.values()) == sent
