"""Switch data path: routing, filtering hooks, credit conservation,
head-of-line behaviour — on a hand-wired 2-switch chain."""

import pytest

from repro.iba.link import Link
from repro.iba.switch import HCA_PORT, Switch
from repro.sim.engine import Engine

from tests.conftest import make_packet

BYTE_PS = 3200


class Sink:
    def __init__(self):
        self.received = []

    def receive(self, packet, in_port):
        self.received.append(packet)


def wire(engine, num_vls=2, credits=4, routing_ns=200.0):
    """HCA-ish source feeding switch port 0; switch port 1 -> sink."""
    sw = Switch(
        engine, "sw", num_ports=2, num_vls=num_vls, vl_buffer_packets=credits,
        routing_delay_ns=routing_ns, credit_return_delay_ns=40.0,
    )
    sink = Sink()
    out = Link(engine, "sw->sink", BYTE_PS, sink, 0, num_vls, credits)
    sw.attach_out_link(1, out)
    feed = Link(engine, "src->sw", BYTE_PS, sw, HCA_PORT, num_vls, credits)
    sw.attach_in_link(HCA_PORT, feed)
    sw.route_table[2] = 1  # dest LID 2 via port 1
    return sw, sink, feed, out


class TestForwarding:
    def test_packet_crosses(self, engine):
        sw, sink, feed, _ = wire(engine)
        feed.send(make_packet(dst=2, wire_length=100))
        engine.run()
        assert len(sink.received) == 1
        assert sw.forwarded == 1

    def test_fifo_order_per_vl(self, engine):
        sw, sink, feed, _ = wire(engine, credits=4)
        p1 = make_packet(dst=2, wire_length=100)
        p2 = make_packet(dst=2, wire_length=100)
        feed.send(p1)
        engine.run()  # p1 fully arrives and forwards

        def send_second():
            feed.send(p2)

        engine.schedule(0, send_second)
        engine.run()
        assert sink.received == [p1, p2]

    def test_unroutable_dropped(self, engine):
        sw, sink, feed, _ = wire(engine)
        feed.send(make_packet(dst=99, wire_length=100))
        engine.run()
        assert sink.received == []
        assert sw.unroutable_drops == 1

    def test_routing_delay_applied(self, engine):
        sw, sink, feed, _ = wire(engine, routing_ns=1000.0)
        feed.send(make_packet(dst=2, wire_length=100))
        engine.run()
        # ser in (320k) + wire 10ns + routing 1us + ser out (320k) + wire
        expected_min = 2 * 100 * BYTE_PS + 1_000_000
        assert engine.now >= expected_min


class TestCreditConservation:
    def test_upstream_credit_returns(self, engine):
        sw, sink, feed, _ = wire(engine)
        before = feed.credits[0]
        feed.send(make_packet(dst=2, wire_length=100))
        assert feed.credits[0] == before - 1
        engine.run()
        assert feed.credits[0] == before  # returned after forward completes

    def test_credit_returned_on_filtered_drop(self, engine):
        sw, sink, feed, _ = wire(engine)

        class DropAll:
            def process(self, packet, now):
                return False, 50.0

        sw.set_port_filter(HCA_PORT, DropAll())
        before = feed.credits[0]
        feed.send(make_packet(dst=2, wire_length=100))
        engine.run()
        assert sink.received == []
        assert sw.filtered_drops == 1
        assert feed.credits[0] == before

    def test_credit_returned_on_unroutable(self, engine):
        sw, sink, feed, _ = wire(engine)
        before = feed.credits[0]
        feed.send(make_packet(dst=42, wire_length=100))
        engine.run()
        assert feed.credits[0] == before

    def test_downstream_backpressure(self, engine):
        """With zero downstream credits the packet waits in the switch."""
        sw, sink, feed, out = wire(engine)
        out.credits[0] = 0
        feed.send(make_packet(dst=2, wire_length=100))
        engine.run()
        assert sink.received == []
        assert sw.inputs[HCA_PORT].fifos[0].occupancy == 1
        out.return_credit(0)
        engine.run()
        assert len(sink.received) == 1


class TestFilterHook:
    def test_filter_sees_packets_and_stalls(self, engine):
        sw, sink, feed, _ = wire(engine)
        seen = []

        class Spy:
            def process(self, packet, now):
                seen.append(packet)
                return True, 123.0

        sw.set_port_filter(HCA_PORT, Spy())
        feed.send(make_packet(dst=2, wire_length=100))
        engine.run()
        assert len(seen) == 1
        assert sw.lookup_stalls_ns == 123.0
        assert len(sink.received) == 1

    def test_no_filter_no_stall(self, engine):
        sw, sink, feed, _ = wire(engine)
        feed.send(make_packet(dst=2, wire_length=100))
        engine.run()
        assert sw.lookup_stalls_ns == 0.0


class TestPumpProgress:
    def test_new_head_to_other_port_not_stuck(self, engine):
        """Regression for the missed-wakeup bug: after a pop exposes a head
        destined to a different (idle) output port, that packet must still
        be forwarded."""
        sw = Switch(engine, "sw", num_ports=3, num_vls=2, vl_buffer_packets=4,
                    routing_delay_ns=0.0, credit_return_delay_ns=0.0)
        s1, s2 = Sink(), Sink()
        sw.attach_out_link(1, Link(engine, "o1", BYTE_PS, s1, 0, 2, 4))
        sw.attach_out_link(2, Link(engine, "o2", BYTE_PS, s2, 0, 2, 4))
        sw.route_table[2] = 1
        sw.route_table[3] = 2
        # Two packets on the same input VL FIFO: first to port 1, then port 2.
        sw.receive(make_packet(dst=2, wire_length=1000), 0)
        sw.receive(make_packet(dst=3, wire_length=1000), 0)
        engine.run()
        assert len(s1.received) == 1
        assert len(s2.received) == 1


class TestReadyHeadIndex:
    """The arbitration index: _head_ready[port][vl] must always equal a
    from-scratch recount of the input FIFO heads, under both queues."""

    @staticmethod
    def assert_index_consistent(sw):
        maintained = (sw._head_ready, sw._head_ready_total)
        assert maintained == sw.count_head_ready(), sw.name

    @pytest.mark.parametrize("mode", ["wheel", "heap"])
    def test_index_matches_recount_through_congested_run(self, mode):
        """All-pairs burst through a 3x3 mesh with tiny buffers: pause the
        run repeatedly and require the maintained counts to equal a fresh
        recount on every switch — mid-congestion, not just at quiescence."""
        from repro.iba.topology import build_mesh
        from repro.sim.config import SimConfig
        from repro.sim.metrics import MetricsCollector

        engine = Engine(scheduler=mode)
        cfg = SimConfig(mesh_width=3, mesh_height=3, num_partitions=1,
                        vl_buffer_packets=2,
                        enable_realtime=False, enable_best_effort=False)
        f = build_mesh(engine, cfg, MetricsCollector())
        for src in f.lids:
            for dst in f.lids:
                if src != dst:
                    f.hca(src).submit(make_packet(src=src, dst=dst,
                                                  wire_length=400))
        horizon = 0
        for _ in range(25):
            horizon += 2_000_000  # 2 us slices
            engine.run(until=horizon)
            for sw in f.all_switches():
                self.assert_index_consistent(sw)
        engine.run()
        for sw in f.all_switches():
            self.assert_index_consistent(sw)
            assert sw._head_ready_total == [0] * sw.num_ports

    @pytest.mark.parametrize("mode", ["wheel", "heap"])
    def test_reroute_rebuilds_index(self, mode):
        """reroute_buffered edits ready FIFOs in place; the index must be
        recounted against the new route table."""
        from repro.iba.topology import build_mesh, recompute_routes
        from repro.sim.config import SimConfig
        from repro.sim.metrics import MetricsCollector

        engine = Engine(scheduler=mode)
        cfg = SimConfig(mesh_width=3, mesh_height=3, num_partitions=1,
                        vl_buffer_packets=2,
                        enable_realtime=False, enable_best_effort=False)
        f = build_mesh(engine, cfg, MetricsCollector())
        for src in f.lids:
            for dst in f.lids:
                if src != dst:
                    f.hca(src).submit(make_packet(src=src, dst=dst,
                                                  wire_length=400))
        engine.run(until=10_000_000)  # mid-flight, buffers occupied
        victim = f.switches[(1, 1)]
        for link in victim.out_links:
            if link is not None:
                link.failed = True
        recompute_routes(f, avoid={(1, 1)})
        for sw in f.all_switches():
            if sw is not victim:
                sw.reroute_buffered()
                self.assert_index_consistent(sw)
