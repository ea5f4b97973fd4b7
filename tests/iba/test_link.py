"""Link: serialization timing, credit consumption/return, callbacks."""

import pytest

from repro.iba.link import Link
from repro.sim.engine import Engine

from tests.conftest import make_packet


class Sink:
    def __init__(self):
        self.received = []

    def receive(self, packet, in_port):
        self.received.append((packet, in_port))


@pytest.fixture
def link_setup():
    engine = Engine()
    sink = Sink()
    link = Link(
        engine, "test-link", byte_time_ps=3200, dst=sink, dst_port=2,
        num_vls=16, credits_per_vl=4, wire_delay_ns=10.0,
    )
    return engine, sink, link


class TestSerialization:
    def test_timing(self, link_setup):
        engine, sink, link = link_setup
        p = make_packet(wire_length=1000)
        link.send(p)
        engine.run()
        # 1000 bytes * 3200 ps + 10ns wire
        assert engine.now == 1000 * 3200 + 10_000
        assert sink.received == [(p, 2)]

    def test_busy_while_transmitting(self, link_setup):
        engine, _, link = link_setup
        link.send(make_packet())
        assert link.busy
        engine.run()
        assert not link.busy

    def test_double_send_rejected(self, link_setup):
        _, _, link = link_setup
        link.send(make_packet())
        with pytest.raises(RuntimeError):
            link.send(make_packet())

    def test_stats(self, link_setup):
        engine, _, link = link_setup
        link.send(make_packet(wire_length=500))
        engine.run()
        assert link.packets_sent == 1
        assert link.bytes_sent == 500


class TestCredits:
    def test_send_consumes_credit(self, link_setup):
        engine, _, link = link_setup
        assert link.credits[0] == 4
        link.send(make_packet(vl=0))
        assert link.credits[0] == 3

    def test_per_vl_accounting(self, link_setup):
        engine, _, link = link_setup
        link.send(make_packet(vl=1))
        assert link.credits[1] == 3
        assert link.credits[0] == 4

    def test_no_credit_rejected(self, link_setup):
        engine, _, link = link_setup
        link.credits[0] = 0
        with pytest.raises(RuntimeError):
            link.send(make_packet(vl=0))

    def test_can_send(self, link_setup):
        engine, _, link = link_setup
        assert link.can_send(0)
        link.credits[0] = 0
        assert not link.can_send(0)
        link.credits[0] = 1
        link.send(make_packet(vl=0))
        assert not link.can_send(1)  # busy now

    def test_return_credit_fires_callback(self, link_setup):
        _, _, link = link_setup
        got = []
        link.on_credit = got.append
        link.return_credit(3)
        assert got == [3]
        assert link.credits[3] == 5


class TestFailureAndTap:
    def test_failed_link_rejects_sends(self, link_setup):
        _, _, link = link_setup
        link.fail()
        assert not link.can_send(0)
        with pytest.raises(RuntimeError):
            link.send(make_packet())

    def test_inflight_frame_completes_after_failure(self, link_setup):
        engine, sink, link = link_setup
        link.send(make_packet(wire_length=100))
        link.fail()
        engine.run()
        assert len(sink.received) == 1  # already on the wire

    def test_restore_rearms_sender(self, link_setup):
        engine, _, link = link_setup
        poked = []
        link.on_credit = poked.append
        link.fail()
        link.restore()
        assert not link.failed
        assert poked  # sender scheduler re-armed

    def test_tap_sees_every_packet(self, link_setup):
        engine, _, link = link_setup
        seen = []
        link.tap = seen.append
        p = make_packet(wire_length=50)
        link.send(p)
        engine.run()
        assert seen == [p]


class TestCallbacks:
    def test_on_free_after_transmit(self, link_setup):
        engine, _, link = link_setup
        freed = []
        link.on_free = lambda: freed.append(engine.now)
        link.send(make_packet(wire_length=100))
        engine.run()
        assert freed == [100 * 3200]

    def test_arrival_after_wire_delay(self, link_setup):
        engine, sink, link = link_setup
        link.send(make_packet(wire_length=100))
        engine.run(until=100 * 3200)
        assert sink.received == []  # still on the wire
        engine.run()
        assert len(sink.received) == 1


class TestLazyCreditReturn:
    """A scheduled credit return queues no event unless the sender waits on
    its VL; either way it counts from its own queue key on."""

    def test_unwaited_return_counts_once_the_clock_passes_it(self, link_setup):
        engine, _, link = link_setup
        link.credits[0] = 0
        seen = []
        engine.schedule(500, lambda: seen.append(link.credits[0]))
        link.schedule_credit(500, 0)
        assert engine.pending_count == 1  # no event for the return
        assert link.credits[0] == 0
        engine.schedule(499, lambda: seen.append(link.credits[0]))
        engine.schedule(500, lambda: seen.append(link.credits[0]))
        engine.run()
        # the return's key sits between the two events stamped 500
        assert seen == [0, 0, 1]
        assert link.credits[0] == 1

    def test_drained_run_ends_at_the_last_return(self, link_setup):
        engine, _, link = link_setup
        link.schedule_credit(700, 1)
        link.schedule_credit(300, 1)
        engine.run()
        assert engine.now == 700
        assert link.credits[1] == 6
        assert link.pending_returns(1) == 0

    def test_waiting_sender_is_woken_at_the_return(self, link_setup):
        engine, _, link = link_setup
        link.credits[0] = 0
        woken = []
        link.on_credit = lambda vl: woken.append((engine.now, vl, link.credits[vl]))
        link.wait_credit(1 << 0)
        link.schedule_credit(900, 0)
        link.schedule_credit(400, 0)  # later reserved, earlier key: woken too
        link.schedule_credit(950, 0)  # behind a queued return: not woken
        assert engine.pending_count == 2
        engine.run()
        assert woken == [(400, 0, 1), (900, 0, 2)]
        assert link.credits[0] == 3

    def test_wait_credit_wakes_the_earliest_return_per_vl(self, link_setup):
        engine, _, link = link_setup
        for delay, vl in ((300, 1), (200, 0), (100, 1), (400, 0)):
            link.schedule_credit(delay, vl)
        woken = []
        link.on_credit = lambda vl: woken.append((engine.now, vl))
        link.wait_credit((1 << 0) | (1 << 1))
        link.wait_credit((1 << 0) | (1 << 1))  # already queued: no duplicates
        assert engine.pending_count == 2
        engine.run()
        assert woken == [(100, 1), (200, 0)]

    def test_send_clears_the_wait(self, link_setup):
        engine, _, link = link_setup
        link.wait_credit(1 << 0)
        link.send(make_packet(vl=0))
        link.schedule_credit(100, 0)
        assert engine.pending_count == 1  # only the transmission
