"""HCA: send-queue priority, timestamps, receive checks (P_Key, Q_Key,
ICRC/auth, replay), violation counters and trap emission."""

from collections import deque

import pytest

from repro.core.auth import IcrcAuthService
from repro.iba import crc as ibacrc
from repro.iba.hca import HCA
from repro.iba.keys import PKey, QKey
from repro.iba.link import Link
from repro.iba.qp import QueuePair
from repro.iba.types import LID, QPN, ServiceType, TrafficClass, VL_BEST_EFFORT, VL_REALTIME
from repro.sim.engine import Engine, PS_PER_US
from repro.sim.metrics import MetricsCollector

from tests.conftest import make_packet

BYTE_PS = 3200


class Sink:
    def __init__(self):
        self.received = []

    def receive(self, packet, in_port):
        self.received.append(packet)


def make_hca(engine, lid=1, metrics=None, credits=4):
    return HCA(
        engine, lid=LID(lid), num_vls=2, vl_buffer_packets=credits,
        processing_delay_ns=100.0, credit_return_delay_ns=40.0,
        metrics=metrics or MetricsCollector(), warmup_ps=0,
    )


def receiving_hca(engine, pkey=PKey(0x8001), qkey=QKey(0x1234), qpn=QPN(0x102), credits=8):
    hca = make_hca(engine, lid=2, credits=credits)
    hca.keys.grant_pkey(pkey)
    hca.add_qp(QueuePair(qpn=qpn, service=ServiceType.UNRELIABLE_DATAGRAM, pkey=pkey, qkey=qkey))
    return hca


class TestSendPath:
    def test_injection_sets_timestamps(self, engine):
        hca = make_hca(engine)
        sink = Sink()
        hca.attach_out_link(Link(engine, "l", BYTE_PS, sink, 0, 2, 4))
        engine.run(until=500)
        p = make_packet(wire_length=100)
        hca.submit(p)
        engine.run()
        assert p.t_created == 500
        assert p.t_injected == 500  # link idle: starts immediately
        assert sink.received == [p]

    def test_queuing_when_link_busy(self, engine):
        hca = make_hca(engine)
        sink = Sink()
        hca.attach_out_link(Link(engine, "l", BYTE_PS, sink, 0, 2, 4))
        p1 = make_packet(wire_length=1000)
        p2 = make_packet(wire_length=1000)
        hca.submit(p1)
        hca.submit(p2)
        engine.run()
        assert p2.t_injected == p1.t_injected + 1000 * BYTE_PS
        assert sink.received == [p1, p2]

    def test_realtime_priority_in_queue(self, engine):
        hca = make_hca(engine)
        sink = Sink()
        link = Link(engine, "l", BYTE_PS, sink, 0, 2, 4)
        hca.attach_out_link(link)
        blocker = make_packet(vl=VL_BEST_EFFORT, wire_length=1000)
        be = make_packet(vl=VL_BEST_EFFORT, wire_length=100)
        rt = make_packet(vl=VL_REALTIME, wire_length=100)
        hca.submit(blocker)  # occupies the wire
        hca.submit(be)
        hca.submit(rt)
        engine.run()
        assert sink.received == [blocker, rt, be]

    def test_credit_starvation_holds_packet(self, engine):
        hca = make_hca(engine)
        sink = Sink()
        link = Link(engine, "l", BYTE_PS, sink, 0, 2, 4)
        hca.attach_out_link(link)
        link.credits[VL_BEST_EFFORT] = 0
        p = make_packet(vl=VL_BEST_EFFORT, wire_length=100)
        hca.submit(p)
        engine.run()
        assert sink.received == []
        link.return_credit(VL_BEST_EFFORT)
        engine.run()
        assert sink.received == [p]

    def test_queue_depth(self, engine):
        hca = make_hca(engine)  # no out link: everything queues
        hca.out_link = None
        hca._enqueue(make_packet(vl=VL_BEST_EFFORT))
        hca._enqueue(make_packet(vl=VL_BEST_EFFORT))
        hca._enqueue(make_packet(vl=VL_REALTIME))
        assert hca.queue_depth(TrafficClass.BEST_EFFORT) == 2
        assert hca.queue_depth(TrafficClass.REALTIME) == 1


class TestSendQueueAllocation:
    def test_fresh_hca_holds_no_queue(self, engine):
        hca = HCA(
            engine, lid=LID(1), num_vls=16, vl_buffer_packets=4,
            processing_delay_ns=0.0, credit_return_delay_ns=0.0,
        )
        assert len(hca.send_queues) == 16
        assert not any(isinstance(q, deque) for q in hca.send_queues)
        assert hca.queued_tx_count() == 0
        assert hca.queue_depth(TrafficClass.REALTIME) == 0

    def test_first_packet_creates_only_its_vl_queue(self, engine):
        hca = make_hca(engine)  # no out link: everything queues
        first, second = make_packet(vl=VL_REALTIME), make_packet(vl=VL_REALTIME)
        hca._enqueue(first)
        hca._enqueue(second)
        queued = [vl for vl, q in enumerate(hca.send_queues) if isinstance(q, deque)]
        assert queued == [VL_REALTIME]
        assert list(hca.send_queues[VL_REALTIME]) == [first, second]
        assert hca.queue_depth(TrafficClass.BEST_EFFORT) == 0
        assert hca.queued_tx_count() == 2


class TestReceiveChecks:
    def _deliver(self, engine, hca, packet):
        hca.receive(packet)
        engine.run()

    def test_valid_packet_delivered(self, engine):
        hca = receiving_hca(engine)
        p = make_packet()
        self._deliver(engine, hca, p)
        assert hca.delivered == 1
        assert hca.metrics.delivered == 1

    def test_invalid_pkey_dropped_and_counted(self, engine):
        hca = receiving_hca(engine)
        p = make_packet(pkey=PKey(0x8999))
        self._deliver(engine, hca, p)
        assert hca.delivered == 0
        assert hca.pkey_violations == 1
        assert hca.metrics.dropped == {"pkey": 1}

    def test_limited_member_pair_rejected(self, engine):
        hca = make_hca(engine, lid=2)
        hca.keys.grant_pkey(PKey(0x0001))  # limited membership
        p = make_packet(pkey=PKey(0x0001))  # limited sender too
        self._deliver(engine, hca, p)
        assert hca.pkey_violations == 1

    def test_wrong_qkey_dropped(self, engine):
        hca = receiving_hca(engine, qkey=QKey(0x1234))
        p = make_packet(qkey=QKey(0x9999))
        self._deliver(engine, hca, p)
        assert hca.qkey_violations == 1
        assert hca.delivered == 0

    def test_unknown_qp_dropped(self, engine):
        hca = receiving_hca(engine)
        p = make_packet(dest_qp=0x777)
        self._deliver(engine, hca, p)
        assert hca.qkey_violations == 1

    def test_icrc_auth_rejects_corruption(self, engine):
        hca = receiving_hca(engine)
        hca.auth = IcrcAuthService()
        p = ibacrc.stamp(make_packet())
        p.payload = b"flipped-bits!"
        self._deliver(engine, hca, p)
        assert hca.auth_failures == 1
        assert hca.metrics.dropped == {"auth": 1}

    def test_icrc_auth_accepts_good(self, engine):
        hca = receiving_hca(engine)
        hca.auth = IcrcAuthService()
        p = ibacrc.stamp(make_packet())
        self._deliver(engine, hca, p)
        assert hca.delivered == 1

    def test_replay_detection(self, engine):
        hca = receiving_hca(engine)
        hca.replay_protection = True
        p1 = make_packet(psn=5)
        self._deliver(engine, hca, p1)
        replayed = make_packet(psn=5)
        self._deliver(engine, hca, replayed)
        assert hca.delivered == 1
        assert hca.replay_drops == 1

    def test_replay_allows_advancing_psn(self, engine):
        hca = receiving_hca(engine)
        hca.replay_protection = True
        for psn in (1, 2, 3):
            self._deliver(engine, hca, make_packet(psn=psn))
        assert hca.delivered == 3

    def test_warmup_excludes_samples(self, engine):
        hca = receiving_hca(engine)
        hca.warmup_ps = 10**9
        p = make_packet()
        self._deliver(engine, hca, p)
        assert hca.delivered == 1
        assert hca.metrics.delivered == 0  # delivered but not recorded

    def test_attack_packets_not_recorded_by_default(self, engine):
        hca = receiving_hca(engine)
        p = make_packet()
        p.is_attack = True
        self._deliver(engine, hca, p)
        assert hca.delivered == 1
        assert hca.metrics.delivered == 0

    def test_attack_packets_recorded_when_enabled(self, engine):
        """Figure-1 accounting: attack packets timed at their drop point."""
        hca = receiving_hca(engine)
        hca.record_attack_packets = True
        p = make_packet(pkey=PKey(0x8999))
        p.is_attack = True
        self._deliver(engine, hca, p)
        assert hca.metrics.delivered == 1  # recorded as a latency sample
        assert hca.metrics.dropped == {"pkey": 1}


class TestTraps:
    def test_trap_emitted_on_violation(self, engine):
        hca = receiving_hca(engine)
        traps = []
        hca.trap_sink = traps.append
        hca.receive(make_packet(pkey=PKey(0x8999), src=9))
        engine.run()
        assert len(traps) == 1
        assert int(traps[0].offender) == 9
        assert traps[0].bad_pkey.index == 0x0999

    def test_trap_rate_limited(self, engine):
        hca = receiving_hca(engine)
        traps = []
        hca.trap_sink = traps.append
        for psn in range(5):
            hca.receive(make_packet(pkey=PKey(0x8999), psn=psn))
        engine.run()
        assert len(traps) == 1  # within one min-interval window

    def test_trap_after_interval(self, engine):
        hca = receiving_hca(engine)
        traps = []
        hca.trap_sink = traps.append
        hca.receive(make_packet(pkey=PKey(0x8999)))
        engine.run()
        engine.schedule(round(25 * PS_PER_US), hca.receive, make_packet(pkey=PKey(0x8999)))
        engine.run()
        assert len(traps) == 2

    def test_rx_credit_returned(self, engine):
        hca = receiving_hca(engine)
        feed = Link(engine, "sw->hca", BYTE_PS, hca, 0, 2, 4)
        hca.attach_in_link(feed)
        feed.send(make_packet(wire_length=100))
        engine.run()
        assert feed.credits[0] == 4  # consumed then returned
