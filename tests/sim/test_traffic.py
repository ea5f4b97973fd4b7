"""Traffic generators: rates, packet construction, realtime backoff."""

import random

import pytest

from repro.iba.hca import HCA
from repro.iba.keys import PKey, QKey
from repro.iba.link import Link
from repro.iba.packet import LOCAL_RC_OVERHEAD, LOCAL_UD_OVERHEAD
from repro.iba.qp import QueuePair
from repro.iba.types import LID, QPN, ServiceType, TrafficClass
from repro.sim.engine import Engine, PS_PER_US
from repro.sim.metrics import MetricsCollector
from repro.sim.rng import RngStreams
from repro.sim.traffic import (
    BestEffortSource,
    ElephantMiceSource,
    FlashCrowdSource,
    IncastSource,
    MMPPSource,
    Peer,
    PeerView,
    RealtimeSource,
    make_open_loop_source,
    make_ud_packet,
    payload_prefix,
)

BYTE_PS = 3200
MTU = 1024


class Sink:
    """Consumes packets immediately and returns the credit (ideal receiver)."""

    def __init__(self):
        self.received = []
        self.link = None

    def receive(self, packet, in_port):
        self.received.append(packet)
        if self.link is not None:
            self.link.return_credit(packet.vl)


def make_sender(engine, credits=64, lid=1):
    hca = HCA(engine, LID(lid), num_vls=2, vl_buffer_packets=credits,
              processing_delay_ns=0.0, credit_return_delay_ns=0.0,
              metrics=MetricsCollector(), warmup_ps=0)
    sink = Sink()
    link = Link(engine, "l", BYTE_PS, sink, 0, 2, credits)
    sink.link = link
    hca.attach_out_link(link)
    qp = QueuePair(qpn=QPN(0x101), service=ServiceType.UNRELIABLE_DATAGRAM,
                   pkey=PKey(0x8001), qkey=QKey(7))
    hca.add_qp(qp)
    return hca, qp, sink


PEERS = [Peer(LID(2), QPN(0x102), QKey(0x42))]


def peer_list(lids):
    return [Peer(LID(lid), QPN(0x100 + lid), QKey(lid)) for lid in lids]


class TestPeerView:
    """A source reads its partition's shared list minus its own LID, and
    must see exactly the per-source copy it replaced."""

    SHARED = peer_list([2, 3, 5, 8, 13, 21])

    @pytest.mark.parametrize("own", [2, 8, 21, 4, 1, 99],
                             ids=["first", "middle", "last", "absent-inside",
                                  "absent-below", "absent-above"])
    def test_reads_like_the_copy(self, own):
        view = PeerView(self.SHARED, own)
        copy = [p for p in self.SHARED if p.lid != own]
        assert len(view) == len(copy)
        assert list(view) == copy
        assert [view[i] for i in range(len(copy))] == copy
        back = range(1, len(copy) + 1)
        assert [view[-i] for i in back] == [copy[-i] for i in back]
        for bad in (len(copy), -len(copy) - 1):
            with pytest.raises(IndexError):
                view[bad]
        assert all(p in view for p in copy)
        assert all(p not in view for p in self.SHARED if p.lid == own)
        assert min(view, key=lambda p: int(p.lid)) is min(copy, key=lambda p: int(p.lid))

    @pytest.mark.parametrize("own", [2, 8, 21, 4])
    def test_choice_draws_match_the_copy_draw_for_draw(self, own):
        view = PeerView(self.SHARED, own)
        copy = [p for p in self.SHARED if p.lid != own]
        seed = 1000 + own
        via_view, via_copy = random.Random(seed), random.Random(seed)
        assert [via_view.choice(view) for _ in range(10_000)] == [
            via_copy.choice(copy) for _ in range(10_000)
        ]
        assert via_view.random() == via_copy.random()  # same stream state after

    def test_singleton_partition_view_is_empty(self):
        view = PeerView(peer_list([7]), 7)
        assert len(view) == 0 and not view and list(view) == []
        with pytest.raises(IndexError):
            random.Random(1).choice(view)

    def test_views_share_one_list(self):
        shared = peer_list([1, 2, 3])
        a, b = PeerView(shared, 1), PeerView(shared, 3)
        assert list(a)[0] is list(b)[1] is shared[1]
        with pytest.raises(TypeError):
            a[0] = shared[0]  # read-only

    def test_incast_victim_unchanged(self, engine):
        shared = peer_list([2, 5, 7])
        cfg = TestMakeOpenLoopSource().config(traffic_model="incast")
        for own, victim_lid in ((2, 5), (5, 2), (7, 2)):
            hca, qp, _ = make_sender(engine)
            src = make_open_loop_source(
                cfg, engine, hca, qp, PeerView(shared, own), PKey(0x8001),
                BYTE_PS, RngStreams(9), LID(own),
            )
            assert int(src.victim.lid) == victim_lid
            assert src.victim in src.peers


class TestMakeUdPacket:
    def test_wire_length_includes_overhead(self, engine):
        hca, qp, _ = make_sender(engine)
        p = make_ud_packet(hca, qp, LID(2), QPN(5), QKey(1), PKey(0x8001),
                           TrafficClass.BEST_EFFORT, MTU)
        assert p.wire_length == MTU + LOCAL_UD_OVERHEAD

    def test_psn_advances_per_packet(self, engine):
        hca, qp, _ = make_sender(engine)
        p1 = make_ud_packet(hca, qp, LID(2), QPN(5), QKey(1), PKey(0x8001),
                            TrafficClass.BEST_EFFORT, MTU)
        p2 = make_ud_packet(hca, qp, LID(2), QPN(5), QKey(1), PKey(0x8001),
                            TrafficClass.BEST_EFFORT, MTU)
        assert p2.bth.psn == p1.bth.psn + 1

    def test_vl_follows_class(self, engine):
        hca, qp, _ = make_sender(engine)
        rt = make_ud_packet(hca, qp, LID(2), QPN(5), QKey(1), PKey(0x8001),
                            TrafficClass.REALTIME, MTU)
        assert rt.vl == TrafficClass.REALTIME.vl

    def test_payload_defaults_compact_but_distinct(self, engine):
        hca, qp, _ = make_sender(engine)
        p1 = make_ud_packet(hca, qp, LID(2), QPN(5), QKey(1), PKey(0x8001),
                            TrafficClass.BEST_EFFORT, MTU)
        p2 = make_ud_packet(hca, qp, LID(3), QPN(5), QKey(1), PKey(0x8001),
                            TrafficClass.BEST_EFFORT, MTU)
        assert p1.payload != p2.payload  # destination + psn baked in


class TestSourcePayload:
    """Sources join their own LID's two bytes to the peer's two at send
    time; the payload must equal the one payload_prefix builds, including
    for LIDs whose high byte is set (fat trees up to k=8 never set it)."""

    @pytest.mark.parametrize("source_cls", [BestEffortSource, RealtimeSource])
    def test_payload_for_two_byte_lids(self, engine, source_cls):
        hca, qp, sink = make_sender(engine, lid=0x1234)
        peer = Peer(LID(0x0456), QPN(0x102), QKey(0x42))
        horizon = round(50 * PS_PER_US)
        src = source_cls(
            engine, hca, qp, [peer], PKey(0x8001), 0.5, MTU, BYTE_PS,
            RngStreams(0).get("payload"), horizon,
        )
        src.start()
        engine.run(until=horizon)
        assert sink.received
        for pkt in sink.received:
            assert pkt.payload == (
                payload_prefix(LID(0x1234), LID(0x0456))
                + pkt.bth.psn.to_bytes(3, "big") + b"\x5a" * 25
            )
        assert sink.received[0].payload[:4] == bytes([0x12, 0x34, 0x04, 0x56])


class TestBestEffortSource:
    def test_rate_matches_load(self, engine):
        hca, qp, sink = make_sender(engine)
        horizon = round(3000 * PS_PER_US)
        src = BestEffortSource(
            engine, hca, qp, PEERS, PKey(0x8001), load=0.4,
            mtu_bytes=MTU, byte_time_ps=BYTE_PS,
            rng=RngStreams(0).get("be"), stop_at_ps=horizon,
        )
        src.start()
        engine.run(until=horizon)
        wire_time = (MTU + LOCAL_UD_OVERHEAD) * BYTE_PS
        expected = 0.4 * horizon / wire_time
        assert expected * 0.8 < src.generated < expected * 1.2

    def test_stops_at_horizon(self, engine):
        hca, qp, _ = make_sender(engine)
        src = BestEffortSource(
            engine, hca, qp, PEERS, PKey(0x8001), load=0.5,
            mtu_bytes=MTU, byte_time_ps=BYTE_PS,
            rng=RngStreams(0).get("be"), stop_at_ps=round(100 * PS_PER_US),
        )
        src.start()
        engine.run()  # run to exhaustion: generation must terminate
        assert engine.now < 200 * PS_PER_US + 10**7

    def test_validation(self, engine):
        hca, qp, _ = make_sender(engine)
        with pytest.raises(ValueError):
            BestEffortSource(engine, hca, qp, [], PKey(1), 0.4, MTU, BYTE_PS,
                             RngStreams(0).get("x"), 10**9)
        with pytest.raises(ValueError):
            BestEffortSource(engine, hca, qp, PEERS, PKey(1), 0.0, MTU, BYTE_PS,
                             RngStreams(0).get("x"), 10**9)


def wire_time_ps():
    return (MTU + LOCAL_UD_OVERHEAD) * BYTE_PS


class TestMMPPSource:
    def make(self, engine, horizon, on_us=100.0, off_us=100.0, seed=0, load=0.3):
        hca, qp, sink = make_sender(engine)
        streams = RngStreams(seed)
        src = MMPPSource(
            engine, hca, qp, PEERS, PKey(0x8001), load,
            mtu_bytes=MTU, byte_time_ps=BYTE_PS,
            rng=streams.get("be"), stop_at_ps=horizon,
            on_us=on_us, off_us=off_us,
            modulation_rng=streams.get("mmpp"),
        )
        return src, sink

    def test_long_run_rate_matches_load(self, engine):
        horizon = round(20_000 * PS_PER_US)
        src, _ = self.make(engine, horizon)
        src.start()
        engine.run(until=horizon)
        expected = 0.3 * horizon / wire_time_ps()
        assert expected * 0.8 < src.generated < expected * 1.2
        assert src.bursts > 10  # actually modulating, not one long ON

    def test_zero_off_time_degenerates_to_poisson_rate(self, engine):
        horizon = round(3000 * PS_PER_US)
        src, _ = self.make(engine, horizon, off_us=0.0)
        src.start()
        engine.run(until=horizon)
        expected = 0.3 * horizon / wire_time_ps()
        assert expected * 0.8 < src.generated < expected * 1.2

    def test_deterministic_per_seed(self, engine):
        horizon = round(2000 * PS_PER_US)
        runs = []
        for _ in range(2):
            eng = Engine()
            src, sink = self.make(eng, horizon, seed=42)
            src.start()
            eng.run(until=horizon)
            runs.append((src.generated, src.bursts,
                         tuple(p.bth.psn for p in sink.received[:20])))
        assert runs[0] == runs[1]


class TestFlashCrowdSource:
    def test_rate_steps_at_the_scheduled_instant(self, engine):
        hca, qp, sink = make_sender(engine)
        horizon = round(4000 * PS_PER_US)
        step_at = horizon // 2
        src = FlashCrowdSource(
            engine, hca, qp, PEERS, PKey(0x8001), 0.2,
            mtu_bytes=MTU, byte_time_ps=BYTE_PS,
            rng=RngStreams(3).get("be"), stop_at_ps=horizon,
            step_at_ps=step_at, multiplier=3.0,
        )
        src.start()
        engine.run(until=horizon)
        before = sum(1 for p in sink.received if p.t_created < step_at)
        after = sum(1 for p in sink.received if p.t_created >= step_at)
        base = 0.2 * step_at / wire_time_ps()
        assert base * 0.8 < before < base * 1.2
        assert 3 * base * 0.8 < after < 3 * base * 1.2

    def test_multiplier_below_one_rejected(self, engine):
        hca, qp, _ = make_sender(engine)
        with pytest.raises(ValueError):
            FlashCrowdSource(
                engine, hca, qp, PEERS, PKey(0x8001), 0.2,
                mtu_bytes=MTU, byte_time_ps=BYTE_PS,
                rng=RngStreams(3).get("be"), stop_at_ps=10**9,
                step_at_ps=0, multiplier=0.5,
            )


class TestIncastSource:
    def test_burst_quota_on_top_of_background(self, engine):
        hca, qp, sink = make_sender(engine)
        horizon = round(2000 * PS_PER_US)
        period = round(100 * PS_PER_US)
        src = IncastSource(
            engine, hca, qp, PEERS, PKey(0x8001), 0.2,
            mtu_bytes=MTU, byte_time_ps=BYTE_PS,
            rng=RngStreams(5).get("be"), stop_at_ps=horizon,
            period_ps=period, burst_packets=4, victim=PEERS[0],
        )
        src.start()
        engine.run(until=horizon)
        expected_bursts = (horizon // period - 1) * 4  # first burst at t=period
        assert src.burst_sent >= expected_bursts
        background = 0.2 * horizon / wire_time_ps()
        assert src.generated == pytest.approx(
            background + src.burst_sent, rel=0.25
        )

    def test_victim_must_be_a_peer(self, engine):
        hca, qp, _ = make_sender(engine)
        stranger = Peer(LID(99), QPN(0x199), QKey(0x99))
        with pytest.raises(ValueError):
            IncastSource(
                engine, hca, qp, PEERS, PKey(0x8001), 0.2,
                mtu_bytes=MTU, byte_time_ps=BYTE_PS,
                rng=RngStreams(5).get("be"), stop_at_ps=10**9,
                period_ps=10**6, burst_packets=2, victim=stranger,
            )


class TestMakeOpenLoopSource:
    def config(self, **kw):
        from repro.sim.config import SimConfig

        defaults = dict(sim_time_us=500.0, best_effort_load=0.3)
        defaults.update(kw)
        return SimConfig(**defaults)

    def build(self, engine, config, seed=9):
        hca, qp, _ = make_sender(engine)
        return make_open_loop_source(
            config, engine, hca, qp, PEERS, PKey(0x8001),
            BYTE_PS, RngStreams(seed), LID(1),
        )

    def test_dispatches_every_model(self, engine):
        expected = {
            "poisson": BestEffortSource,
            "mmpp": MMPPSource,
            "flash_crowd": FlashCrowdSource,
            "incast": IncastSource,
            "elephant_mice": ElephantMiceSource,
        }
        for model, cls in expected.items():
            src = self.build(engine, self.config(traffic_model=model))
            assert type(src) is cls
            # the whole family keeps the runner's isinstance sender counting
            assert isinstance(src, BestEffortSource)

    def test_unknown_model_rejected(self, engine):
        cfg = self.config()
        cfg.traffic_model = "carrier_pigeon"
        with pytest.raises(ValueError):
            self.build(engine, cfg)

    def test_elephant_mice_rates_average_to_load(self, engine):
        # Role is a per-node draw: across many nodes the expected aggregate
        # rate is the configured load exactly.
        cfg = self.config(
            traffic_model="elephant_mice",
            elephant_fraction=0.25, elephant_boost=2.0,
        )
        streams = RngStreams(4)
        rates, elephants = [], 0
        for lid in range(1, 201):
            hca, qp, _ = make_sender(Engine())
            src = make_open_loop_source(
                cfg, hca.engine, hca, qp, PEERS, PKey(0x8001),
                BYTE_PS, streams, LID(lid),
            )
            elephants += src.elephant
            rates.append(wire_time_ps() / src.mean_gap_ps)
        assert 0.25 * 200 * 0.7 < elephants < 0.25 * 200 * 1.3
        mean_rate = sum(rates) / len(rates)
        assert mean_rate == pytest.approx(0.3, rel=0.1)

    def test_incast_victim_is_min_lid_peer(self, engine):
        peers = [
            Peer(LID(7), QPN(0x107), QKey(7)),
            Peer(LID(2), QPN(0x102), QKey(2)),
            Peer(LID(5), QPN(0x105), QKey(5)),
        ]
        cfg = self.config(traffic_model="incast")
        hca, qp, _ = make_sender(engine)
        src = make_open_loop_source(
            cfg, engine, hca, qp, peers, PKey(0x8001),
            BYTE_PS, RngStreams(9), LID(1),
        )
        assert int(src.victim.lid) == 2


class TestRealtimeSource:
    def test_fixed_interval_rate(self, engine):
        hca, qp, _ = make_sender(engine)
        horizon = round(2000 * PS_PER_US)
        src = RealtimeSource(
            engine, hca, qp, PEERS, PKey(0x8001), load=0.2,
            mtu_bytes=MTU, byte_time_ps=BYTE_PS,
            rng=RngStreams(1).get("rt"), stop_at_ps=horizon,
        )
        src.start()
        engine.run(until=horizon)
        wire_time = (MTU + LOCAL_UD_OVERHEAD) * BYTE_PS
        expected = 0.2 * horizon / wire_time
        assert abs(src.generated - expected) <= 2

    def test_backoff_throttles_when_queue_deep(self, engine):
        """The paper's realtime semantics: skip slots instead of queueing
        when the fabric can't keep up."""
        hca, qp, _ = make_sender(engine, credits=1)
        hca.out_link.credits[TrafficClass.REALTIME.vl] = 0  # starve the VL
        horizon = round(1000 * PS_PER_US)
        src = RealtimeSource(
            engine, hca, qp, PEERS, PKey(0x8001), load=0.5,
            mtu_bytes=MTU, byte_time_ps=BYTE_PS,
            rng=RngStreams(1).get("rt"), stop_at_ps=horizon,
            backoff_queue=3,
        )
        src.start()
        engine.run(until=horizon)
        assert src.throttled > 0
        assert hca.queue_depth(TrafficClass.REALTIME) <= 3
