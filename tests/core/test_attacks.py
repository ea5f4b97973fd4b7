"""Attack models: random-P_Key generation, flooder behaviour, window
schedules, forgery construction."""

import copy
import random

import pytest

from repro.core.attacks import (
    forge_packet,
    inject_raw,
    make_attack_windows,
    random_invalid_pkey,
)
from repro.iba import crc as ibacrc
from repro.iba.keys import PKey, QKey
from repro.iba.qp import QueuePair
from repro.iba.types import LID, QPN, ServiceType
from repro.sim.engine import PS_PER_US
from repro.sim.trace import Tracer


class TestRandomInvalidPKey:
    def test_never_valid(self):
        rng = random.Random(0)
        valid = {1, 2, 3, 4}
        for _ in range(500):
            pk = random_invalid_pkey(rng, valid)
            assert pk.index not in valid
            assert pk.index != 0

    def test_avoids_default_partition(self):
        rng = random.Random(1)
        for _ in range(200):
            assert random_invalid_pkey(rng, set()).value != 0xFFFF


class TestAttackWindows:
    def test_full_duty_single_window(self):
        assert make_attack_windows(10**9, 1.0, 50_000_000, random.Random(0)) == [(0, 10**9)]

    def test_zero_duty_no_windows(self):
        assert make_attack_windows(10**9, 0.0, 50_000_000, random.Random(0)) == []

    def test_duty_cycle_respected(self):
        sim = 10**10  # 10 ms
        window = 50 * PS_PER_US
        wins = make_attack_windows(sim, 0.01, window, random.Random(3))
        active = sum(e - s for s, e in wins)
        assert 0.005 <= active / sim <= 0.015

    def test_windows_ordered_and_disjoint(self):
        wins = make_attack_windows(10**10, 0.05, 50 * PS_PER_US, random.Random(7))
        for (s1, e1), (s2, e2) in zip(wins, wins[1:]):
            assert e1 <= s2
        assert all(s < e for s, e in wins)

    def test_windows_within_sim(self):
        sim = 10**9
        wins = make_attack_windows(sim, 0.1, 50 * PS_PER_US, random.Random(5))
        assert all(0 <= s and e <= sim for s, e in wins)


class TestFlooder:
    def _experiment(self, **overrides):
        from repro.sim.config import SimConfig
        from repro.sim.runner import build_experiment

        cfg = SimConfig(
            mesh_width=2, mesh_height=2, num_partitions=2,
            enable_realtime=False, enable_best_effort=False,
            num_attackers=1, sim_time_us=300.0, warmup_us=0.0, seed=5,
            **overrides,
        )
        return cfg, *build_experiment(cfg)

    def test_floods_at_line_rate(self):
        cfg, engine, fabric, _, flooders, windows, _ = self._experiment()
        engine.run(until=cfg.sim_time_ps)
        flooder = flooders[0]
        # one MTU frame per ~3.39us -> ~88 frames in 300us; allow credit slack
        assert flooder.generated > 60

    def test_all_attack_packets_die_at_pkey_check(self):
        cfg, engine, fabric, _, flooders, windows, _ = self._experiment()
        engine.run(until=cfg.sim_time_ps)
        assert fabric.metrics.dropped.get("pkey", 0) > 0
        assert fabric.metrics.delivered == 0  # attack never delivers

    def test_valid_pkey_variant_reaches_qkey_check(self):
        """Section 7: flooding with a *valid* P_Key defeats P_Key filtering;
        packets then die at the Q_Key check instead."""
        cfg, engine, fabric, _, flooders, windows, _ = self._experiment(
            attack_valid_pkey=True
        )
        engine.run(until=cfg.sim_time_ps)
        assert fabric.metrics.dropped.get("pkey", 0) == 0
        assert fabric.metrics.dropped.get("qkey", 0) > 0

    def test_victim_strategy_hits_one_node_per_window(self):
        cfg, engine, fabric, _, flooders, windows, _ = self._experiment(
            attack_dest_strategy="victim"
        )
        engine.run(until=cfg.sim_time_ps)
        victims = [h.lid for h in fabric.hcas.values() if h.pkey_violations > 0]
        assert len(victims) == 1  # single window, single victim

    def test_windows_limit_generation(self):
        cfg, engine, fabric, _, flooders, windows, _ = self._experiment(
            attack_duty_cycle=0.1, attack_window_us=15.0
        )
        engine.run(until=cfg.sim_time_ps)
        continuous = 88  # ~300us at line rate
        assert 0 < flooders[0].generated < continuous * 0.5


class TestForgePacket:
    def _attacker(self, tracer=None):
        from repro.iba.hca import HCA
        from repro.sim.engine import Engine
        from repro.sim.metrics import MetricsCollector

        engine = Engine()
        hca = HCA(engine, LID(9), num_vls=2, vl_buffer_packets=4,
                  processing_delay_ns=0.0, credit_return_delay_ns=0.0,
                  metrics=MetricsCollector(), warmup_ps=0, tracer=tracer)
        qp = QueuePair(qpn=QPN(0x109), service=ServiceType.UNRELIABLE_DATAGRAM,
                       pkey=PKey(0x8002), qkey=QKey(1))
        return hca, qp

    def test_crc_forgery_is_valid_to_stock_iba(self):
        hca, qp = self._attacker()
        pkt = forge_packet(hca, qp, LID(2), QPN(0x102), PKey(0x8001), QKey(0x42), 1024)
        assert pkt.bth.reserved_auth == 0
        assert ibacrc.verify_icrc(pkt)  # forger computed a perfect CRC
        assert pkt.is_attack

    def test_guessed_tag_sets_selector(self):
        hca, qp = self._attacker()
        pkt = forge_packet(
            hca, qp, LID(2), QPN(0x102), PKey(0x8001), QKey(0x42), 1024,
            guessed_tag=0xDEADBEEF, auth_fn_id=1,
        )
        assert pkt.bth.reserved_auth == 1
        assert pkt.icrc == 0xDEADBEEF

    def test_inject_raw_bypasses_auth(self):
        hca, qp = self._attacker()
        called = []

        class NoAuth:
            def prepare(self, packet, sender):
                called.append(packet)
                return 0

            def verify(self, packet, receiver):
                return True

            def verify_delay_ps(self):
                return 0

        hca.auth = NoAuth()
        pkt = forge_packet(hca, qp, LID(2), QPN(0x102), PKey(0x8001), QKey(0x42), 1024)
        inject_raw(hca, pkt)
        assert called == []  # attacker's NIC skipped the legit auth path
        assert len(hca.send_queues[pkt.vl]) == 1 or hca.out_link is None

    def test_replayed_copy_is_a_packet_of_its_own(self):
        tracer = Tracer()
        hca, qp = self._attacker(tracer)
        pkt = forge_packet(hca, qp, LID(2), QPN(0x102), PKey(0x8001), QKey(0x42), 1024)
        inject_raw(hca, pkt)
        replayed = copy.copy(pkt)
        inject_raw(hca, replayed)
        assert (pkt.packet_id, replayed.packet_id) == (1, 2)
        assert [e.packet_id for e in tracer.of_kind("created")] == [1, 2]
