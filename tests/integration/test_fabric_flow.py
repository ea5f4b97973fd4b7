"""End-to-end fabric behaviour: the paper's baseline testbed numbers,
credit conservation under load, realtime priority, determinism."""

import pytest

from repro.sim.config import SimConfig
from repro.sim.runner import build_experiment, run_simulation
from repro.sim.sweep import report_payload


class TestBaselineTestbed:
    """No attackers: the Section 3.2 'no attacker' operating point."""

    @pytest.fixture(scope="class")
    def report(self):
        return run_simulation(SimConfig(sim_time_us=600.0, seed=3))

    def test_both_classes_deliver(self, report):
        assert report.cls("realtime").count > 50
        assert report.cls("best_effort").count > 200

    def test_no_drops_without_attack(self, report):
        assert report.drops == {}

    def test_network_latency_in_paper_range(self, report):
        """Paper: 'network latency is about 20 microseconds' unloaded."""
        for cls in ("realtime", "best_effort"):
            assert 10.0 < report.stats[cls].network_us < 35.0

    def test_queuing_small_without_attack(self, report):
        """Paper: 'average queuing time is about five microseconds'."""
        for cls in ("realtime", "best_effort"):
            assert report.stats[cls].queuing_us < 10.0

    def test_realtime_latency_leq_best_effort(self, report):
        assert (
            report.stats["realtime"].network_us
            <= report.stats["best_effort"].network_us + 1.0
        )


class TestDeterminism:
    def test_same_seed_same_results(self):
        cfg = SimConfig(sim_time_us=300.0, seed=11, num_attackers=1)
        assert report_payload(run_simulation(cfg)) == report_payload(run_simulation(cfg))

    def test_different_seed_different_results(self):
        a = run_simulation(SimConfig(sim_time_us=300.0, seed=1))
        b = run_simulation(SimConfig(sim_time_us=300.0, seed=2))
        assert a.stats["best_effort"].network_us != b.stats["best_effort"].network_us

    def test_attacker_streams_do_not_perturb_legit_traffic(self):
        """Adding attackers must not change which packets legit sources
        generate (controlled-variable discipline for the sweeps)."""
        cfg0 = SimConfig(sim_time_us=200.0, seed=4, num_attackers=0)
        cfg1 = SimConfig(sim_time_us=200.0, seed=4, num_attackers=1)
        _, _, sources0, _, _, _ = build_experiment(cfg0)
        _, _, sources1, _, _, _ = build_experiment(cfg1)
        # the attacker node loses its sources; every other source keeps its rng
        rngs0 = {id(s.rng): s.hca.lid for s in sources0}
        assert len(sources1) <= len(sources0)


class TestCreditConservation:
    def test_all_credits_return_after_drain(self):
        cfg = SimConfig(sim_time_us=400.0, seed=9, best_effort_load=0.3)
        engine, fabric, sources, flooders, windows, _ = build_experiment(cfg)
        engine.run(until=cfg.sim_time_ps)
        # let everything in flight drain
        engine.run(until=cfg.sim_time_ps + 3_000_000_000)
        for sw in fabric.all_switches():
            for link in sw.out_links:
                if link is None:
                    continue
                assert not link.busy
                assert all(c == cfg.vl_buffer_packets for c in link.credits), link.name
        for hca in fabric.hcas.values():
            link = hca.out_link
            assert all(c == cfg.vl_buffer_packets for c in link.credits), link.name
            assert all(q == 0 for q in map(len, hca.send_queues))

    def test_conservation_under_attack(self):
        cfg = SimConfig(sim_time_us=400.0, seed=9, num_attackers=2)
        engine, fabric, *_ = build_experiment(cfg)
        engine.run(until=cfg.sim_time_ps)
        engine.run(until=cfg.sim_time_ps + 5_000_000_000)
        for sw in fabric.all_switches():
            for link in sw.out_links:
                if link is not None:
                    assert all(c == cfg.vl_buffer_packets for c in link.credits), link.name

    def test_packet_conservation(self):
        """Every generated packet is delivered, dropped, or still queued —
        none vanish."""
        cfg = SimConfig(sim_time_us=400.0, seed=13, num_attackers=1)
        engine, fabric, sources, flooders, windows, _ = build_experiment(cfg)
        engine.run(until=cfg.sim_time_ps)
        engine.run(until=cfg.sim_time_ps + 5_000_000_000)
        generated = sum(s.generated for s in sources) + sum(f.generated for f in flooders)
        delivered = sum(h.delivered for h in fabric.hcas.values())
        dropped = (
            sum(h.pkey_violations + h.qkey_violations + h.auth_failures + h.replay_drops
                for h in fabric.hcas.values())
            + sum(sw.filtered_drops + sw.unroutable_drops for sw in fabric.all_switches())
        )
        assert generated == delivered + dropped


class TestRealtimePriority:
    def test_realtime_suffers_less_under_attack(self):
        """Figure 1's asymmetry: VL arbitration shields realtime."""
        cfg = SimConfig(
            sim_time_us=1200.0, seed=3, num_attackers=4,
            realtime_load=0.3, best_effort_load=0.3,
        )
        r = run_simulation(cfg)
        rt, be = r.cls("realtime"), r.cls("best_effort")
        assert rt.network_us < be.network_us
        assert rt.queuing_us <= be.queuing_us + 1.0
