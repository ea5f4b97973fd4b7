"""SM fault recovery: route recomputation around failed switches/links,
plus goodput accounting."""

import pytest

from repro.iba.switch import HCA_PORT, NO_ROUTE
from repro.iba.topology import recompute_routes
from repro.sim.config import SimConfig
from repro.sim.engine import PS_PER_US
from repro.sim.faults import FaultInjector
from repro.sim.runner import build_experiment, run_simulation


def experiment(**overrides):
    base = dict(
        sim_time_us=500.0, warmup_us=0.0, seed=8,
        best_effort_load=0.2, enable_realtime=False,
    )
    base.update(overrides)
    cfg = SimConfig(**base)
    return cfg, *build_experiment(cfg)


class TestRecomputeRoutes:
    def test_healthy_fabric_full_reachability(self):
        cfg, engine, fabric, *_ = experiment()
        installed = recompute_routes(fabric)
        # every switch gets an entry for every node: 16 switches x 16 dests
        assert installed == 16 * 16

    def test_routes_deliver_after_recompute(self):
        """BFS routing (not necessarily XY) still delivers everything."""
        cfg, engine, fabric, sources, *_ = experiment()
        recompute_routes(fabric)
        engine.run(until=cfg.sim_time_ps)
        assert sum(h.delivered for h in fabric.hcas.values()) > 100
        assert sum(sw.unroutable_drops for sw in fabric.all_switches()) == 0

    def test_avoids_crashed_switch(self):
        cfg, engine, fabric, *_ = experiment()
        installed = recompute_routes(fabric, avoid={(1, 1)})
        # the crashed switch routes nothing; its node is unreachable
        crashed = fabric.switches[(1, 1)]
        assert set(crashed.route_table) <= {NO_ROUTE}
        assert all(crashed.route(lid) is None for lid in fabric.lids)
        # 15 healthy switches x 15 reachable dests
        assert installed == 15 * 15
        for coords, sw in fabric.switches.items():
            if coords == (1, 1):
                continue
            # no surviving switch forwards toward the dead one's node
            dead_lid = [l for l, c in fabric.ingress_of.items() if c == (1, 1)][0]
            assert sw.route(dead_lid) is None

    def test_skips_failed_links(self):
        cfg, engine, fabric, *_ = experiment()
        # cut both east-west links between column 0 and 1 in row 0
        sw00 = fabric.switches[(0, 0)]
        from repro.iba.topology import PORT_EAST

        sw00.out_links[PORT_EAST].fail()
        fabric.switches[(1, 0)].out_links[2].fail()  # WEST back-link
        recompute_routes(fabric)
        # (0,0) must now reach column-1 nodes via row 1 (north first)
        lid_at_10 = [l for l, c in fabric.ingress_of.items() if c == (1, 0)][0]
        assert sw00.route(lid_at_10) is not None
        assert sw00.route(lid_at_10) != PORT_EAST

    def test_recovery_end_to_end(self):
        """Crash a switch mid-run, resweep, and verify traffic that avoids
        the dead node keeps flowing with zero unroutable drops."""
        cfg, engine, fabric, sources, *_ = experiment(sim_time_us=800.0)
        injector = FaultInjector(fabric)

        def crash_and_resweep():
            injector.crash_switch((3, 3))
            recompute_routes(fabric, avoid={(3, 3)})

        engine.schedule_at(round(200 * PS_PER_US), crash_and_resweep)
        engine.run(until=cfg.sim_time_ps)
        delivered = sum(
            h.delivered for lid, h in fabric.hcas.items()
            if fabric.ingress_of[lid] != (3, 3)
        )
        assert delivered > 100
        # packets already addressed to the dead node may drop as unroutable;
        # nothing else should
        dead_lid = [l for l, c in fabric.ingress_of.items() if c == (3, 3)][0]
        for sw in fabric.all_switches():
            assert sw.route(dead_lid) is None


class TestGoodput:
    def test_goodput_matches_offered_at_low_load(self):
        report = run_simulation(
            SimConfig(sim_time_us=800.0, warmup_us=0.0, seed=3,
                      best_effort_load=0.2, enable_realtime=False,
                      keep_samples=False)
        )
        goodput = report.goodput_gbps("best_effort")
        offered = report.offered_load_gbps("best_effort")
        assert offered == pytest.approx(0.2 * 2.5 * 16)
        # uncongested: goodput within 15% of offered
        assert 0.85 * offered < goodput < 1.15 * offered

    def test_absent_class_zero(self):
        report = run_simulation(
            SimConfig(sim_time_us=150.0, seed=3, enable_realtime=False,
                      keep_samples=False)
        )
        assert report.goodput_gbps("realtime") == 0.0
        assert report.offered_load_gbps("realtime") == 0.0
