"""Property-based fabric invariants (hypothesis): across random mesh
shapes, loads, buffer depths and attacker counts —

* packet conservation (generated == delivered + dropped after drain);
* credit conservation (all credits return once quiescent);
* routing delivers to the addressed node only;
* determinism (same config, same outcome).
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.sim.config import EnforcementMode, SimConfig
from repro.sim.runner import build_experiment, run_simulation
from repro.sim.sweep import report_payload

DRAIN_PS = 5_000_000_000  # 5 ms drain window after generation stops

fabric_shapes = st.tuples(st.integers(2, 4), st.integers(1, 3))
loads = st.sampled_from([0.1, 0.3, 0.5])
depths = st.sampled_from([2, 4, 8])
attacker_counts = st.integers(0, 2)
modes = st.sampled_from(list(EnforcementMode))


def make_config(shape, load, depth, attackers, mode, seed):
    width, height = shape
    nodes = width * height
    return SimConfig(
        mesh_width=width,
        mesh_height=height,
        num_partitions=min(2, nodes),
        sim_time_us=200.0,
        warmup_us=0.0,
        seed=seed,
        best_effort_load=load,
        enable_realtime=False,
        vl_buffer_packets=depth,
        num_attackers=min(attackers, nodes - 2) if nodes > 2 else 0,
        enforcement=mode,
        keep_samples=False,
    )


@given(shape=fabric_shapes, load=loads, depth=depths,
       attackers=attacker_counts, mode=modes, seed=st.integers(0, 50))
@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_packet_and_credit_conservation(shape, load, depth, attackers, mode, seed):
    cfg = make_config(shape, load, depth, attackers, mode, seed)
    engine, fabric, sources, flooders, _, _ = build_experiment(cfg)
    engine.run(until=cfg.sim_time_ps)
    engine.run(until=cfg.sim_time_ps + DRAIN_PS)

    generated = sum(s.generated for s in sources) + sum(f.generated for f in flooders)
    delivered = sum(h.delivered for h in fabric.hcas.values())
    dropped = sum(
        h.pkey_violations + h.qkey_violations + h.auth_failures + h.replay_drops
        for h in fabric.hcas.values()
    ) + sum(sw.filtered_drops + sw.unroutable_drops for sw in fabric.all_switches())
    assert generated == delivered + dropped

    for sw in fabric.all_switches():
        for link in sw.out_links:
            if link is not None:
                assert not link.busy
                assert all(c == cfg.vl_buffer_packets for c in link.credits)
    for hca in fabric.hcas.values():
        assert all(c == cfg.vl_buffer_packets for c in hca.out_link.credits)
        assert all(len(q) == 0 for q in hca.send_queues)


@given(shape=fabric_shapes, seed=st.integers(0, 100))
@settings(max_examples=10, deadline=None)
def test_determinism_property(shape, seed):
    cfg = make_config(shape, 0.3, 4, 1, EnforcementMode.SIF, seed)
    assert report_payload(run_simulation(cfg)) == report_payload(run_simulation(cfg))


@given(seed=st.integers(0, 100))
@settings(max_examples=10, deadline=None)
def test_delivery_addressing(seed):
    """Every recorded delivery landed at the node it addressed."""
    cfg = SimConfig(
        mesh_width=3, mesh_height=3, num_partitions=2,
        sim_time_us=150.0, warmup_us=0.0, seed=seed,
        best_effort_load=0.3, enable_realtime=False,
    )
    report = run_simulation(cfg)
    assert report.metrics is not None
    for sample in report.metrics.samples:
        assert sample.source != sample.destination
        assert 1 <= sample.destination <= 9
