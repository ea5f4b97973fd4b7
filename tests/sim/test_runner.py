"""Experiment runner wiring: partitions, QPs, key managers, auth services,
attacker selection, report fields."""

import pytest

from repro.experiments.pooling import pooled_delay
from repro.sim.config import AuthMode, EnforcementMode, KeyMgmtMode, SimConfig
from repro.sim.runner import build_experiment, estimate_rtt_ps, run_simulation
from repro.sim.sweep import SweepPoint


def build(**overrides):
    base = dict(sim_time_us=150.0, warmup_us=0.0, seed=4,
                enable_realtime=False, enable_best_effort=False)
    base.update(overrides)
    cfg = SimConfig(**base)
    return cfg, *build_experiment(cfg)


class TestPartitionWiring:
    def test_every_node_in_exactly_one_partition(self):
        cfg, engine, fabric, *_ = build()
        seen = {}
        for index, members in fabric.sm.partitions.items():
            for lid in members:
                assert lid not in seen, "node in two partitions"
                seen[lid] = index
        assert set(seen) == set(fabric.lids)

    def test_partition_count(self):
        cfg, engine, fabric, *_ = build(num_partitions=4)
        assert len(fabric.sm.partitions) == 4
        assert all(len(m) == 4 for m in fabric.sm.partitions.values())

    def test_uneven_partition_split(self):
        cfg, engine, fabric, *_ = build(
            mesh_width=3, mesh_height=3, num_partitions=2
        )
        sizes = sorted(len(m) for m in fabric.sm.partitions.values())
        assert sizes == [4, 5]

    def test_quadrant_layout_contiguous(self):
        cfg, engine, fabric, *_ = build(partition_layout="quadrant")
        # strided over sorted lids: partition i holds lids i+1, i+5, i+9, i+13
        assert fabric.sm.partitions[1] == {1, 5, 9, 13}

    def test_random_layout_seed_dependent(self):
        _, _, f1, *_ = build(seed=1)
        _, _, f2, *_ = build(seed=2)
        assert f1.sm.partitions != f2.sm.partitions

    def test_hcas_hold_their_pkeys(self):
        cfg, engine, fabric, *_ = build()
        for index, members in fabric.sm.partitions.items():
            for lid in members:
                qp = next(iter(fabric.hca(lid).qps.values()))
                assert qp.pkey.index == index
                assert fabric.hca(lid).keys.has_matching_pkey(qp.pkey)


class TestSecurityWiring:
    def test_icrc_mode_has_no_key_manager(self):
        cfg, engine, fabric, sources, flooders, windows, keymgr = build()
        assert keymgr is None
        from repro.core.auth import IcrcAuthService

        assert isinstance(fabric.hca(1).auth, IcrcAuthService)

    def test_partition_keys_predistributed(self):
        cfg, engine, fabric, *_rest, keymgr = build(
            auth=AuthMode.UMAC, keymgmt=KeyMgmtMode.PARTITION
        )
        for index, members in fabric.sm.partitions.items():
            for lid in members:
                assert index in keymgr.node_tables[lid]

    def test_qp_mode_starts_empty(self):
        cfg, engine, fabric, *_rest, keymgr = build(
            auth=AuthMode.UMAC, keymgmt=KeyMgmtMode.QP
        )
        assert keymgr.known_pairs() == 0

    def test_rtt_estimator_scales_with_distance(self):
        cfg, engine, fabric, *_ = build()
        near = estimate_rtt_ps(fabric, 1, 2)
        far = estimate_rtt_ps(fabric, 1, 16)
        assert far > near > 0

    def test_replay_flag_propagates(self):
        cfg, engine, fabric, *_ = build(
            auth=AuthMode.UMAC, keymgmt=KeyMgmtMode.PARTITION, replay_protection=True
        )
        assert all(h.replay_protection for h in fabric.hcas.values())


class TestAttackerWiring:
    def test_attacker_count_and_distinctness(self):
        cfg, engine, fabric, sources, flooders, windows, _ = build(
            num_attackers=3, enable_best_effort=True
        )
        assert len(flooders) == 3
        lids = {int(f.hca.lid) for f in flooders}
        assert len(lids) == 3

    def test_attackers_have_no_legit_sources(self):
        cfg, engine, fabric, sources, flooders, windows, _ = build(
            num_attackers=2, enable_best_effort=True
        )
        attacker_lids = {int(f.hca.lid) for f in flooders}
        source_lids = {int(s.hca.lid) for s in sources}
        assert attacker_lids.isdisjoint(source_lids)

    def test_peers_exclude_attackers(self):
        cfg, engine, fabric, sources, flooders, windows, _ = build(
            num_attackers=2, enable_best_effort=True
        )
        attacker_lids = {int(f.hca.lid) for f in flooders}
        for src in sources:
            assert attacker_lids.isdisjoint({int(p.lid) for p in src.peers})

    def test_one_shared_peer_per_lid(self):
        """Every source's peers are the one Peer of each LID, sorted by
        LID: its partition's honest members except itself."""
        cfg, engine, fabric, sources, flooders, windows, _ = build(
            num_attackers=3, enable_best_effort=True, enable_realtime=True
        )
        attacker_lids = {int(f.hca.lid) for f in flooders}
        shared = {}
        for src in sources:
            lid = int(src.hca.lid)
            (index,) = fabric.sm.partitions_of(lid)
            expected = sorted(
                m for m in fabric.sm.partitions[index]
                if m != lid and m not in attacker_lids
            )
            assert [int(p.lid) for p in src.peers] == expected
            for peer in src.peers:
                assert shared.setdefault(int(peer.lid), peer) is peer
                qp = fabric.hca(peer.lid).qps[peer.qpn]
                assert peer.qkey == qp.qkey
        assert len(shared) == len(fabric.lids) - len(attacker_lids)

    def test_sources_of_a_partition_read_one_shared_list(self):
        """No per-source peer copy: each source's peers are a PeerView of
        its partition's single list."""
        from repro.sim.traffic import PeerView

        cfg, engine, fabric, sources, *_ = build(
            num_attackers=2, enable_best_effort=True, enable_realtime=True
        )
        shared = {}
        for src in sources:
            assert type(src.peers) is PeerView
            (index,) = fabric.sm.partitions_of(int(src.hca.lid))
            assert shared.setdefault(index, src.peers._peers) is src.peers._peers
        assert len(shared) == cfg.num_partitions

    def test_singleton_partitions_start_no_source(self):
        cfg, engine, fabric, sources, *_ = build(
            num_partitions=16, enable_best_effort=True, enable_realtime=True
        )
        assert all(len(m) == 1 for m in fabric.sm.partitions.values())
        assert sources == []

    def test_no_windows_without_attackers(self):
        cfg, engine, fabric, sources, flooders, windows, _ = build()
        assert windows == []


class TestReport:
    def test_summary_renders(self):
        report = run_simulation(SimConfig(sim_time_us=150.0, seed=4))
        text = report.summary()
        assert "queuing" in text and "network" in text

    def test_cls_missing_class_is_zero(self):
        report = run_simulation(
            SimConfig(sim_time_us=150.0, seed=4, enable_realtime=False)
        )
        assert report.cls("realtime").count == 0
        assert report.cls("realtime").total_us == 0.0

    def test_keep_samples_false_drops_metrics_ref(self):
        report = run_simulation(
            SimConfig(sim_time_us=150.0, seed=4, keep_samples=False)
        )
        assert report.metrics is None
        with pytest.raises(ValueError, match="keep_samples=False"):
            pooled_delay(SweepPoint({}, (4,), (report,)))

    def test_wall_and_events_populated(self):
        report = run_simulation(SimConfig(sim_time_us=150.0, seed=4))
        assert report.events_processed > 0
        assert report.wall_seconds > 0

    def test_phase_timers_one_process(self):
        report = run_simulation(SimConfig(sim_time_us=150.0, seed=4))
        assert report.build_seconds > 0 and report.run_seconds > 0
        assert report.build_seconds + report.run_seconds <= report.wall_seconds

    def test_phase_timers_inline_sharded(self):
        config = SimConfig(
            topology="fat_tree", fat_tree_k=4, shards=2,
            shard_transport="inline", partition_layout="pod",
            enforcement=EnforcementMode.SIF, num_attackers=1,
            sim_time_us=50.0, warmup_us=0.0,
        )
        report = run_simulation(config)
        assert report.build_seconds > 0 and report.run_seconds > 0
        assert report.build_seconds + report.run_seconds <= report.wall_seconds

    def test_report_pickles_with_windowed_stats(self):
        import pickle

        report = run_simulation(SimConfig(sim_time_us=150.0, seed=4))
        clone = pickle.loads(pickle.dumps(report))
        q0, n0 = report.metrics.windowed("best_effort")
        q1, n1 = clone.metrics.windowed("best_effort")
        assert (q1.count, q1.mean) == (q0.count, q0.mean)
        assert (n1.count, n1.mean) == (n0.count, n0.mean)
        assert pooled_delay(
            SweepPoint({}, (4,), (clone,)), exclude=clone.attack_windows
        ) == pooled_delay(
            SweepPoint({}, (4,), (report,)), exclude=report.attack_windows
        )


class TestOfferedLoad:
    def test_counts_only_started_sources(self):
        """A node whose partition peers are all attackers never starts a
        source; offered load must reflect that, not num_nodes - attackers."""
        report = run_simulation(
            SimConfig(
                mesh_width=2, mesh_height=1, num_partitions=1,
                sim_time_us=150.0, seed=3, num_attackers=1,
                enable_realtime=False, keep_samples=False,
            )
        )
        # 2-node fabric, 1 attacker: the honest node's only peer is the
        # attacker, so zero sources started
        assert report.senders["best_effort"] == 0
        assert report.offered_load_gbps("best_effort") == 0.0

    def test_full_fabric_matches_configured_rate(self):
        cfg = SimConfig(sim_time_us=150.0, seed=4, enable_realtime=False)
        report = run_simulation(cfg)
        assert report.senders["best_effort"] == cfg.num_nodes
        assert report.senders["realtime"] == 0
        expected = cfg.best_effort_load * cfg.link_bandwidth_gbps * cfg.num_nodes
        assert report.offered_load_gbps("best_effort") == pytest.approx(expected)
        assert report.offered_load_gbps("realtime") == 0.0


class TestBuildMemory:
    """The build allocates in proportion to the fabric: one Peer per LID,
    one peer list per partition that sources only read, no per-pair
    payload prefixes, no queue for a VL that carries no packet, and one
    route byte per LID per switch.  The k=8 fat tree (640 switch ports,
    128 HCAs, 16 VLs each) retained 13.7 MiB when every (port, VL) held a
    deque and every (source, peer) pair its own Peer and prefix, 3.5 MiB
    without them, and 3.2 MiB once route dicts became byte tables and
    sources stopped copying their peer lists (CPython 3.11)."""

    CEILING_MIB = 6.0

    def test_k8_fat_tree_build_stays_under_ceiling(self):
        import gc
        import tracemalloc

        def config(k):
            return SimConfig(
                topology="fat_tree", fat_tree_k=k, enforcement=EnforcementMode.SIF,
                num_partitions=8, partition_layout="pod", num_attackers=8, seed=1,
            )

        build_experiment(config(4))  # first-use imports stay out of the count
        gc.collect()
        tracemalloc.start()
        try:
            built = build_experiment(config(8))
            gc.collect()
            retained, _peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert built[1].lids  # keep the fabric alive through the measurement
        assert retained / 2**20 < self.CEILING_MIB
