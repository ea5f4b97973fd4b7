"""Fault injection: link failure semantics, switch crashes with key
leakage, wiretap-to-forgery pipeline, recovery."""

import pytest

from repro.sim.config import AuthMode, EnforcementMode, KeyMgmtMode, SimConfig
from repro.sim.engine import PS_PER_US
from repro.sim.faults import FaultInjector
from repro.sim.runner import build_experiment


def experiment(**overrides):
    base = dict(
        sim_time_us=500.0, warmup_us=0.0, seed=8,
        best_effort_load=0.25, enable_realtime=False,
    )
    base.update(overrides)
    cfg = SimConfig(**base)
    return cfg, *build_experiment(cfg)


class TestLinkFailure:
    def test_failed_link_stalls_its_source(self):
        cfg, engine, fabric, sources, _, _, _ = experiment()
        victim_hca = fabric.hca(1)
        injector = FaultInjector(fabric)
        injector.fail_link(victim_hca.out_link, at_ps=round(100 * PS_PER_US))
        engine.run(until=cfg.sim_time_ps)
        # node 1's queue backs up behind the dead link
        assert sum(len(q) for q in victim_hca.send_queues) > 0
        assert victim_hca.out_link.failed

    def test_other_nodes_unaffected(self):
        cfg, engine, fabric, *_ = experiment()
        injector = FaultInjector(fabric)
        injector.fail_link(fabric.hca(1).out_link, at_ps=round(50 * PS_PER_US))
        engine.run(until=cfg.sim_time_ps)
        # plenty of traffic still delivered fabric-wide
        others = sum(h.delivered for lid, h in fabric.hcas.items())
        assert others > 100

    def test_restore_drains_the_backlog(self):
        cfg, engine, fabric, *_ = experiment()
        hca = fabric.hca(1)
        injector = FaultInjector(fabric)
        injector.fail_link(hca.out_link, at_ps=round(50 * PS_PER_US))
        injector.restore_link(hca.out_link, at_ps=round(250 * PS_PER_US))
        engine.run(until=cfg.sim_time_ps)
        engine.run(until=cfg.sim_time_ps + 2_000_000_000)
        assert not hca.out_link.failed
        assert sum(len(q) for q in hca.send_queues) == 0

    def test_send_on_failed_link_raises(self):
        cfg, engine, fabric, *_ = experiment()
        link = fabric.hca(1).out_link
        link.fail()
        from tests.conftest import make_packet

        assert not link.can_send(0)
        with pytest.raises(RuntimeError):
            link.send(make_packet())


class TestSwitchCrash:
    def test_crash_fails_all_attached_links(self):
        cfg, engine, fabric, *_ = experiment()
        injector = FaultInjector(fabric)
        injector.crash_switch((1, 1), at_ps=round(50 * PS_PER_US))
        engine.run(until=cfg.sim_time_ps)
        sw = fabric.switches[(1, 1)]
        assert all(l.failed for l in sw.out_links if l is not None)
        assert sw.name in injector.crashed

    def test_crash_leaks_filter_table_keys(self):
        """'it is possible that a switch crashes and leaks Keys' — with IF
        enforcement the ingress table holds the node's P_Keys."""
        cfg, engine, fabric, *_ = experiment(enforcement=EnforcementMode.IF)
        leaks = []
        injector = FaultInjector(fabric)
        injector.crash_switch((0, 0), at_ps=round(100 * PS_PER_US),
                              on_leak=leaks.append)
        engine.run(until=cfg.sim_time_ps)
        (leak,) = leaks
        node1_partitions = fabric.sm.partitions_of(1)
        assert {p.index for p in leak.pkeys} >= node1_partitions

    def test_traffic_through_crashed_switch_stalls_at_sources(self):
        cfg, engine, fabric, *_ = experiment()
        baseline = build_experiment(cfg)
        baseline_engine, baseline_fabric = baseline[0], baseline[1]
        baseline_engine.run(until=cfg.sim_time_ps)
        baseline_delivered = sum(h.delivered for h in baseline_fabric.hcas.values())

        injector = FaultInjector(fabric)
        injector.crash_switch((1, 1), at_ps=round(50 * PS_PER_US))
        engine.run(until=cfg.sim_time_ps)
        crashed_delivered = sum(h.delivered for h in fabric.hcas.values())
        assert crashed_delivered < baseline_delivered


class TestSwitchRestore:
    """The recovery half of crash_switch: restore_switch brings every
    attached link back and traffic through the switch resumes."""

    def test_restore_brings_all_links_back_and_clears_crashed(self):
        cfg, engine, fabric, *_ = experiment()
        injector = FaultInjector(fabric)
        injector.crash_switch((1, 1), at_ps=round(50 * PS_PER_US))
        injector.restore_switch((1, 1), at_ps=round(250 * PS_PER_US))
        engine.run(until=cfg.sim_time_ps)
        sw = fabric.switches[(1, 1)]
        assert all(not l.failed for l in sw.out_links if l is not None)
        assert all(not l.failed for l in sw.in_links if l is not None)
        assert sw.name not in injector.crashed
        assert injector.failed_links == []

    def test_restored_switch_carries_traffic_again(self):
        from repro.sim.trace import Tracer

        cfg = SimConfig(
            sim_time_us=500.0, warmup_us=0.0, seed=8,
            best_effort_load=0.25, enable_realtime=False,
        )
        tracer = Tracer()
        engine, fabric, *_ = build_experiment(cfg, tracer=tracer)
        injector = FaultInjector(fabric)
        injector.crash_switch((1, 1), at_ps=round(50 * PS_PER_US))
        injector.restore_switch((1, 1), at_ps=round(250 * PS_PER_US))

        # LID of the node hanging off the crashed switch
        victim = next(
            lid for lid, h in fabric.hcas.items()
            if fabric.ingress_switch(lid) is fabric.switches[(1, 1)]
        )
        at_restore = {}
        engine.schedule_at(
            round(251 * PS_PER_US),
            lambda: at_restore.update(d=int(fabric.hca(victim).delivered)),
        )
        engine.run(until=cfg.sim_time_ps)
        # deliveries to the victim resumed after the restore
        assert int(fabric.hca(victim).delivered) > at_restore["d"]

        # trace ledger balances: every link_down got exactly one link_up
        downs, ups = {}, {}
        for e in tracer.of_kind("link_down", "link_up"):
            bucket = downs if e.kind == "link_down" else ups
            bucket[e.where] = bucket.get(e.where, 0) + 1
        assert downs and ups == downs


class TestWireTap:
    def test_tap_captures_plaintext_keys(self):
        """'a packet can be captured on the link' — the tap reads P_Keys
        and Q_Keys straight out of the headers."""
        cfg, engine, fabric, *_ = experiment()
        injector = FaultInjector(fabric)
        link = fabric.hca(1).out_link
        captured = injector.tap_link(link)
        engine.run(until=cfg.sim_time_ps)
        assert len(captured) > 0
        pkeys, qkeys = injector.captured_keys(link.name)
        assert any(p.index in fabric.sm.partitions_of(1) for p in pkeys)
        assert len(qkeys) > 0

    def test_captured_keys_enable_forgery_only_on_stock_iba(self):
        """The full paper pipeline: tap the wire, steal the keys, forge —
        delivered on stock IBA, rejected by the MAC fabric."""
        from repro.core.attacks import forge_packet, inject_raw

        outcomes = {}
        for auth, keymgmt in (
            (AuthMode.ICRC, KeyMgmtMode.NONE),
            (AuthMode.UMAC, KeyMgmtMode.PARTITION),
        ):
            cfg, engine, fabric, *_ = experiment(
                auth=auth, keymgmt=keymgmt, enable_best_effort=True,
                sim_time_us=300.0,
            )
            injector = FaultInjector(fabric)
            # tap some victim's injection link
            victim = sorted(fabric.sm.partitions[1])[0]
            link = fabric.hca(victim).out_link
            captured = injector.tap_link(link)
            engine.run(until=round(150 * PS_PER_US))
            assert captured, "tap saw traffic"
            sample = captured[0]
            # attacker (other partition) replays the stolen credentials
            attacker = sorted(fabric.sm.partitions[2])[0]
            attacker_hca = fabric.hca(attacker)
            attacker_qp = next(iter(attacker_hca.qps.values()))
            target_hca = fabric.hca(int(sample.dst))
            before = int(target_hca.delivered)
            pkt = forge_packet(
                attacker_hca, attacker_qp, sample.dst, sample.bth.dest_qp,
                sample.pkey, sample.qkey, cfg.mtu_bytes,
            )
            inject_raw(attacker_hca, pkt)
            engine.run(until=round(300 * PS_PER_US))
            # count only the forged delivery (legit traffic keeps flowing)
            outcomes[auth] = target_hca.auth_failures
        assert outcomes[AuthMode.ICRC] == 0  # forgery sailed through
        assert outcomes[AuthMode.UMAC] >= 1  # forgery caught by the tag


class TestCrashPipelineLeak:
    """Bugfix: crash_switch used to scrape only `fifo.ready` entries,
    missing packets still in the routing/enforcement pipeline stage."""

    def test_in_pipeline_packet_keys_leak(self):
        from tests.conftest import make_packet
        from repro.iba.keys import PKey, QKey

        cfg, engine, fabric, *_ = experiment(enable_best_effort=False)
        sw = fabric.switches[(1, 1)]
        pkt = make_packet(pkey=PKey(0x8321), qkey=QKey(0xBEEF))
        sw.receive(pkt, 1)  # enters the pipeline; no engine.run → stays there
        assert sw.pipeline_packets() == [pkt]
        # the old scrape would have seen nothing: no FIFO has it ready yet
        assert all(
            not fifo.ready for buf in sw.inputs for fifo in buf.fifos
        )
        leaks = []
        injector = FaultInjector(fabric)
        injector.crash_switch((1, 1), on_leak=leaks.append)
        (leak,) = leaks
        assert pkt.pkey in leak.pkeys
        assert pkt.qkey in leak.qkeys

    def test_ready_fifo_keys_leak(self):
        """Packets waiting in an input FIFO leak their keys, whichever VL
        FIFO was created for them on first use."""
        from tests.conftest import make_packet
        from repro.iba.keys import PKey, QKey

        cfg, engine, fabric, *_ = experiment(enable_best_effort=False)
        sw = fabric.switches[(1, 1)]
        pkt = make_packet(pkey=PKey(0x8456), qkey=QKey(0xCAFE), vl=7)
        sw.inputs[2].begin_processing(7)
        sw.inputs[2].make_ready(pkt, 1)
        leaks = []
        FaultInjector(fabric).crash_switch((1, 1), on_leak=leaks.append)
        (leak,) = leaks
        assert pkt.pkey in leak.pkeys
        assert pkt.qkey in leak.qkeys

    def test_live_crash_leak_covers_pipeline_contents(self):
        """Whatever is in the pipeline at crash time must be in the leak."""
        cfg, engine, fabric, *_ = experiment(best_effort_load=0.4)
        sw = fabric.switches[(1, 1)]
        injector = FaultInjector(fabric)
        seen = {}

        def on_leak(leak):
            seen["leak"] = leak
            seen["pipeline_pkeys"] = {p.pkey for p in sw.pipeline_packets()}

        injector.crash_switch((1, 1), at_ps=round(50 * PS_PER_US),
                              on_leak=on_leak)
        engine.run(until=cfg.sim_time_ps)
        assert seen["leak"].pkeys >= seen["pipeline_pkeys"]


class TestMultipleEavesdroppers:
    """Bugfix: a second tap_link on the same link used to silently replace
    the first eavesdropper's hook."""

    def test_both_taps_see_every_packet(self):
        cfg, engine, fabric, *_ = experiment()
        injector = FaultInjector(fabric)
        link = fabric.hca(1).out_link
        first = injector.tap_link(link)
        second = injector.tap_link(link)
        engine.run(until=cfg.sim_time_ps)
        assert len(first) > 0
        assert first == second

    def test_captured_keys_unions_all_taps(self):
        cfg, engine, fabric, *_ = experiment()
        injector = FaultInjector(fabric)
        link = fabric.hca(1).out_link
        first = injector.tap_link(link)
        second = injector.tap_link(link)
        engine.run(until=cfg.sim_time_ps)
        pkeys, qkeys = injector.captured_keys(link.name)
        expect_pkeys = {p.pkey for p in first} | {p.pkey for p in second}
        assert pkeys == expect_pkeys
        assert len(qkeys) > 0

    def test_taps_view_still_maps_link_to_captures(self):
        cfg, engine, fabric, *_ = experiment()
        injector = FaultInjector(fabric)
        link = fabric.hca(1).out_link
        captured = injector.tap_link(link)
        engine.run(until=round(100 * PS_PER_US))
        assert injector.taps[link.name] == captured
