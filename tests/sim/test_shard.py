"""Sharded-engine edge cases: the conservative-synchronization coordinator
(lookahead horizon, empty shards, termination), runtime message handling at
the window boundary, registrations posted one SM processing step ahead, and
worker crashes."""

import pytest

from repro.iba.keys import PKey
from repro.iba.packet import TrapMAD
from repro.iba.types import LID
from repro.sim.config import EnforcementMode, SimConfig
from repro.sim.engine import PS_PER_US
from repro.sim.shard import (
    _REGISTER,
    ShardCrashError,
    ShardRuntime,
    _run_rounds,
    run_sharded,
)

LOOKAHEAD = 10


class FakeDriver:
    """Scripted shard for coordinator tests: local events at given times,
    each optionally emitting messages when processed."""

    def __init__(self, events=(), lookahead=LOOKAHEAD):
        #: sorted [(fire, [(dst, msg), ...])] still pending.
        self.pending = sorted((t, list(out)) for t, out in events)
        self.lookahead = lookahead
        self.received = []  # (delivered_at_clock, msg)
        self.clock = 0
        self.advances = []

    def deliver_and_eot(self, msgs):
        for msg in msgs:
            assert msg[0] >= self.clock, (
                f"causality violation: message fires at {msg[0]} but the "
                f"shard clock is already {self.clock}"
            )
            self.received.append((self.clock, msg))
            self.pending.append((msg[0], []))
        self.pending.sort(key=lambda e: e[0])
        if not self.pending:
            return None
        return self.pending[0][0] + self.lookahead

    def advance(self, target):
        self.advances.append(target)
        assert target >= self.clock
        self.clock = target
        out = []
        while self.pending and self.pending[0][0] <= target:
            _, emits = self.pending.pop(0)
            out.extend(emits)
        return out, 0.0

    def result(self):
        return None

    def close(self):
        pass


class TestCoordinator:
    def test_message_firing_exactly_at_horizon_is_delivered(self):
        # A's event at t=100 emits a message that fires at t=110 — exactly
        # the first window bound min(eot) = 100 + L.  The receiver's clock
        # is already 110 when the message arrives; it must be scheduled
        # (schedule-at-now is legal), not dropped and not a causality error.
        msg = (110, _REGISTER, 1, 0x8001)
        a = FakeDriver(events=[(100, [(1, msg)])])
        b = FakeDriver()
        _run_rounds([a, b], end_ps=1000)
        assert b.received == [(110, msg)]

    def test_empty_shard_does_not_stall_neighbors(self):
        # B is empty: it must report no constraint (eot None), so the first
        # window is A's 100+L — not an L-by-L crawl from zero.  A handful
        # of rounds finishes the run; a null-message crawl would need
        # ~end/L = 100 rounds just to reach the first event.
        a = FakeDriver(events=[(100, []), (500, [])])
        b = FakeDriver()
        rounds = _run_rounds([a, b], end_ps=1000)
        assert rounds <= 4
        assert a.clock == b.clock == 1000  # clocks aligned to the horizon

    def test_all_empty_terminates_immediately(self):
        a, b = FakeDriver(), FakeDriver()
        assert _run_rounds([a, b], end_ps=1000) == 0

    def test_events_past_horizon_never_run(self):
        a = FakeDriver(events=[(5000, [(1, (5010, _REGISTER, 1, 0))])])
        b = FakeDriver()
        _run_rounds([a, b], end_ps=1000)
        assert b.received == []
        assert a.pending  # the event is still pending, not consumed


def _runtime_config(**overrides):
    base = dict(
        topology="fat_tree", fat_tree_k=4, shards=2,
        num_partitions=2, partition_layout="pod",
        enforcement=EnforcementMode.SIF,
        enable_best_effort=False, enable_realtime=False, num_attackers=0,
        sim_time_us=200.0, warmup_us=0.0,
    )
    base.update(overrides)
    cfg = SimConfig(**base)
    cfg.validate()
    return cfg


class TestShardRuntime:
    def test_register_at_current_clock_is_legal(self):
        # a REGISTER crossing back to the offender shard carries zero
        # residual delay: it can fire exactly at the receiver's clock
        rt = ShardRuntime(_runtime_config(), 0)
        rt.advance(5_000_000)
        rt.deliver_and_eot([(5_000_000, _REGISTER, 1, PKey(0x0001))])
        rt.advance(5_000_000)
        assert rt.fabric.registry.total("filter.*.activations") == 1

    def test_busy_sm_keeps_lookahead_and_posts_register_ahead(self):
        # the SM shard posts a remote offender's REGISTER when it schedules
        # the processing step, firing at that step's instant, so a busy SM
        # keeps t_next + L and the step itself posts nothing
        rt = ShardRuntime(_runtime_config(), 0)
        sm = rt.fabric.sm
        remote = min(lid for lid in sm.registration_hooks
                     if rt.plan.shard_of_lid(lid) != 0)
        local = min(rt.owned)
        pkey = PKey(0x0005)
        rt.engine.schedule_at(1000, int)
        assert rt.deliver_and_eot([]) == 1000 + rt.lookahead
        sm._arrive(TrapMAD(reporter=LID(local), offender=LID(remote), bad_pkey=pkey))
        assert sm._busy
        step = sm.processing_ps
        assert rt.outgoing == [
            (rt.plan.shard_of_lid(remote), (step, _REGISTER, remote, pkey))
        ]
        assert rt.deliver_and_eot([]) == 1000 + rt.lookahead
        out, _busy = rt.advance(step)
        assert out == [(rt.plan.shard_of_lid(remote), (step, _REGISTER, remote, pkey))]
        assert sm.registrations.value == 1
        assert not sm._busy
        assert rt.fabric.registry.total("filter.*.activations") == 0  # not ours

    def test_local_offender_and_late_step_post_nothing(self):
        # a local offender registers on this shard's own filter at the
        # step; a step past the horizon never runs, so it posts nothing
        cfg = _runtime_config()
        rt = ShardRuntime(cfg, 0)
        sm = rt.fabric.sm
        local = min(rt.owned)
        sm._arrive(TrapMAD(reporter=LID(local), offender=LID(local), bad_pkey=PKey(5)))
        assert rt.outgoing == []
        rt.advance(sm.processing_ps)
        assert rt.fabric.registry.total("filter.*.activations") == 1
        remote = min(lid for lid in sm.registration_hooks
                     if rt.plan.shard_of_lid(lid) != 0)
        rt.advance(cfg.sim_time_ps - 1)
        sm._arrive(TrapMAD(reporter=LID(local), offender=LID(remote), bad_pkey=PKey(5)))
        assert rt.outgoing == []

    def test_boundary_surgery_is_shard_local(self):
        # every boundary link name maps on exactly one of the two runtimes'
        # sender tables, and the opposite runtime's receiver table, and each
        # sender half posts through its own runtime
        r0 = ShardRuntime(_runtime_config(), 0)
        r1 = ShardRuntime(_runtime_config(), 1)
        assert set(r0._pkt_route) == set(r1._in_map)
        assert set(r1._pkt_route) == set(r0._in_map)
        assert not (set(r0._pkt_route) & set(r1._pkt_route))
        for rt in (r0, r1):
            assert all(link.dst is rt for link in rt._out_links.values())


class TestProcessTransportCrash:
    def test_sm_shard_crash_mid_registration_raises(self):
        # the SM shard dies at 60 us — mid-run, with SIF registration
        # traffic in flight from the flooder; the parent must surface
        # ShardCrashError (and reap every worker) instead of hanging
        cfg = SimConfig(
            topology="fat_tree", fat_tree_k=4, shards=2,
            shard_transport="process",
            num_partitions=2, partition_layout="pod",
            enforcement=EnforcementMode.SIF, num_attackers=1,
            best_effort_load=0.3, sim_time_us=150.0, warmup_us=50.0,
        )
        cfg.validate()
        with pytest.raises(ShardCrashError) as excinfo:
            run_sharded(cfg, _crash_at=(0, 60 * PS_PER_US))
        assert excinfo.value.shard == 0


class TestRunSimulationDispatch:
    def test_sharded_report_carries_shard_bookkeeping(self):
        from repro.sim.runner import run_simulation

        cfg = _runtime_config(
            enable_best_effort=True, best_effort_load=0.3,
            num_attackers=1, sim_time_us=150.0, warmup_us=50.0,
        )
        report = run_simulation(cfg)
        assert report.counters["shard.count"] == 2
        assert report.counters["shard.rounds"] > 0
        assert report.counters["shard.lookahead_ps"] == 10_000
        assert report.key_exchanges == 0

    def test_sharded_rejects_setup_hooks_and_tracer(self):
        from repro.sim.runner import run_simulation
        from repro.sim.trace import Tracer

        cfg = _runtime_config()
        with pytest.raises(ValueError, match="do not support"):
            run_simulation(cfg, tracer=Tracer())
        with pytest.raises(ValueError, match="do not support"):
            run_simulation(cfg, setup=lambda engine, fabric: None)


def _pod_sif_config(transport: str, **overrides) -> SimConfig:
    """k=4 fat tree on 2 shards: SIF, one flooder, pod partitions."""
    base = dict(
        topology="fat_tree", fat_tree_k=4, shards=2,
        shard_transport=transport, partition_layout="pod",
        enforcement=EnforcementMode.SIF, num_attackers=1,
        sim_time_us=150.0,
    )
    return SimConfig(**{**base, **overrides})


class TestTransportIndependence:
    @staticmethod
    def counters(transport):
        from repro.sim.runner import run_simulation

        report = run_simulation(_pod_sif_config(transport))
        # busy_seconds is host wall-clock time, not a simulation result
        return {k: v for k, v in report.counters.items()
                if not k.endswith(".busy_seconds")}

    def test_process_and_inline_run_the_same_rounds(self):
        """Forked shard workers run the same rounds, and count the same,
        as shards driven inline."""
        process = self.counters("process")
        assert process["shard.rounds"] > 0
        assert process == self.counters("inline")
