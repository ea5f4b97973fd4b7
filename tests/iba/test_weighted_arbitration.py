"""Weighted VL arbitration: the Limit-of-High-Priority counter bounds
best-effort starvation under saturating realtime pressure."""

import pytest

from repro.iba.arbiter import VLArbiter
from repro.iba.buffers import InputBuffer
from repro.iba.types import VL_BEST_EFFORT, VL_REALTIME
from repro.sim.config import SimConfig
from repro.sim.runner import run_simulation

from tests.conftest import make_packet


def loaded_buffer(rt=6, be=6):
    buf = InputBuffer(num_vls=2, capacity_per_vl=16)
    for _ in range(rt):
        buf.begin_processing(VL_REALTIME)
        buf.make_ready(make_packet(vl=VL_REALTIME), 0)
    for _ in range(be):
        buf.begin_processing(VL_BEST_EFFORT)
        buf.make_ready(make_packet(vl=VL_BEST_EFFORT), 0)
    return buf


def drain(arb, inputs, count):
    picked = []
    for _ in range(count):
        choice = arb.pick(0, inputs, [1, 1])
        if choice is None:
            break
        in_port, entry = choice
        inputs[in_port].pop_head(entry.packet.vl)
        picked.append(entry.packet.vl)
    return picked


class TestStrictPriority:
    def test_realtime_starves_best_effort(self):
        arb = VLArbiter(2)  # high_limit None = strict
        inputs = [loaded_buffer(rt=6, be=6)]
        order = drain(arb, inputs, 6)
        assert order == [VL_REALTIME] * 6  # BE never served while RT waits


class TestWeightedArbitration:
    def test_limit_interleaves_low_priority(self):
        arb = VLArbiter(2, high_limit=3)
        inputs = [loaded_buffer(rt=9, be=4)]
        order = drain(arb, inputs, 12)
        # every run of realtime grants is at most 3 long
        streak = 0
        for vl in order:
            if vl == VL_REALTIME:
                streak += 1
                assert streak <= 3
            else:
                streak = 0
        assert VL_BEST_EFFORT in order

    def test_limit_one_alternates(self):
        arb = VLArbiter(2, high_limit=1)
        inputs = [loaded_buffer(rt=4, be=4)]
        order = drain(arb, inputs, 8)
        assert order[:4] == [VL_REALTIME, VL_BEST_EFFORT, VL_REALTIME, VL_BEST_EFFORT]

    def test_no_low_traffic_keeps_serving_high(self):
        arb = VLArbiter(2, high_limit=2)
        inputs = [loaded_buffer(rt=5, be=0)]
        order = drain(arb, inputs, 5)
        assert order == [VL_REALTIME] * 5  # limit only matters when BE waits

    def test_invalid_limit(self):
        with pytest.raises(ValueError):
            VLArbiter(2, high_limit=0)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SimConfig(vl_arbitration_high_limit=0).validate()
        SimConfig(vl_arbitration_high_limit=4).validate()


class TestFabricLevelEffect:
    def test_weighted_mode_trades_rt_for_be(self):
        """With realtime pressure high, enabling the limit must improve
        best-effort latency at some realtime cost."""
        base = dict(
            sim_time_us=800.0, seed=3,
            realtime_load=0.6, best_effort_load=0.25,
            keep_samples=False,
        )
        strict = run_simulation(SimConfig(**base))
        weighted = run_simulation(SimConfig(**base, vl_arbitration_high_limit=1))
        assert weighted.cls("best_effort").network_us <= strict.cls("best_effort").network_us + 0.5
        assert weighted.cls("realtime").network_us >= strict.cls("realtime").network_us - 0.5
