"""Tracer: lifecycle capture on a live fabric, ring buffer, timelines."""

from repro.analysis.charts import packet_timeline
from repro.sim.config import EnforcementMode, SimConfig
from repro.sim.runner import build_experiment
from repro.sim.trace import Tracer


def small_run(tracer, enforcement=EnforcementMode.NONE, attackers=0):
    cfg = SimConfig(
        mesh_width=2, mesh_height=2, num_partitions=1,
        sim_time_us=300.0, warmup_us=0.0, seed=2,
        best_effort_load=0.2, enable_realtime=False,
        num_attackers=attackers, enforcement=enforcement,
    )
    engine, fabric, sources, flooders, _, _ = build_experiment(cfg, tracer=tracer)
    engine.run(until=cfg.sim_time_ps)
    return fabric


class TestLifecycleCapture:
    def test_full_lifecycle_recorded(self):
        tracer = Tracer()
        fabric = small_run(tracer)
        kinds = tracer.kinds()
        assert kinds.get("created", 0) > 0
        assert kinds.get("injected", 0) > 0
        assert kinds.get("switch_rx", 0) > 0
        assert kinds.get("delivered", 0) > 0

    def test_packet_timeline_ordered(self):
        tracer = Tracer()
        small_run(tracer)
        delivered_ids = [e.packet_id for e in tracer.events if e.kind == "delivered"]
        pid = delivered_ids[0]
        events = tracer.for_packet(pid)
        times = [e.time_ps for e in events]
        assert times == sorted(times)
        kinds = [e.kind for e in events]
        assert kinds[0] == "created"
        assert kinds[-1] == "delivered"
        assert "injected" in kinds and "switch_rx" in kinds

    def test_timeline_renders(self):
        tracer = Tracer()
        small_run(tracer)
        text = packet_timeline(tracer.events, 1)
        assert "created" in text and "us" in text

    def test_filtered_events_under_sif(self):
        tracer = Tracer()
        small_run(tracer, enforcement=EnforcementMode.IF, attackers=1)
        assert tracer.kinds().get("filtered", 0) > 0

    def test_delivery_count_matches_fabric(self):
        tracer = Tracer()
        fabric = small_run(tracer)
        assert tracer.kinds().get("delivered", 0) == sum(
            h.delivered for h in fabric.hcas.values()
        )


class TestNativeEventBus:
    """Tracer wired at build time — components emit lifecycle events
    themselves, no wrapper monkey-patching."""

    def run_traced(self, tracer, **overrides):
        from repro.sim.runner import run_simulation

        base = dict(
            mesh_width=2, mesh_height=2, num_partitions=2,
            sim_time_us=300.0, warmup_us=0.0, seed=2,
            best_effort_load=0.2, enable_realtime=False,
        )
        base.update(overrides)
        return run_simulation(SimConfig(**base), tracer=tracer)

    def test_native_emission_covers_data_path(self):
        tracer = Tracer()
        report = self.run_traced(tracer)
        kinds = tracer.kinds()
        for kind in ("created", "injected", "switch_rx", "forwarded", "delivered"):
            assert kinds.get(kind, 0) > 0, kind
        assert kinds["delivered"] == report.counter_total("hca.*.delivered")

    def test_control_plane_events_carry_no_packet(self):
        from repro.sim.trace import NO_PACKET

        tracer = Tracer()
        self.run_traced(
            tracer, num_attackers=1, enforcement=EnforcementMode.SIF,
            sif_idle_timeout_us=50.0,
        )
        sif_events = tracer.of_kind("sif_activated", "sif_deactivated", "sif_registered")
        assert sif_events
        assert all(e.packet_id == NO_PACKET for e in sif_events)

    def test_ring_buffer_bounds_memory(self):
        tracer = Tracer(max_events=100)
        self.run_traced(tracer)
        assert len(tracer.events) == 100
        assert tracer.seen > 100
        assert tracer.truncated
        # ring keeps the *newest* events
        times = [e.time_ps for e in tracer.events]
        assert times == sorted(times)

    def test_unbounded_tracer_not_truncated(self):
        tracer = Tracer()
        self.run_traced(tracer)
        assert not tracer.truncated
        assert tracer.seen == len(tracer.events)

    def test_jsonl_roundtrip(self, tmp_path):
        import json

        tracer = Tracer()
        self.run_traced(tracer)
        path = tmp_path / "events.jsonl"
        n = tracer.to_jsonl(str(path))
        lines = path.read_text().splitlines()
        assert n == len(lines) == len(tracer.events)
        first = json.loads(lines[0])
        assert set(first) == {"time_ps", "time_us", "kind", "where", "packet_id", "detail"}
        for line, event in zip(lines, tracer.events):
            obj = json.loads(line)
            assert obj["time_ps"] == event.time_ps
            assert obj["kind"] == event.kind

    def test_jsonl_lines_match_to_jsonl(self, tmp_path):
        import io

        tracer = Tracer()
        self.run_traced(tracer)
        buf = io.StringIO()
        tracer.to_jsonl(buf)
        assert buf.getvalue().splitlines() == list(tracer.jsonl_lines())
