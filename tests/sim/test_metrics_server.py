"""The live metrics endpoint: poll a running engine over HTTP.

Uses ephemeral ports (``port=0``) so tests never collide, and polls with
stdlib urllib — the server itself must not need anything beyond the
standard library.
"""

import json
import urllib.error
import urllib.request

import pytest

from repro.sim import metrics_server
from repro.sim.counters import CounterRegistry
from repro.sim.engine import PS_PER_US, Engine
from repro.sim.metrics_server import MetricsServer
from repro.sim.trace import Tracer


def get_json(url):
    with urllib.request.urlopen(url, timeout=5) as resp:
        assert resp.headers["Content-Type"] == "application/json"
        return json.loads(resp.read())


@pytest.fixture
def sim():
    engine = Engine()
    registry = CounterRegistry()
    ticks = registry.counter("test.ticks")

    def tick():
        ticks.inc()
        engine.schedule(1000, tick)

    engine.schedule(1000, tick)
    return engine, registry


class TestEndpoints:
    def test_metrics_snapshot_tracks_run_progress(self, sim):
        """Poll /metrics between run chunks: the snapshot must advance
        with the simulated clock and expose live counter values."""
        engine, registry = sim
        tracer = Tracer(max_events=100)
        tracer.record(0, "boot", "test", 0, "")
        with MetricsServer(engine, registry, tracer) as server:
            seen = []
            for horizon in (10_000, 20_000, 30_000):
                engine.run(until=horizon)
                snap = get_json(server.url + "/metrics")
                seen.append(snap)
            assert [s["now_ps"] for s in seen] == [10_000, 20_000, 30_000]
            assert seen[-1]["now_us"] == pytest.approx(0.03)
            assert seen[0]["events_processed"] < seen[-1]["events_processed"]
            assert seen[-1]["counters"]["test.ticks"] == 30
            assert seen[-1]["pending_events"] >= 1
            assert seen[-1]["trace_tail"][0]["kind"] == "boot"

    def test_counters_endpoint_is_counters_only(self, sim):
        engine, registry = sim
        engine.run(until=5_000)
        with MetricsServer(engine, registry) as server:
            snap = get_json(server.url + "/counters")
            assert snap == {"counters": {"test.ticks": 5}}

    def test_metrics_without_tracer_omits_trace_tail(self, sim):
        engine, registry = sim
        with MetricsServer(engine, registry) as server:
            assert "trace_tail" not in get_json(server.url + "/metrics")

    def test_trace_tail_is_bounded(self, sim):
        engine, registry = sim
        tracer = Tracer(max_events=1000)
        for i in range(20):
            tracer.record(i, "ev", "test", i, "")
        with MetricsServer(engine, registry, tracer, trace_tail=5) as server:
            tail = get_json(server.url + "/metrics")["trace_tail"]
            assert len(tail) == 5
            assert [e["packet_id"] for e in tail] == [15, 16, 17, 18, 19]

    def test_healthz(self, sim):
        engine, registry = sim
        with MetricsServer(engine, registry) as server:
            assert get_json(server.url + "/healthz") == {"ok": True}

    def test_unknown_path_is_404_with_json_body(self, sim):
        engine, registry = sim
        with MetricsServer(engine, registry) as server:
            with pytest.raises(urllib.error.HTTPError) as exc:
                get_json(server.url + "/nope")
            assert exc.value.code == 404
            body = json.loads(exc.value.read())
            assert body["error"] == "unknown endpoint"
            assert body["status"] == 404
            assert body["path"] == "/nope"

    def test_version_endpoint(self, sim):
        from repro import __version__

        engine, registry = sim
        with MetricsServer(engine, registry) as server:
            assert get_json(server.url + "/version") == {
                "name": "repro",
                "version": __version__,
            }


class TestLifecycle:
    def test_ephemeral_port_resolves_after_start(self, sim):
        engine, registry = sim
        server = MetricsServer(engine, registry)
        url = server.start()
        try:
            assert server.port != 0
            assert url == f"http://127.0.0.1:{server.port}"
        finally:
            server.stop()

    def test_stop_is_idempotent_and_releases_port(self, sim):
        engine, registry = sim
        server = MetricsServer(engine, registry)
        server.start()
        port = server.port
        server.stop()
        server.stop()  # second stop is a no-op
        # port released: a new server can bind the same one immediately
        rebound = MetricsServer(engine, registry, port=port)
        try:
            rebound.start()
            assert get_json(rebound.url + "/healthz") == {"ok": True}
        finally:
            rebound.stop()

    def test_start_twice_returns_same_url(self, sim):
        engine, registry = sim
        with MetricsServer(engine, registry) as server:
            assert server.start() == server.url

    def test_restart_after_stop_keeps_the_resolved_port(self, sim):
        """stop()/start() must re-bind the same port even when the first
        start resolved an ephemeral one — restarts keep a stable URL."""
        engine, registry = sim
        server = MetricsServer(engine, registry)
        url = server.start()
        port = server.port
        server.stop()
        assert not server.running
        try:
            assert server.start() == url
            assert server.port == port
            assert get_json(url + "/healthz") == {"ok": True}
        finally:
            server.stop()


class TestRunSimulation:
    def test_metrics_port_serves_the_run_and_stops_after(self, monkeypatch):
        """``run_simulation(metrics_port=0)`` serves the live engine while
        it runs — a callback inside the run polls it — and stops after."""
        from repro.sim.config import SimConfig
        from repro.sim.runner import run_simulation

        servers = []

        class Recorded(MetricsServer):
            def start(self):
                servers.append(self)
                return super().start()

        monkeypatch.setattr(metrics_server, "MetricsServer", Recorded)
        seen = []

        def setup(engine, fabric):
            engine.schedule_at(
                20 * PS_PER_US,
                lambda: seen.append(get_json(servers[0].url + "/metrics")),
            )

        cfg = SimConfig(mesh_width=2, mesh_height=2, num_partitions=2,
                        sim_time_us=40.0, warmup_us=0.0)
        report = run_simulation(cfg, setup=setup, metrics_port=0)
        (snap,) = seen
        assert snap["now_ps"] == 20 * PS_PER_US
        assert 0 < snap["events_processed"] < report.events_processed
        (server,) = servers
        assert not server.running
        with pytest.raises(urllib.error.URLError):
            get_json(server.url + "/healthz")
