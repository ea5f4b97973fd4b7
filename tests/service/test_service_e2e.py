"""End-to-end service tests over real HTTP sockets.

The plain tests drive the socket layer with the instant fake runner; the
``tier2_service`` marker runs real simulations through the full stack
(submit → poll → fetch with workers=2) plus a scaled-down soak.
"""

import json
import time
import urllib.error
import urllib.request

import pytest

from repro.experiments.soak_service import SoakConfig, run_soak
from repro.service.api import CLIENT_HEADER
from repro.service.workers import execute_job

from tests.service.conftest import tiny_body


def http(method, url, body=None, client_id="e2e"):
    req = urllib.request.Request(url, data=body, method=method)
    req.add_header(CLIENT_HEADER, client_id)
    try:
        with urllib.request.urlopen(req, timeout=10) as resp:
            return resp.status, json.loads(resp.read()), dict(resp.headers)
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read()), dict(err.headers)


def poll_done(base, job_id, timeout=60.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        _, payload, _ = http("GET", f"{base}/jobs/{job_id}")
        if payload["state"] in ("done", "failed"):
            return payload
        time.sleep(0.05)
    raise AssertionError(f"job {job_id} not terminal within {timeout}s")


class TestHttpLayer:
    def test_routes_and_json_errors(self, make_service):
        service = make_service(serve_http=True)
        base = service.url
        assert http("GET", f"{base}/healthz")[1] == {"ok": True, "draining": False}
        assert http("GET", f"{base}/version")[1]["name"] == "repro"
        status, payload, _ = http("GET", f"{base}/nope")
        assert status == 404
        assert payload["error"] == "unknown endpoint"
        assert payload["path"] == "/nope"
        status, payload, _ = http("POST", f"{base}/nope", b"{}")
        assert status == 404

    def test_submit_over_http_with_client_header(self, make_service):
        service = make_service(serve_http=True)
        base = service.url
        status, body, _ = http("POST", f"{base}/jobs", tiny_body(seed=60), "alice")
        assert status == 202
        final = poll_done(base, body["job_id"])
        assert final["state"] == "done"
        assert service.store.get(body["job_id"]).client_id == "alice"
        assert service.metrics_payload()["clients"] == 1

    def test_malformed_over_http_is_400_json(self, make_service):
        service = make_service(serve_http=True)
        status, payload, _ = http("POST", f"{service.url}/jobs", b"{nope")
        assert status == 400
        assert "not valid JSON" in payload["error"]


@pytest.mark.tier2_service
class TestServiceE2E:
    def test_submit_poll_fetch_with_real_simulations(self, make_service):
        """The acceptance smoke: two workers, real runs, cache-backed
        duplicate, byte-identical reports, graceful drain."""
        service = make_service(runner=execute_job, workers=2, serve_http=True)
        base = service.url
        status, first, _ = http("POST", f"{base}/jobs", tiny_body(seed=70))
        assert status == 202
        # a second distinct scenario keeps both workers busy
        status, second, _ = http("POST", f"{base}/jobs", tiny_body(seed=71))
        assert status == 202
        for job in (first, second):
            assert poll_done(base, job["job_id"])["state"] == "done"

        _, report1, _ = http("GET", f"{base}/jobs/{first['job_id']}/report")
        assert report1["schema"] == "repro.service_report/1"
        assert report1["delivered"] > 0
        _, trace, _ = http("GET", f"{base}/jobs/{first['job_id']}/trace")
        assert trace["trace_available"]
        assert trace["events"], "a real run must emit trace events"

        # duplicate: instant cache hit, byte-identical report
        status, dup, _ = http("POST", f"{base}/jobs", tiny_body(seed=70))
        assert status == 200
        assert dup["cache_hit"]
        _, report2, _ = http("GET", f"{base}/jobs/{dup['job_id']}/report")
        assert json.dumps(report1, sort_keys=True) == json.dumps(report2, sort_keys=True)

        service.drain(timeout=30)
        status, _, _ = http("POST", f"{base}/jobs", tiny_body(seed=72))
        assert status == 503
        _, metrics, _ = http("GET", f"{base}/metrics")
        timings = metrics["counters"]
        for name in ("service.queue_wait_seconds", "service.run_seconds"):
            assert timings[f"{name}.count"] == 2  # the two jobs workers ran
            assert timings[f"{name}.sum"] > 0

    def test_scaled_down_soak_passes(self, tmp_path):
        report = run_soak(SoakConfig(
            clients=3,
            workers=2,
            sim_time_us=40.0,
            cache_dir=str(tmp_path / "soak_cache"),
        ))
        assert report.problems == []
        assert report.accepted == 3 * 2 + 3  # per-client fresh + shared pool
        assert report.rejected_429 >= 1
        assert report.duplicate_groups >= 1
