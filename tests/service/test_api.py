"""The admission pipeline and read endpoints, driven without a socket.

``JobService.submit`` / ``job_status`` / ``job_report`` return ``(status,
body, ...)`` tuples directly, so these tests assert the HTTP contract —
status codes, Retry-After headers, counter accounting — at function-call
speed; the tier2 e2e module covers the socket layer.
"""

import json
import threading

import pytest

from repro.service.badinput import INVALID_SUBMISSIONS, oversized_submission
from repro.service.ratelimit import ClientRateLimiter

from tests.service.conftest import fake_runner, tiny_body, wait_terminal


def counters(service):
    return service.registry.snapshot()


class TestRejection400:
    @pytest.mark.parametrize(
        "label,body,fragment",
        INVALID_SUBMISSIONS,
        ids=[label for label, _, _ in INVALID_SUBMISSIONS],
    )
    def test_malformed_submissions_get_400(self, make_service, label, body, fragment):
        service = make_service()
        status, payload, _ = service.submit("c", body)
        assert status == 400
        assert fragment in payload["error"]
        assert counters(service)["service.rejected_400"] == 1

    def test_oversized_payload_is_400(self, make_service):
        service = make_service()
        raw = oversized_submission(service.config.max_body_bytes)
        status, payload, _ = service.submit("c", raw)
        assert status == 400
        assert "exceeds" in payload["error"]

    def test_horizon_above_service_limit_is_400(self, make_service):
        service = make_service(max_sim_time_us=100.0)
        status, payload, _ = service.submit("c", tiny_body(sim_time_us=5000.0))
        assert status == 400
        assert "sim_time_us" in payload["error"]

    def test_sharded_scenario_is_400(self, make_service):
        """Regression: a sharded scenario was accepted with 202, then every
        run failed, because service jobs always run traced."""
        service = make_service()
        status, payload, _ = service.submit("c", tiny_body(
            topology="fat_tree", fat_tree_k=4, partition_layout="pod", shards=2,
        ))
        assert status == 400
        assert "shards=2" in payload["error"]
        assert len(service.store) == 0

    def test_malformed_submissions_spend_no_tokens(self, make_service):
        """400s happen before the token bucket: a misbehaving-but-broken
        client cannot rate-limit itself into masking its own errors."""
        service = make_service(burst=2, rate_per_s=0.001)
        for _ in range(5):
            service.submit("c", b"{nope")
        status, _, _ = service.submit("c", tiny_body(seed=50))
        assert status == 202


class TestSubmitLifecycle:
    def test_submit_poll_report_trace(self, make_service):
        service = make_service()
        status, body, _ = service.submit("c", tiny_body(seed=1))
        assert status == 202
        assert body["state"] == "queued"
        assert not body["cache_hit"] and not body["coalesced"]
        job = wait_terminal(service, body["job_id"])
        assert job.state.value == "done"

        status, payload = service.job_status(body["job_id"])
        assert status == 200
        assert payload["state"] == "done"
        assert payload["summary"]["delivered"] == 7
        assert payload["service_counters"]["service.completed"] == 1

        status, report = service.job_report(body["job_id"])
        assert status == 200
        assert report["schema"] == "repro.service_report/1"
        assert report["delivered"] == 7

        status, trace = service.job_trace(body["job_id"])
        assert status == 200
        assert trace["trace_available"]
        assert trace["events"][0]["kind"] == "fake"

    def test_cache_root_under_a_file_still_finishes_the_job(
        self, make_service, tmp_path
    ):
        """Regression: a cache directory that cannot be created raised in
        the worker thread, which died and left the job running forever."""
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory")
        service = make_service(cache_dir=str(blocker / "cache"), workers=1)
        _, body, _ = service.submit("c", tiny_body(seed=3))
        assert wait_terminal(service, body["job_id"]).state.value == "done"
        assert service.pool.active == 1

    def test_duplicate_after_completion_is_instant_cache_hit(self, make_service):
        service = make_service()
        _, first, _ = service.submit("a", tiny_body(seed=2))
        wait_terminal(service, first["job_id"])
        status, dup, _ = service.submit("b", tiny_body(seed=2))
        assert status == 200
        assert dup["cache_hit"]
        assert dup["job_id"] != first["job_id"]
        # byte-identical reports for both job ids
        dumps = [
            json.dumps(service.job_report(j)[1], sort_keys=True)
            for j in (first["job_id"], dup["job_id"])
        ]
        assert dumps[0] == dumps[1]
        assert counters(service)["service.cache_hits"] == 1

    def test_duplicate_of_inflight_job_coalesces(self, make_service):
        gate = threading.Event()
        entered = threading.Event()

        def blocking_runner(d):
            entered.set()
            assert gate.wait(10)
            return fake_runner(d)

        service = make_service(runner=blocking_runner, workers=1)
        _, first, _ = service.submit("a", tiny_body(seed=3))
        assert entered.wait(5)  # the job is running, not yet cached
        status, dup, _ = service.submit("b", tiny_body(seed=3))
        assert status == 202
        assert dup["job_id"] == first["job_id"]
        assert dup["coalesced"]
        gate.set()
        wait_terminal(service, first["job_id"])
        snap = counters(service)
        assert snap["service.coalesced"] == 1
        assert snap["service.accepted"] == 1
        assert snap["service.completed"] == 1  # one simulation, not two

    def test_duplicate_racing_job_completion_is_not_a_new_job(self, make_service):
        """Regression: a duplicate that missed the cache just before the
        running job stored its result, then found no in-flight job just
        after, was accepted as a second job (the soak's over-count)."""
        gate = threading.Event()
        entered = threading.Event()

        def blocking_runner(d):
            entered.set()
            assert gate.wait(10)
            return fake_runner(d)

        service = make_service(runner=blocking_runner, workers=1)
        _, first, _ = service.submit("a", tiny_body(seed=5))
        assert entered.wait(5)
        cache_get = service.cache.get

        def get_then_let_the_job_finish(key):
            entry = cache_get(key)
            gate.set()
            wait_terminal(service, first["job_id"])
            return entry

        service.cache.get = get_then_let_the_job_finish
        _, dup, _ = service.submit("b", tiny_body(seed=5))
        gate.set()
        wait_terminal(service, first["job_id"])
        assert dup["job_id"] == first["job_id"] or dup["cache_hit"]
        snap = counters(service)
        assert snap["service.accepted"] == 1
        assert snap["service.completed"] == 1

    def test_failed_job_reports_409_with_error(self, make_service):
        def exploding_runner(d):
            raise RuntimeError("kaboom")

        service = make_service(runner=exploding_runner)
        _, body, _ = service.submit("c", tiny_body(seed=4))
        job = wait_terminal(service, body["job_id"])
        assert job.state.value == "failed"
        assert "kaboom" in job.error
        status, payload = service.job_report(body["job_id"])
        assert status == 409
        assert "kaboom" in payload["error"]
        assert counters(service)["service.failed"] == 1

    def test_unknown_job_is_404_everywhere(self, make_service):
        service = make_service()
        for method in (service.job_status, service.job_report, service.job_trace):
            result = method("job-nope")
            assert result[0] == 404

    def test_report_before_completion_is_409(self, make_service):
        gate = threading.Event()
        service = make_service(
            runner=lambda d: (gate.wait(10), fake_runner(d))[1], workers=1
        )
        _, body, _ = service.submit("c", tiny_body(seed=5))
        status, payload = service.job_report(body["job_id"])
        assert status == 409
        assert payload["state"] in ("queued", "running")
        gate.set()
        wait_terminal(service, body["job_id"])


class TestRateLimit429:
    def test_burst_exhaustion_gets_429_with_retry_after(self, make_service):
        service = make_service()
        clock = [0.0]
        service.limiter = ClientRateLimiter(
            rate_per_s=1.0, burst=2, clock=lambda: clock[0]
        )
        for seed in (10, 11):
            status, _, _ = service.submit("greedy", tiny_body(seed=seed))
            assert status == 202
        status, payload, headers = service.submit("greedy", tiny_body(seed=12))
        assert status == 429
        assert int(headers["Retry-After"]) >= 1
        assert payload["retry_after_s"] >= 1
        assert counters(service)["service.rejected_429_rate"] == 1
        # other clients are unaffected; the greedy one recovers after refill
        assert service.submit("patient", tiny_body(seed=13))[0] == 202
        clock[0] += 1.0
        assert service.submit("greedy", tiny_body(seed=14))[0] == 202

    def test_full_queue_gets_429_with_drain_rate_hint(self, make_service):
        gate = threading.Event()
        entered = threading.Event()

        def blocking_runner(d):
            entered.set()
            assert gate.wait(10)
            return fake_runner(d)

        service = make_service(
            runner=blocking_runner, workers=1, queue_depth=1, burst=10
        )
        _, running, _ = service.submit("c", tiny_body(seed=20))
        assert entered.wait(5)  # worker busy; queue now empty
        assert service.submit("c", tiny_body(seed=21))[0] == 202  # fills depth 1
        status, payload, headers = service.submit("c", tiny_body(seed=22))
        assert status == 429
        assert "queue" in payload["error"]
        assert int(headers["Retry-After"]) >= 1
        assert counters(service)["service.rejected_429_queue"] == 1
        gate.set()
        wait_terminal(service, running["job_id"])


class TestDrain503:
    def test_drain_rejects_new_but_finishes_queued(self, make_service):
        gate = threading.Event()
        service = make_service(
            runner=lambda d: (gate.wait(10), fake_runner(d))[1], workers=1
        )
        _, body, _ = service.submit("c", tiny_body(seed=30))
        gate.set()
        service.drain(timeout=10)
        assert service.draining
        # the in-flight job completed during the drain
        assert service.store.get(body["job_id"]).state.value == "done"
        status, payload, _ = service.submit("c", tiny_body(seed=31))
        assert status == 503
        assert "draining" in payload["error"]
        assert counters(service)["service.rejected_503"] == 1
        # read endpoints stay up while draining
        assert service.job_status(body["job_id"])[0] == 200


class TestMetricsPayload:
    def test_shape_and_accounting(self, make_service):
        service = make_service()
        _, body, _ = service.submit("c", tiny_body(seed=40))
        wait_terminal(service, body["job_id"])
        payload = service.metrics_payload()
        assert payload["jobs"]["done"] == 1
        assert payload["queue"]["pushed"] == payload["queue"]["popped"] == 1
        assert payload["queue"]["peak_depth"] <= payload["queue"]["maxsize"]
        assert payload["clients"] == 1
        assert not payload["draining"]
        assert payload["counters"]["service.accepted"] == 1
