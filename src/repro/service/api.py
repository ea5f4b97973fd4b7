"""The HTTP layer of the job service (stdlib ``http.server`` only).

Request lifecycle for ``POST /jobs`` (the admission pipeline, in order)::

    size/JSON/schema validation ──> 400  (strict unknown-key rejection)
    drain in progress           ──> 503
    per-client token bucket     ──> 429 + Retry-After
    in-flight coalescing        ──> 202 existing job id, "coalesced": true
    cache lookup                ──> 200 done, "cache_hit": true
    bounded queue depth         ──> 429 + Retry-After on overflow
    enqueue                     ──> 202 queued

Polling and fetching are plain GETs (``/jobs/<id>``, ``.../report``,
``.../trace``); service-level observability rides the same counter and
payload machinery as :class:`~repro.sim.metrics_server.MetricsServer`
(a :class:`~repro.sim.counters.CounterRegistry` snapshot in ``/metrics``
and in every job-status body).

Everything interesting lives in plain methods returning ``(status,
body, headers)`` so unit tests drive the admission logic without a
socket; the :class:`JsonRequestHandler` subclass is a thin router.
"""

from __future__ import annotations

import json
import math
import threading
import time
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler

from repro.fuzz.generators import Scenario, ScenarioValidationError
from repro.service.jobqueue import BoundedJobQueue, QueueClosed, QueueFull
from repro.service.jobstore import Job, JobState, JobStore, scenario_key
from repro.service.ratelimit import ClientRateLimiter
from repro.service.workers import WorkerPool, execute_job
from repro.sim.counters import CounterRegistry
from repro.sim.metrics_server import (
    JsonHttpServer,
    JsonRequestHandler,
    version_payload,
)
from repro.sim.sweep import DEFAULT_CACHE_DIR, RunCache, report_payload

#: Client id header; absent clients share one "anonymous" bucket.
CLIENT_HEADER = "X-Client-Id"


@dataclass
class ServiceConfig:
    """Service-level knobs (the *serving* half; scenario knobs arrive in
    each submission)."""

    host: str = "127.0.0.1"
    port: int = 0  #: 0 = ephemeral (tests); the CLI default is 8200.
    workers: int = 2  #: worker threads == max concurrent simulations.
    queue_depth: int = 32  #: FIFO bound (backlog memory cap).
    rate_per_s: float = 5.0  #: token-bucket refill per client.
    burst: int = 10  #: token-bucket capacity per client.
    cache_dir: str = DEFAULT_CACHE_DIR
    use_subprocess: bool = True  #: run jobs in subprocesses (crash isolation).
    max_body_bytes: int = 256 * 1024  #: oversized submissions are 400s.
    max_sim_time_us: float = 60_000.0
    """Upper bound on a submitted scenario's horizon — admission control
    for *compute*, not just arrival rate."""

    def validate(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.queue_depth < 1:
            raise ValueError("queue_depth must be >= 1")
        if self.rate_per_s <= 0 or self.burst < 1:
            raise ValueError("rate_per_s and burst must be positive")
        if self.max_body_bytes < 1024:
            raise ValueError("max_body_bytes must be >= 1024")
        if self.max_sim_time_us <= 0:
            raise ValueError("max_sim_time_us must be positive")


class JobService(JsonHttpServer):
    """Admission-controlled, cache-backed simulation job service."""

    def __init__(
        self,
        config: ServiceConfig | None = None,
        runner=execute_job,
    ) -> None:
        self.config = config or ServiceConfig()
        self.config.validate()
        super().__init__(host=self.config.host, port=self.config.port)
        self.registry = CounterRegistry()
        c = self.registry.counter
        self._submitted = c("service.submitted")
        self._accepted = c("service.accepted")
        self._cache_hits = c("service.cache_hits")
        self._coalesced = c("service.coalesced")
        self._rejected_400 = c("service.rejected_400")
        self._rejected_429_rate = c("service.rejected_429_rate")
        self._rejected_429_queue = c("service.rejected_429_queue")
        self._rejected_503 = c("service.rejected_503")
        self._completed = c("service.completed")
        self._failed = c("service.failed")
        # Timings of the jobs workers ran, each a sum and a count:
        # queued -> taken by a worker, and taken -> finished.
        self._queue_wait_sum = self.registry.gauge("service.queue_wait_seconds.sum")
        self._queue_wait_count = c("service.queue_wait_seconds.count")
        self._run_sum = self.registry.gauge("service.run_seconds.sum")
        self._run_count = c("service.run_seconds.count")
        self._worker_retries = self.registry.gauge("service.worker_retries")
        self._worker_fallbacks = self.registry.gauge("service.worker_fallbacks")
        self.store = JobStore()
        self.queue = BoundedJobQueue(maxsize=self.config.queue_depth)
        self.cache = RunCache(root=self.config.cache_dir)
        self.limiter = ClientRateLimiter(self.config.rate_per_s, self.config.burst)
        self.pool = WorkerPool(
            self.queue,
            self.store,
            self.cache,
            workers=self.config.workers,
            use_subprocess=self.config.use_subprocess,
            runner=runner,
            on_done=self._job_finished,
        )
        self._draining = False
        self._submit_lock = threading.Lock()
        self._finish_lock = threading.Lock()  # serialises _job_finished
        self._started_s = time.time()

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> str:
        url = super().start()
        self.pool.start()
        return url

    @property
    def draining(self) -> bool:
        return self._draining

    def drain(self, timeout: float | None = None) -> None:
        """Graceful shutdown, phase one: stop admitting, finish the rest.

        New submissions get 503 immediately; queued and running jobs run
        to completion (the queue is closed, workers exit once it is
        empty).  Polling/fetching endpoints stay up until :meth:`stop`.
        """
        self._draining = True
        self.queue.close()
        self.pool.join(timeout=timeout)

    def close(self, timeout: float | None = None) -> None:
        """Drain, then stop serving HTTP."""
        self.drain(timeout=timeout)
        self.stop()

    def __exit__(self, *exc) -> None:
        self.close()

    def _job_finished(self, job: Job) -> None:
        with self._finish_lock:
            (self._failed if job.state is JobState.FAILED else self._completed).inc()
            if job.started_s is not None and job.finished_s is not None:
                self._queue_wait_sum.add(job.started_s - job.created_s)
                self._queue_wait_count.inc()
                self._run_sum.add(job.finished_s - job.started_s)
                self._run_count.inc()
            self._worker_retries.value = self.pool.isolation.retried
            self._worker_fallbacks.value = self.pool.isolation.in_process

    # -- admission pipeline ---------------------------------------------------

    def _parse_submission(self, raw: bytes) -> Scenario:
        """Bytes -> validated Scenario; every failure is a 400."""
        if len(raw) > self.config.max_body_bytes:
            raise ScenarioValidationError(
                f"payload of {len(raw)} bytes exceeds the "
                f"{self.config.max_body_bytes}-byte limit"
            )
        try:
            payload = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ScenarioValidationError(f"body is not valid JSON: {exc}")
        scenario = Scenario.from_dict(payload, strict=True)
        try:
            config = scenario.build_config()
        except (ValueError, TypeError) as exc:
            # semantic config errors (bad enum value, range violations)
            raise ScenarioValidationError(f"invalid config: {exc}")
        if config.sim_time_us > self.config.max_sim_time_us:
            raise ScenarioValidationError(
                f"sim_time_us={config.sim_time_us:g} exceeds the service "
                f"limit of {self.config.max_sim_time_us:g}"
            )
        if config.shards > 1:
            # every job runs traced with a setup hook, which sharded runs
            # do not support
            raise ScenarioValidationError(
                f"shards={config.shards}: the service runs every job on one "
                f"process; submit shards=1"
            )
        return scenario

    def submit(
        self, client_id: str, raw: bytes
    ) -> tuple[int, dict, dict[str, str]]:
        """Handle one POST /jobs; returns (status, body, extra_headers)."""
        self._submitted.inc()
        try:
            scenario = self._parse_submission(raw)
        except ScenarioValidationError as exc:
            self._rejected_400.inc()
            return 400, {"error": str(exc)}, {}
        if self._draining:
            self._rejected_503.inc()
            return 503, {"error": "service is draining; not accepting jobs"}, {}
        ok, retry_after = self.limiter.admit(client_id)
        if not ok:
            self._rejected_429_rate.inc()
            return (
                429,
                {"error": "rate limit exceeded", "retry_after_s": retry_after},
                {"Retry-After": str(retry_after)},
            )
        key = scenario_key(scenario)
        with self._submit_lock:
            # In-flight before cache: a worker stores the result before it
            # retires the job, so a job gone from the in-flight index has
            # its result in the cache.  The other order let a job finish
            # between the two checks and its duplicate run a second time.
            inflight = self.store.inflight_for(key)
            if inflight is not None:
                self._coalesced.inc()
                inflight.coalesced = True
                return 202, self._submit_body(inflight), {}
            cached = self.cache.get(key)
            if cached is not None:
                self._cache_hits.inc()
                job = self.store.create_done(client_id, scenario, key, cached)
                return 200, self._submit_body(job), {}
            job = self.store.create(client_id, scenario, key)
            try:
                self.queue.push(job)
            except QueueFull:
                self.store.mark_failed(job, "rejected: queue full")
                self._rejected_429_queue.inc()
                retry = max(1, math.ceil(self.queue.maxsize / self.config.workers))
                return (
                    429,
                    {"error": "job queue is full", "retry_after_s": retry},
                    {"Retry-After": str(retry)},
                )
            except QueueClosed:
                self.store.mark_failed(job, "rejected: service draining")
                self._rejected_503.inc()
                return 503, {"error": "service is draining; not accepting jobs"}, {}
            # Body built under the lock: a racing duplicate must not flip
            # this response's coalesced flag after we counted it accepted.
            self._accepted.inc()
            return 202, self._submit_body(job), {}

    def _submit_body(self, job: Job) -> dict:
        return {
            "job_id": job.job_id,
            "state": job.state.value,
            "cache_hit": job.cache_hit,
            "coalesced": job.coalesced,
            "key": job.key,
        }

    # -- read endpoints -------------------------------------------------------

    def job_status(self, job_id: str) -> tuple[int, dict]:
        job = self.store.get(job_id)
        if job is None:
            return 404, {"error": f"unknown job {job_id!r}"}
        payload = job.status_payload()
        # live service counters, same snapshot machinery as /metrics
        payload["service_counters"] = self.registry.snapshot()
        return 200, payload

    def job_report(self, job_id: str) -> tuple[int, dict]:
        job = self.store.get(job_id)
        if job is None:
            return 404, {"error": f"unknown job {job_id!r}"}
        if job.state is JobState.FAILED:
            return 409, {"error": job.error or "job failed", "state": "failed"}
        if job.state is not JobState.DONE or job.result is None:
            return 409, {
                "error": "job not finished; poll /jobs/<id>",
                "state": job.state.value,
            }
        return 200, report_payload(job.result.report)

    def job_trace(self, job_id: str) -> tuple[int, dict]:
        job = self.store.get(job_id)
        if job is None:
            return 404, {"error": f"unknown job {job_id!r}"}
        if job.state is not JobState.DONE or job.result is None:
            return 409, {
                "error": "job not finished; poll /jobs/<id>",
                "state": job.state.value,
            }
        return 200, {
            "job_id": job.job_id,
            "trace_available": job.result.trace is not None,
            "events": list(job.result.trace or ()),
        }

    def metrics_payload(self) -> dict:
        return {
            "counters": self.registry.snapshot(),
            "jobs": self.store.counts(),
            "queue": {
                "depth": len(self.queue),
                "peak_depth": self.queue.peak_depth,
                "maxsize": self.queue.maxsize,
                "pushed": self.queue.pushed,
                "popped": self.queue.popped,
            },
            "workers": self.config.workers,
            "clients": self.limiter.clients(),
            "draining": self._draining,
            "uptime_s": time.time() - self._started_s,
        }

    # -- request routing -------------------------------------------------------

    def _handler_class(self) -> type[BaseHTTPRequestHandler]:
        service = self

        class Handler(JsonRequestHandler):
            def do_POST(self) -> None:  # noqa: N802 (http.server API)
                if self.path != "/jobs":
                    self.send_json_error(404, "unknown endpoint", path=self.path)
                    return
                try:
                    length = int(self.headers.get("Content-Length", "0"))
                except ValueError:
                    length = -1
                if length < 0:
                    self.send_json_error(400, "missing or bad Content-Length")
                    return
                # Over-long bodies are read up to limit+1 then rejected by
                # the parser — never buffered in full.
                raw = self.rfile.read(
                    min(length, service.config.max_body_bytes + 1)
                )
                client_id = self.headers.get(CLIENT_HEADER, "anonymous")
                status, body, extra = service.submit(client_id, raw)
                self.send_json(body, status=status, extra_headers=extra)

            def do_GET(self) -> None:  # noqa: N802 (http.server API)
                parts = [p for p in self.path.split("/") if p]
                if self.path == "/healthz":
                    self.send_json({"ok": True, "draining": service.draining})
                elif self.path == "/version":
                    self.send_json(version_payload())
                elif self.path == "/metrics":
                    self.send_json(service.metrics_payload())
                elif len(parts) == 2 and parts[0] == "jobs":
                    status, body = service.job_status(parts[1])
                    self.send_json(body, status=status)
                elif len(parts) == 3 and parts[0] == "jobs" and parts[2] == "report":
                    status, body = service.job_report(parts[1])
                    self.send_json(body, status=status)
                elif len(parts) == 3 and parts[0] == "jobs" and parts[2] == "trace":
                    status, body = service.job_trace(parts[1])
                    self.send_json(body, status=status)
                else:
                    self.send_json_error(404, "unknown endpoint", path=self.path)

        return Handler
