"""Job records, content addressing and the deterministic report body.

Results live in :class:`~repro.sim.sweep.RunCache`, the one result store:
the service writes each finished job's :class:`~repro.sim.sweep.JobResult`
(report plus trace tail) to ``<key>.pkl`` in the same ``.sweep_cache/``
directory figure sweeps use.  A schedule-free scenario keys exactly like
the sweep layer keys its resolved config, so a scenario anyone has ever
run — through a figure sweep or through the API — answers instantly for
every later client; an answer that came from a sweep carries no trace.

Scenarios that carry fault/tamper/injection schedules are not expressible
as a bare :class:`SimConfig`, so their key hashes the whole canonical
scenario dict (through the same :func:`~repro.sim.sweep.run_key`); they
never collide with sweep entries.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import itertools
import json
import threading
import time
import uuid
from dataclasses import dataclass, field

from repro.fuzz.generators import Scenario
from repro.sim.runner import SimReport
from repro.sim.sweep import JobResult, _canonical, config_key, run_key

REPORT_SCHEMA = "repro.service_report/1"


class JobState(str, enum.Enum):
    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"


@dataclass
class Job:
    """One submission's lifecycle record (in-memory; results live in the
    content-addressed cache and a per-job reference)."""

    job_id: str
    client_id: str
    scenario: Scenario
    key: str  #: content hash of the scenario (cache address).
    state: JobState = JobState.QUEUED
    cache_hit: bool = False
    coalesced: bool = False  #: duplicate of an in-flight job (same record).
    error: str | None = None
    created_s: float = field(default_factory=time.time)
    finished_s: float | None = None
    result: JobResult | None = None

    def status_payload(self) -> dict:
        """The ``GET /jobs/<id>`` body."""
        payload = {
            "job_id": self.job_id,
            "state": self.state.value,
            "scenario": self.scenario.name,
            "key": self.key,
            "cache_hit": self.cache_hit,
            "coalesced": self.coalesced,
            "created_s": self.created_s,
        }
        if self.finished_s is not None:
            payload["finished_s"] = self.finished_s
        if self.error is not None:
            payload["error"] = self.error
        if self.state is JobState.DONE and self.result is not None:
            r = self.result.report
            payload["summary"] = {
                "delivered": r.delivered,
                "events_processed": r.events_processed,
                "trace_available": self.result.trace is not None,
            }
        return payload


def scenario_key(scenario: Scenario) -> str:
    """Stable content hash of a scenario under the current run modes.

    A schedule-free scenario keys exactly like the sweep layer keys its
    resolved config (:func:`~repro.sim.sweep.config_key`), so the memo
    table is shared in both directions.  A scenario with fault/tamper/
    injection schedules hashes its whole canonical dict instead.
    """
    config = scenario.build_config()  # validates either way
    if scenario.schedule_free:
        return config_key(config)
    return run_key(scenario=scenario.to_dict())


def report_payload(report: SimReport) -> dict:
    """Deterministic JSON body for ``GET /jobs/<id>/report``.

    A pure function of the scenario: everything host-dependent
    (``wall_seconds``) is excluded, so duplicate submissions — even ones
    that raced and both simulated — fetch byte-identical reports.
    """
    return {
        "schema": REPORT_SCHEMA,
        "config": _canonical(dataclasses.asdict(report.config)),
        "stats": {
            name: {
                "queuing_us": s.queuing_us,
                "network_us": s.network_us,
                "queuing_std_us": s.queuing_std_us,
                "network_std_us": s.network_std_us,
                "count": s.count,
            }
            for name, s in sorted(report.stats.items())
        },
        "drops": dict(sorted(report.drops.items())),
        "delivered": report.delivered,
        "attack_windows": [list(w) for w in report.attack_windows],
        "switch_filtered": report.switch_filtered,
        "switch_lookups": report.switch_lookups,
        "sif_activations": report.sif_activations,
        "sif_deactivations": report.sif_deactivations,
        "traps_received": report.traps_received,
        "traps_processed": report.traps_processed,
        "key_exchanges": report.key_exchanges,
        "events_processed": report.events_processed,
        "senders": dict(sorted(report.senders.items())),
        "counters": dict(sorted(report.counters.items())),
    }


def report_digest(report: SimReport) -> str:
    """sha256 of the canonical JSON of :func:`report_payload` — the digest
    ``repro/sim/golden.json`` pins per case."""
    blob = json.dumps(report_payload(report), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class JobStore:
    """Thread-safe in-memory registry of :class:`Job` records.

    Also maintains the in-flight coalescing index: a submission whose key
    matches a queued/running job returns *that* job instead of enqueueing
    duplicate work — the second half of the memo-table story (the first
    duplicate to arrive after completion is served by the cache).
    """

    def __init__(self) -> None:
        self._jobs: dict[str, Job] = {}
        self._inflight: dict[str, str] = {}  #: key -> job_id (queued/running)
        self._lock = threading.Lock()
        self._seq = itertools.count(1)

    def __len__(self) -> int:
        with self._lock:
            return len(self._jobs)

    def get(self, job_id: str) -> Job | None:
        with self._lock:
            return self._jobs.get(job_id)

    def create(self, client_id: str, scenario: Scenario, key: str) -> Job:
        """Register a new queued job and index it for coalescing."""
        with self._lock:
            job = Job(
                job_id=f"job-{next(self._seq):06d}-{uuid.uuid4().hex[:8]}",
                client_id=client_id,
                scenario=scenario,
                key=key,
            )
            self._jobs[job.job_id] = job
            self._inflight[key] = job.job_id
            return job

    def create_done(
        self, client_id: str, scenario: Scenario, key: str, result: JobResult
    ) -> Job:
        """Register an already-answered job (cache hit at submission)."""
        with self._lock:
            job = Job(
                job_id=f"job-{next(self._seq):06d}-{uuid.uuid4().hex[:8]}",
                client_id=client_id,
                scenario=scenario,
                key=key,
                state=JobState.DONE,
                cache_hit=True,
                finished_s=time.time(),
                result=result,
            )
            self._jobs[job.job_id] = job
            return job

    def inflight_for(self, key: str) -> Job | None:
        """The queued/running job computing *key*, if any."""
        with self._lock:
            job_id = self._inflight.get(key)
            return self._jobs.get(job_id) if job_id is not None else None

    def mark_running(self, job: Job) -> None:
        with self._lock:
            job.state = JobState.RUNNING

    def mark_done(self, job: Job, result: JobResult) -> None:
        with self._lock:
            job.result = result
            job.state = JobState.DONE
            job.finished_s = time.time()
            if self._inflight.get(job.key) == job.job_id:
                del self._inflight[job.key]

    def mark_failed(self, job: Job, error: str) -> None:
        with self._lock:
            job.error = error
            job.state = JobState.FAILED
            job.finished_s = time.time()
            if self._inflight.get(job.key) == job.job_id:
                del self._inflight[job.key]

    def counts(self) -> dict[str, int]:
        with self._lock:
            out = {state.value: 0 for state in JobState}
            for job in self._jobs.values():
                out[job.state.value] += 1
            return out
