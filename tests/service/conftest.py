"""Shared fixtures for the job-service tests.

``fake_runner`` fabricates a deterministic :class:`SimReport` instead of
simulating, so the admission pipeline, queue, and cache can be exercised
in milliseconds; the tier2 e2e tests use the real runner.
"""

import json
import time

import pytest

from repro.fuzz.generators import Scenario
from repro.service.api import JobService, ServiceConfig
from repro.sim.runner import SimReport
from repro.sim.sweep import JobResult


def tiny_scenario_dict(name="svc-test", seed=1, **config_overrides):
    """A small valid wire-format scenario (2x2 mesh, 40 us horizon)."""
    config = {
        "mesh_width": 2,
        "mesh_height": 2,
        "num_partitions": 2,
        "sim_time_us": 40.0,
        "warmup_us": 0.0,
        "keep_samples": False,
        "seed": seed,
    }
    config.update(config_overrides)
    return {
        "schema": "repro.fuzz_scenario/1",
        "name": name,
        "config": config,
    }


def tiny_body(name="svc-test", seed=1, **config_overrides) -> bytes:
    return json.dumps(tiny_scenario_dict(name, seed, **config_overrides)).encode()


def fake_runner(scenario_dict: dict) -> JobResult:
    """Instant deterministic stand-in for ``execute_job``."""
    scenario = Scenario.from_dict(scenario_dict)
    report = SimReport(
        config=scenario.build_config(),
        stats={},
        drops={"fake_drop": 1},
        delivered=7,
        attack_windows=[],
        events_processed=11,
        wall_seconds=0.5,
    )
    trace = ({"time_ps": 0, "kind": "fake", "where": "w", "packet_id": 1,
              "detail": ""},)
    return JobResult(report=report, trace=trace)


@pytest.fixture
def make_service(tmp_path):
    """Factory for in-process services (no HTTP socket unless asked).

    Workers run in-thread with ``fake_runner`` by default; every created
    service is closed at teardown.
    """
    services = []

    def make(runner=fake_runner, serve_http=False, **overrides):
        kwargs = dict(
            cache_dir=str(tmp_path / "cache"),
            use_subprocess=False,
            workers=2,
            port=0,
        )
        kwargs.update(overrides)
        service = JobService(ServiceConfig(**kwargs), runner=runner)
        if serve_http:
            service.start()
        else:
            service.pool.start()
        services.append(service)
        return service

    yield make
    for service in services:
        service.close()


def wait_terminal(service: JobService, job_id: str, timeout: float = 10.0):
    """Poll the store until *job_id* is done/failed; return the Job."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        job = service.store.get(job_id)
        if job is not None and job.state.value in ("done", "failed"):
            return job
        time.sleep(0.005)
    raise AssertionError(f"job {job_id} not terminal within {timeout}s")
