"""The service's default isolation path: every job in its own forked child.

The runners live at module level and coordinate through flag files
(environment-passed directory), because a retried job starts in a fresh
child that keeps no state from the one that died.
"""

import multiprocessing
import os
import sys
import time
from pathlib import Path

import pytest

from repro.service.workers import execute_job
from repro.sim import isolation

from tests.service.conftest import fake_runner, tiny_body, wait_terminal

_FLAG_DIR_ENV = "REPRO_TEST_SERVICE_FLAGS"


def _crash_once_runner(scenario_dict):
    flag = Path(os.environ[_FLAG_DIR_ENV]) / f"{scenario_dict['name']}.flag"
    if not flag.exists():
        flag.write_text("crashed")
        os._exit(13)
    return fake_runner(scenario_dict)


def _poison_or_slow_runner(scenario_dict):
    """Scenarios named "poison" kill their process; the rest take 2 s."""
    if scenario_dict["name"] == "poison":
        os._exit(13)
    time.sleep(2.0)
    return fake_runner(scenario_dict)


def _bad_knob_runner(scenario_dict):
    raise ValueError("bad scenario knob")


_BAD_KNOB_LINE = _bad_knob_runner.__code__.co_firstlineno + 1


def submit(service, name, seed):
    status, body, _ = service.submit("workers", tiny_body(name, seed))
    assert status == 202, body
    return body["job_id"]


def counters(service):
    """The service counters once every worker has finished its bookkeeping
    (a job is marked done before its counters move)."""
    service.drain(timeout=60.0)
    return service.metrics_payload()["counters"]


@pytest.mark.tier2_service
class TestSubprocessIsolation:
    def test_job_that_crashes_once_completes(
        self, make_service, tmp_path, monkeypatch
    ):
        monkeypatch.setenv(_FLAG_DIR_ENV, str(tmp_path))
        service = make_service(runner=_crash_once_runner, use_subprocess=True)
        job = wait_terminal(service, submit(service, "flaky", 1))
        assert job.state.value == "done", job.error
        assert (tmp_path / "flaky.flag").exists()
        assert counters(service)["service.worker_retries"] == 1

    def test_retries_are_counted_across_worker_threads(
        self, make_service, tmp_path, monkeypatch
    ):
        """More worker threads than cores, a short switch interval, and every
        job retried once: a lost update would leave a count short."""
        monkeypatch.setenv(_FLAG_DIR_ENV, str(tmp_path))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            service = make_service(
                runner=_crash_once_runner, use_subprocess=True, workers=4
            )
            ids = [submit(service, f"flaky{i}", i) for i in range(8)]
            states = [wait_terminal(service, i, timeout=60.0).state for i in ids]
        finally:
            sys.setswitchinterval(interval)
        assert [s.value for s in states] == ["done"] * 8
        assert counters(service)["service.worker_retries"] == 8
        assert counters(service)["service.completed"] == 8

    def test_job_that_always_crashes_fails_and_the_next_completes(
        self, make_service
    ):
        service = make_service(
            runner=_poison_or_slow_runner, use_subprocess=True, workers=1
        )
        poisoned = wait_terminal(service, submit(service, "poison", 1))
        assert poisoned.state.value == "failed"
        assert poisoned.error.startswith("WorkerCrashError: ")
        healthy = wait_terminal(service, submit(service, "healthy", 2))
        assert healthy.state.value == "done", healthy.error
        assert counters(service)["service.worker_retries"] == 1

    def test_crash_beside_a_healthy_job_is_charged_to_the_crashed_job(
        self, make_service
    ):
        """Regression: a job whose worker always died broke the shared
        process pool under every job in flight, so the healthy job running
        beside it was retried into the next broken pool and failed too."""
        service = make_service(
            runner=_poison_or_slow_runner, use_subprocess=True, workers=2
        )
        healthy_id = submit(service, "healthy", 1)
        poisoned_id = submit(service, "poison", 2)
        assert wait_terminal(service, poisoned_id).state.value == "failed"
        healthy = wait_terminal(service, healthy_id)
        assert healthy.state.value == "done", healthy.error

    def test_failure_names_the_runner_frame(self, make_service):
        """Regression: in a child, the failure string named the executor's
        frame (concurrent/futures/_base.py) instead of the runner's."""
        expected = f"ValueError: bad scenario knob at {__file__}:{_BAD_KNOB_LINE}"
        for use_subprocess in (False, True):
            service = make_service(
                runner=_bad_knob_runner, use_subprocess=use_subprocess
            )
            job = wait_terminal(service, submit(service, "bad", 1))
            assert job.state.value == "failed"
            assert job.error == expected, use_subprocess

    def test_job_runs_in_thread_when_no_child_starts(
        self, make_service, monkeypatch
    ):
        def refuse(fn, item):
            raise OSError("no processes left")

        monkeypatch.setattr(isolation, "_start", refuse)
        service = make_service(use_subprocess=True)
        job = wait_terminal(service, submit(service, "in-thread", 1))
        assert job.state.value == "done", job.error
        assert counters(service)["service.worker_fallbacks"] == 1
        assert counters(service)["service.worker_retries"] == 0

    def test_real_simulation_in_a_child_leaves_no_child(self, make_service):
        service = make_service(runner=execute_job, use_subprocess=True)
        ids = [submit(service, "real", seed) for seed in (80, 81)]
        for job_id in ids:
            job = wait_terminal(service, job_id, timeout=60.0)
            assert job.state.value == "done", job.error
            assert job.result.report.delivered > 0
            assert job.result.trace, "a real run must emit trace events"
        service.close()
        assert multiprocessing.active_children() == []
