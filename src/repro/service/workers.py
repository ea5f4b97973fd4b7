"""Worker pool — scarce simulation capacity behind the admission gate.

N worker threads drain the FIFO job queue; each job executes in its own
forked child under :mod:`repro.sim.isolation`'s policy, the one parallel
sweeps follow, so a crashing or memory-hungry simulation can neither take
the service down nor fail a job running beside it.

:func:`execute_job` is the default unit of work: it
reuses the fuzz harness's :func:`~repro.fuzz.oracles.execute_scenario`
so fault/tamper/injection schedules behave identically to a fuzz run,
and returns a :class:`~repro.sim.sweep.JobResult` bundling the
report with a bounded tail of trace events.
"""

from __future__ import annotations

import threading
import traceback
from typing import Callable

from repro.fuzz.generators import Scenario
from repro.service.jobqueue import BoundedJobQueue
from repro.service.jobstore import Job, JobStore
from repro.sim.isolation import ChildTraceback, IsolationStats, run_isolated
from repro.sim.sweep import JobResult, RunCache
from repro.sim.trace import trace_event_dict

#: Trace events kept per job result (newest wins) — bounds both the
#: child's reply and the cache entry size.
TRACE_KEEP = 5000


def execute_job(scenario_dict: dict) -> JobResult:
    """Run one scenario, given as its API-validated dict, to completion."""
    from repro.fuzz.oracles import execute_scenario

    scenario = Scenario.from_dict(scenario_dict)
    run = execute_scenario(scenario)
    trace = tuple(
        trace_event_dict(e) for e in list(run.tracer.events)[-TRACE_KEEP:]
    )
    return JobResult(report=run.report, trace=trace)


class WorkerPool:
    """Fixed-size pool of worker threads, each running its jobs in a child.

    ``use_subprocess=False`` runs jobs in the worker thread itself —
    tests and the soak harness use it for speed and determinism; the
    serving default is subprocess isolation.
    """

    def __init__(
        self,
        queue: BoundedJobQueue,
        store: JobStore,
        cache: RunCache,
        workers: int = 2,
        use_subprocess: bool = True,
        runner: Callable[[dict], JobResult] = execute_job,
        on_done: Callable[[Job], None] | None = None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self._queue = queue
        self._store = store
        self._cache = cache
        self._workers = workers
        self._use_subprocess = use_subprocess
        self._runner = runner
        self._on_done = on_done
        self._threads: list[threading.Thread] = []
        self._lock = threading.Lock()  # guards isolation's totals
        self.isolation = IsolationStats()  #: totals over every job's run

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        if self._threads:
            return
        for i in range(self._workers):
            t = threading.Thread(
                target=self._worker_loop, name=f"repro-job-worker-{i}", daemon=True
            )
            t.start()
            self._threads.append(t)

    def join(self, timeout: float | None = None) -> None:
        """Wait for every worker to exit (call after the queue is closed)."""
        for t in self._threads:
            t.join(timeout=timeout)
        self._threads = [t for t in self._threads if t.is_alive()]

    @property
    def active(self) -> int:
        return sum(1 for t in self._threads if t.is_alive())

    # -- execution -----------------------------------------------------------

    def _worker_loop(self) -> None:
        while True:
            job = self._queue.pop(timeout=0.2)
            if job is None:
                if self._queue.closed:
                    return
                continue
            self._run_job(job)

    def _run_job(self, job: Job) -> None:
        self._store.mark_running(job)
        try:
            result = self._execute(job.scenario)
        except Exception as exc:  # any failure is the job's, not the pool's
            self._store.mark_failed(job, format_failure(exc))
        else:
            self._cache.put(job.key, result)
            self._store.mark_done(job, result)
        if self._on_done is not None:
            self._on_done(job)

    def _execute(self, scenario: Scenario) -> JobResult:
        payload = scenario.to_dict()
        if not self._use_subprocess:
            return self._runner(payload)
        stats = IsolationStats()
        try:
            ((_, result),) = run_isolated(self._runner, [payload], 1, stats)
        finally:
            with self._lock:
                self.isolation.retried += stats.retried
                self.isolation.in_process += stats.in_process
        return result


def format_failure(exc: BaseException) -> str:
    """One-line failure description with the innermost frame where the job
    raised, the child's own frame when it ran in a child (job error
    strings are client-visible; full tracebacks stay in server logs)."""
    cause = exc.__cause__
    child = isinstance(cause, ChildTraceback)
    tb = cause.frames if child else traceback.extract_tb(exc.__traceback__)
    where = f" at {tb[-1].filename}:{tb[-1].lineno}" if tb else ""
    return f"{type(exc).__name__}: {exc}{where}"
