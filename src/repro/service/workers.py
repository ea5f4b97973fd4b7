"""Worker pool — scarce simulation capacity behind the admission gate.

N worker threads drain the FIFO job queue; each job executes in a
subprocess (a shared :class:`~concurrent.futures.ProcessPoolExecutor`)
so a crashing or memory-hungry simulation cannot take the service down —
the same isolation posture the parallel sweep layer uses.  Hosts that
cannot spawn processes (restricted sandboxes) degrade gracefully to
in-thread execution, exactly like :meth:`Sweep.run`'s fallback.

:func:`execute_job` is the module-level, picklable unit of work: it
reuses the fuzz harness's :func:`~repro.fuzz.oracles.execute_scenario`
so fault/tamper/injection schedules behave identically to a fuzz run,
and returns a :class:`~repro.sim.sweep.JobResult` bundling the
report with a bounded tail of trace events.
"""

from __future__ import annotations

import threading
import traceback
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Callable

from repro.fuzz.generators import Scenario
from repro.service.jobqueue import BoundedJobQueue
from repro.service.jobstore import Job, JobStore
from repro.sim.config import default_modes
from repro.sim.metrics_server import trace_event_dict
from repro.sim.sweep import JobResult, RunCache

#: Trace events kept per job result (newest wins) — bounds both the
#: subprocess return payload and the cache entry size.
TRACE_KEEP = 5000


def execute_job(scenario_dict: dict) -> JobResult:
    """Run one scenario to completion (subprocess entry point).

    Takes the scenario in dict form (already validated by the API layer)
    because dicts cross the process boundary without any repro-class
    pickling concerns.
    """
    from repro.fuzz.oracles import execute_scenario

    scenario = Scenario.from_dict(scenario_dict)
    run = execute_scenario(scenario, default_modes())
    trace = tuple(
        trace_event_dict(e) for e in list(run.tracer.events)[-TRACE_KEEP:]
    )
    return JobResult(report=run.report, trace=trace)


class WorkerPool:
    """Fixed-size pool of worker threads dispatching to subprocesses.

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
        self._pool: ProcessPoolExecutor | None = None
        self._pool_lock = threading.Lock()
        self._subprocess_fallbacks = 0
        self._completed = 0
        self._failed = 0

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
        with self._pool_lock:
            if self._pool is not None:
                self._pool.shutdown(wait=False, cancel_futures=True)
                self._pool = None

    @property
    def active(self) -> int:
        return sum(1 for t in self._threads if t.is_alive())

    @property
    def completed(self) -> int:
        return self._completed

    @property
    def failed(self) -> int:
        return self._failed

    @property
    def subprocess_fallbacks(self) -> int:
        """Jobs that ran in-thread because the host cannot spawn processes."""
        return self._subprocess_fallbacks

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
            self._failed += 1
            self._store.mark_failed(job, format_failure(exc))
        else:
            self._cache.put(job.key, result)
            self._completed += 1
            self._store.mark_done(job, result)
        if self._on_done is not None:
            self._on_done(job)

    def _execute(self, scenario: Scenario) -> JobResult:
        payload = scenario.to_dict()
        if not self._use_subprocess:
            return self._runner(payload)
        for attempt in (0, 1):
            pool = self._get_pool()
            if pool is None:
                break  # host can't fork/spawn: degrade to in-thread
            try:
                return pool.submit(self._runner, payload).result()
            except BrokenProcessPool:
                # the subprocess died (OOM kill, hard crash): rebuild the
                # pool and retry once, then surface the failure
                self._discard_pool(pool)
                if attempt == 1:
                    raise
        self._subprocess_fallbacks += 1
        return self._runner(payload)

    def _get_pool(self) -> ProcessPoolExecutor | None:
        with self._pool_lock:
            if self._pool is None and self._use_subprocess:
                try:
                    self._pool = ProcessPoolExecutor(max_workers=self._workers)
                except (OSError, NotImplementedError, PermissionError):
                    self._use_subprocess = False
                    return None
            return self._pool

    def _discard_pool(self, pool: ProcessPoolExecutor) -> None:
        with self._pool_lock:
            if self._pool is pool:
                self._pool = None
        try:
            pool.shutdown(wait=False, cancel_futures=True)
        except Exception:
            pass


def format_failure(exc: BaseException) -> str:
    """One-line failure description with the innermost frame (job error
    strings are client-visible; full tracebacks stay in server logs)."""
    tb = traceback.extract_tb(exc.__traceback__)
    where = f" at {tb[-1].filename}:{tb[-1].lineno}" if tb else ""
    return f"{type(exc).__name__}: {exc}{where}"
