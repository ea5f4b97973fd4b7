"""Parameter-sweep driver — the machinery behind multi-bar experiments.

A :class:`Sweep` takes a base :class:`~repro.sim.config.SimConfig`, a grid
of overrides, and runs one simulation per grid point (optionally across
several seeds, averaging).  The figure modules (Fig 5's enforcement × load
grid, Fig 6's key-mode × load grid) and downstream ablation studies all run
through it.

Execution model
---------------

``Sweep.run(workers=N)`` dispatches the grid-point × seed runs to a
:class:`~concurrent.futures.ProcessPoolExecutor`; ``workers=1`` (the
default) executes in-process with no multiprocessing machinery at all.
Both paths produce *identical* results in *identical* order: a run is a
pure function of its resolved :class:`SimConfig`, and results are
reassembled by grid index, never by completion order.

Robustness: each run is bounded by an optional per-run ``timeout``; a
worker crash (e.g. OOM-killed process) triggers one resubmission of the
affected jobs to a fresh pool before giving up with
:class:`SweepWorkerError`; if the host cannot spawn a process pool at all
the sweep silently falls back to in-process execution.

Run cache
---------

With ``cache=True`` (or a directory path / :class:`RunCache`), every
completed :class:`~repro.sim.runner.SimReport` is pickled into
``.sweep_cache/`` under a content hash of its fully-resolved config
(:func:`config_key`).  Re-running a benchmark only simulates points whose
configuration actually changed; everything else is a cache hit.

Observability
-------------

``run(progress=...)`` accepts a :class:`SweepProgress` callback; it
receives one :class:`PointProgress` event per completed grid point with
per-point wall time, simulated events/sec, and cache hit/miss counts.
Events are delivered in grid-index order regardless of worker count or
which points were served from the cache (completed points are buffered
until all their predecessors have been emitted).
:func:`repro.analysis.charts.sweep_progress_chart` renders a list of these
events as an ASCII chart; aggregate counters land in ``Sweep.stats``.
"""

from __future__ import annotations

import enum
import hashlib
import itertools
import json
import os
import pickle
import threading
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Callable, Protocol

from repro.datapath import get_datapath
from repro.observability import get_observability
from repro.sim.config import SimConfig
from repro.sim.scheduler import get_scheduler
from repro.sim.runner import SimReport, run_simulation

#: bump when SimReport/SimConfig change shape enough to invalidate old
#: cached pickles.
#: Bump whenever SimReport's shape or semantics change — v2 added the
#: counter-registry snapshot (``SimReport.counters``), making pre-v2 cached
#: pickles incomplete; v3 folded the active datapath mode into the hashed
#: payload (a ``REPRO_DATAPATH=reference`` debug sweep must never be served
#: fast-mode entries, even though the two modes are meant to be identical);
#: v4 folded in the scheduler mode the same way (a ``REPRO_SCHEDULER=heap``
#: oracle sweep must re-execute rather than read wheel-mode entries);
#: v5 added the Bloom enforcement fields (``bloom_bits``/``bloom_hashes``/
#: ``bloom_inpacket_tag``) to SimConfig — pre-v5 entries were hashed over a
#: config shape that could not express them, so a default-bloom-params run
#: must not be served a pickle from before the Bloom mode existed;
#: v6 added the open-loop traffic family (``traffic_model`` and its
#: per-model knobs) and the coordinated attacker ramp
#: (``attack_start_us``/``attack_ramp_us``) to SimConfig — pre-v6 entries
#: were hashed over a config shape that could only express plain Poisson
#: sources and step-on attackers, so a default-model run must never be
#: served a pickle from before those axes existed;
#: v7 folded in the observability mode (an observability-off run leaves
#: ``SimReport.counters`` empty, so its entry must never answer an
#: observability-on run) and turned SimReport's scalar counter fields
#: into properties over ``counters``;
#: v8 fixed the wheel scheduler's out-of-order pops after a stopped run,
#: which changes ``shard.rounds`` in cached sharded reports.
CACHE_VERSION = 8

DEFAULT_CACHE_DIR = ".sweep_cache"


class SweepWorkerError(RuntimeError):
    """A worker process died twice running the same sweep jobs."""


class SweepTimeoutError(TimeoutError):
    """No run completed within the per-run timeout."""


# --------------------------------------------------------------------------
# run cache


def _canonical(value: Any) -> Any:
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _canonical(value[k]) for k in sorted(value, key=str)}
    return value


def run_key(**body: Any) -> str:
    """Stable content hash of *body* under the current run modes.

    The payload folds the cache version and every process-global run mode
    (datapath, scheduler, observability) in beside the canonicalised
    *body*, so a result cached under one mode never answers a run under
    another: the modes are meant to be bit-identical, but proving that is
    exactly what an oracle-mode run is for, and observability-off runs
    carry no counter snapshot.  This is the one place the modes enter a
    cache key.
    """
    payload = {
        "cache_version": CACHE_VERSION,
        "datapath": get_datapath(),
        "scheduler": get_scheduler(),
        "observability": get_observability(),
        **{name: _canonical(value) for name, value in body.items()},
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def config_key(config: SimConfig) -> str:
    """Stable content hash of a fully-resolved :class:`SimConfig`.

    Two configs hash equal iff every field (including the seed) is equal
    *and* the runs would execute under the same run modes
    (:func:`run_key`); the JSON canonicalisation makes the key
    independent of field order, enum identity, and tuple-vs-list spelling.
    """
    return run_key(config=asdict(config))


def atomic_pickle(target: Path, obj: Any) -> None:
    """Pickle *obj* to *target* via a staging file and ``os.replace``.

    A concurrent reader never sees a torn file, and the pid+thread staging
    suffix keeps same-key writers (processes OR threads) from clobbering
    each other's half-written file.  An unwritable directory or an
    unpicklable object (pickle raises PicklingError, TypeError, or
    AttributeError — local objects raise the latter — depending on the
    payload) is a non-fatal cache skip, and the staging file is removed.
    """
    target.parent.mkdir(parents=True, exist_ok=True)
    tmp = target.with_name(
        f"{target.name}.{os.getpid()}.{threading.get_ident()}.tmp"
    )
    try:
        with open(tmp, "wb") as f:
            pickle.dump(obj, f, protocol=pickle.HIGHEST_PROTOCOL)
        os.replace(tmp, target)
    except (OSError, pickle.PicklingError, TypeError, AttributeError):
        try:
            tmp.unlink(missing_ok=True)
        except OSError:
            pass


@dataclass
class RunCache:
    """Content-addressed on-disk store of :class:`SimReport` pickles.

    One file per resolved config: ``<root>/<sha256(config)>.pkl``.  A
    corrupt or unreadable entry is treated as a miss, never an error.
    """

    root: Path = Path(DEFAULT_CACHE_DIR)
    hits: int = 0
    misses: int = 0

    def __post_init__(self) -> None:
        self.root = Path(self.root)

    def path_for(self, config: SimConfig) -> Path:
        return self.root / f"{config_key(config)}.pkl"

    def get(self, config: SimConfig) -> SimReport | None:
        try:
            with open(self.path_for(config), "rb") as f:
                report = pickle.load(f)
        except Exception:
            # Unpickling arbitrary corrupt bytes can raise nearly anything
            # (UnpicklingError, EOFError, ValueError from opcode args,
            # AttributeError/ImportError from stale class paths, ...); any
            # unreadable entry is simply a miss and gets re-simulated.
            self.misses += 1
            return None
        if not isinstance(report, SimReport):
            self.misses += 1
            return None
        self.hits += 1
        return report

    def put(self, config: SimConfig, report: SimReport) -> None:
        atomic_pickle(self.path_for(config), report)


def _resolve_cache(
    cache: RunCache | str | os.PathLike | bool | None,
) -> RunCache | None:
    if cache is None or cache is False:
        return None
    if cache is True:
        return RunCache()
    if isinstance(cache, RunCache):
        return cache
    return RunCache(root=Path(cache))


# --------------------------------------------------------------------------
# progress reporting


@dataclass(frozen=True)
class PointProgress:
    """One completed grid point, as delivered to a :class:`SweepProgress`."""

    index: int  #: grid-point index (deterministic `points()` order)
    total: int  #: number of grid points in the sweep
    overrides: dict[str, Any]
    wall_seconds: float  #: summed simulation wall time of the point's runs
    events_per_sec: float  #: simulated events per wall-second (a cache hit
    #: reports the rate of the original run that produced the entry)
    cache_hits: int  #: runs of this point served from the cache
    cache_misses: int  #: runs of this point actually simulated

    def __str__(self) -> str:  # readable default for print-style callbacks
        src = (
            "cached"
            if self.cache_misses == 0 and self.cache_hits > 0
            else f"{self.events_per_sec / 1e3:.0f}k ev/s"
        )
        return (
            f"[{self.index + 1}/{self.total}] {self.overrides} "
            f"{self.wall_seconds:.2f}s ({src})"
        )


class SweepProgress(Protocol):
    """Callback protocol for per-point sweep progress events."""

    def __call__(self, event: PointProgress) -> None: ...


@dataclass
class SweepStats:
    """Aggregate counters for one ``Sweep.run()`` invocation."""

    points: int = 0  #: grid points in the sweep
    runs: int = 0  #: grid-point × seed jobs
    simulated: int = 0  #: jobs actually executed (== cache misses when cached)
    cache_hits: int = 0
    cache_misses: int = 0
    retried: int = 0  #: jobs resubmitted after a worker crash
    wall_seconds: float = 0.0  #: harness wall-clock for the whole run()


# --------------------------------------------------------------------------
# the sweep


@dataclass(frozen=True)
class SweepPoint:
    """One grid point's outcome.

    ``mean`` treats each seed's metric as one observation; the Monte Carlo
    accessors (``pooled``/``ci``/``percentile``) see through to the
    underlying per-delivery samples, so cross-seed variance is aggregated
    correctly (see :mod:`repro.sim.stats`).
    """

    overrides: dict[str, Any]
    seeds: tuple[int, ...]
    reports: tuple[SimReport, ...]

    def _require_reports(self) -> None:
        if not self.reports:
            raise ValueError(
                f"SweepPoint {self.overrides} has no reports (seeds=())"
            )

    def mean(self, metric: Callable[[SimReport], float]) -> float:
        self._require_reports()
        return sum(metric(r) for r in self.reports) / len(self.reports)

    def pooled(self, accumulator_of: Callable[[SimReport], Any]) -> Any:
        """Merge per-seed :class:`~repro.sim.metrics.StatAccumulator`\\ s.

        *accumulator_of* extracts one accumulator per report (e.g. the
        queuing-time accumulator of one traffic class); the result's
        variance equals Welford over the concatenated samples — the
        pooled stddev a multi-seed bar must quote.
        """
        from repro.sim.stats import pooled as _pooled

        self._require_reports()
        return _pooled(accumulator_of(r) for r in self.reports)

    def ci(
        self, metric: Callable[[SimReport], float], confidence: float = 0.95
    ):
        """Student-t confidence interval on the per-seed means of *metric*
        (a :class:`~repro.sim.stats.ConfidenceInterval`)."""
        from repro.sim.stats import mean_ci

        self._require_reports()
        return mean_ci([metric(r) for r in self.reports], confidence)

    def percentile(
        self, samples_of: Callable[[SimReport], list[float]], q: float
    ) -> float:
        """The *q*-th percentile over every seed's samples, concatenated.

        *samples_of* extracts the raw per-delivery values of one report
        (e.g. via :meth:`~repro.sim.metrics.MetricsSummary.values_us`).
        """
        from repro.sim.stats import percentile as _percentile

        self._require_reports()
        values: list[float] = []
        for r in self.reports:
            values.extend(samples_of(r))
        return _percentile(values, q)


@dataclass
class Sweep:
    """Cartesian-product experiment grid.

    >>> sweep = Sweep(
    ...     base=SimConfig(sim_time_us=200.0),
    ...     grid={"best_effort_load": [0.2, 0.4], "num_attackers": [0, 1]},
    ... )
    >>> len(sweep.points())
    4
    """

    base: SimConfig
    grid: dict[str, list[Any]]
    seeds: tuple[int, ...] = (1,)
    explicit: list[dict[str, Any]] | None = None
    """When set (see :meth:`from_points`), these override dicts *are* the
    grid — for studies whose points co-vary fields the cartesian product
    cannot express (e.g. Fig 6 couples ``auth`` with ``keymgmt``)."""
    stats: SweepStats = field(default_factory=SweepStats, repr=False)
    _results: list[SweepPoint] = field(default_factory=list, repr=False)
    _ran: bool = field(default=False, repr=False)

    @classmethod
    def from_points(
        cls,
        base: SimConfig,
        points: list[dict[str, Any]],
        seeds: tuple[int, ...] = (1,),
    ) -> "Sweep":
        """A sweep over an explicit list of override dicts."""
        return cls(base=base, grid={}, seeds=seeds, explicit=list(points))

    def points(self) -> list[dict[str, Any]]:
        """The grid as a list of override dicts (deterministic order)."""
        if self.explicit is not None:
            return [dict(p) for p in self.explicit]
        keys = sorted(self.grid)
        combos = itertools.product(*(self.grid[k] for k in keys))
        return [dict(zip(keys, combo)) for combo in combos]

    def run(
        self,
        progress: SweepProgress | None = None,
        *,
        workers: int = 1,
        cache: RunCache | str | os.PathLike | bool | None = None,
        timeout: float | None = None,
        runner: Callable[[SimConfig], SimReport] = run_simulation,
    ) -> list[SweepPoint]:
        """Execute the whole grid; returns (and stores) the results.

        ``workers > 1`` fans grid-point × seed runs out to a process pool
        (``runner`` must then be a picklable module-level callable);
        ``workers=1`` runs everything in-process.  Result content and
        ordering are identical either way.

        ``cache`` enables the content-addressed run cache (``True`` for
        the default ``.sweep_cache/``, or a directory path, or a
        :class:`RunCache`).  ``timeout`` bounds each run's wall time in
        seconds (parallel mode only — an in-process run cannot be
        preempted).
        """
        t0 = time.perf_counter()
        points = self.points()
        seeds = tuple(self.seeds)
        store = _resolve_cache(cache)
        self.stats = SweepStats(points=len(points), runs=len(points) * len(seeds))

        # flat job table: index = point_i * len(seeds) + seed_i
        configs: list[SimConfig] = []
        for overrides in points:
            for seed in seeds:
                configs.append(self.base.replace(seed=seed, **overrides))

        results: list[SimReport | None] = [None] * len(configs)
        point_hits = [0] * len(points)
        jobs: list[tuple[int, SimConfig]] = []
        hits0 = store.hits if store is not None else 0
        misses0 = store.misses if store is not None else 0
        for idx, cfg in enumerate(configs):
            cached = store.get(cfg) if store is not None else None
            if cached is not None:
                results[idx] = cached
                point_hits[idx // len(seeds)] += 1
            else:
                jobs.append((idx, cfg))
        if store is not None:
            self.stats.cache_hits = store.hits - hits0
            self.stats.cache_misses = store.misses - misses0

        point_remaining = [
            sum(1 for idx, _ in jobs if idx // len(seeds) == pi) if seeds else 0
            for pi in range(len(points))
        ]
        # The PointProgress stream is strictly index-ordered: a completed
        # point (including a fully-cached one, which never enters the job
        # queue) is buffered until every lower-indexed point has been
        # emitted.  Serial runs emit each point as it completes anyway;
        # parallel runs trade a little emission latency for a stream that
        # is deterministic regardless of completion order or cache state.
        point_done = [bool(seeds) and r == 0 for pi, r in enumerate(point_remaining)]
        next_emit = 0

        def flush_ordered() -> None:
            nonlocal next_emit
            while next_emit < len(points) and point_done[next_emit]:
                emit_point(next_emit)
                next_emit += 1

        def finish_job(idx: int, report: SimReport) -> None:
            results[idx] = report
            self.stats.simulated += 1
            if store is not None:
                store.put(configs[idx], report)
            pi = idx // len(seeds)
            point_remaining[pi] -= 1
            if point_remaining[pi] == 0:
                point_done[pi] = True
                flush_ordered()

        def emit_point(pi: int) -> None:
            if progress is None:
                return
            reports = [
                results[pi * len(seeds) + si]
                for si in range(len(seeds))
            ]
            wall = sum(r.wall_seconds for r in reports if r is not None)
            events = sum(r.events_processed for r in reports if r is not None)
            progress(
                PointProgress(
                    index=pi,
                    total=len(points),
                    overrides=points[pi],
                    wall_seconds=wall,
                    events_per_sec=events / wall if wall > 0 else 0.0,
                    cache_hits=point_hits[pi],
                    cache_misses=len(seeds) - point_hits[pi],
                )
            )

        flush_ordered()  # fully-cached prefix streams before any simulation
        if workers > 1 and jobs:
            self._execute_parallel(jobs, workers, timeout, runner, finish_job)
        else:
            for idx, cfg in jobs:
                finish_job(idx, runner(cfg))

        self._results = [
            SweepPoint(
                overrides=points[pi],
                seeds=seeds,
                reports=tuple(
                    results[pi * len(seeds) + si] for si in range(len(seeds))
                ),
            )
            for pi in range(len(points))
        ]
        self._ran = True
        self.stats.wall_seconds = time.perf_counter() - t0
        return self._results

    def _execute_parallel(
        self,
        jobs: list[tuple[int, SimConfig]],
        workers: int,
        timeout: float | None,
        runner: Callable[[SimConfig], SimReport],
        finish_job: Callable[[int, SimReport], None],
    ) -> None:
        pending: dict[int, SimConfig] = dict(jobs)
        attempts: dict[int, int] = {idx: 0 for idx in pending}
        while pending:
            try:
                pool = ProcessPoolExecutor(max_workers=workers)
            except (OSError, NotImplementedError, PermissionError):
                # host can't spawn a pool (restricted sandbox): degrade
                # gracefully to the in-process path
                for idx in sorted(pending):
                    finish_job(idx, runner(pending[idx]))
                return
            broken = False
            with pool:
                futures = {}
                try:
                    for idx, cfg in sorted(pending.items()):
                        futures[pool.submit(runner, cfg)] = idx
                except BrokenProcessPool:  # a worker died mid-submission
                    broken = True
                not_done = set(futures)
                while not_done and not broken:
                    done, not_done = wait(
                        not_done, timeout=timeout, return_when=FIRST_COMPLETED
                    )
                    if not done:
                        # every worker has been busy for >= timeout with
                        # nothing finishing: the oldest run exceeded it
                        self._terminate_pool(pool)
                        raise SweepTimeoutError(
                            f"no sweep run completed within {timeout:.1f}s "
                            f"({len(not_done)} still running)"
                        )
                    for future in done:
                        idx = futures[future]
                        try:
                            report = future.result()
                        except BrokenProcessPool:
                            broken = True
                            break
                        finish_job(idx, report)
                        del pending[idx]
            if pending and not broken:
                # pool exited cleanly but jobs remain: futures were lost
                # (treated like a crash)
                broken = True
            if broken and pending:
                exhausted = [idx for idx in pending if attempts[idx] >= 1]
                if exhausted:
                    raise SweepWorkerError(
                        f"worker process died twice; giving up on jobs "
                        f"{sorted(exhausted)}"
                    )
                for idx in pending:
                    attempts[idx] += 1
                self.stats.retried += len(pending)

    @staticmethod
    def _terminate_pool(pool: ProcessPoolExecutor) -> None:
        for proc in list(getattr(pool, "_processes", {}).values()):
            try:
                proc.terminate()
            except OSError:
                pass
        pool.shutdown(wait=False, cancel_futures=True)

    @property
    def results(self) -> list[SweepPoint]:
        if not self._ran:
            raise RuntimeError("call run() first")
        return self._results

    def table(
        self,
        metrics: dict[str, Callable[[SimReport], float]],
    ) -> list[dict[str, Any]]:
        """Flatten results to rows: one per grid point, overrides + the
        requested aggregated metrics."""
        rows = []
        for point in self.results:
            row: dict[str, Any] = dict(point.overrides)
            for name, fn in metrics.items():
                row[name] = point.mean(fn)
            rows.append(row)
        return rows


def bloom_fp_axis(
    fp_rates: list[float],
    expected_entries: int,
    num_hashes: int = 4,
) -> dict[str, list[int]]:
    """Sweep-grid axis that makes false-positive rate the first-class knob.

    Converts each target *fp_rate* into the smallest ``bloom_bits`` whose
    analytic bound ``(1-e^(-kn/m))^k`` at *expected_entries* registered keys
    stays at or under it, so ``grid={**bloom_fp_axis([0.1, 0.01], 64)}``
    sweeps memory footprint along an iso-fp-rate curve.  Duplicate bit
    sizes (two fp targets rounding to one array size) are collapsed.
    """
    from repro.core.bloom import bits_for_fp_rate

    bits: list[int] = []
    for fp in fp_rates:
        m = bits_for_fp_rate(expected_entries, fp, num_hashes)
        if m not in bits:
            bits.append(m)
    return {"bloom_bits": bits}


def queuing_us(traffic_class: str) -> Callable[[SimReport], float]:
    """Metric factory: mean queuing time of *traffic_class* in µs."""
    return lambda r: r.cls(traffic_class).queuing_us


def network_us(traffic_class: str) -> Callable[[SimReport], float]:
    """Metric factory: mean network latency of *traffic_class* in µs."""
    return lambda r: r.cls(traffic_class).network_us


def total_us(traffic_class: str) -> Callable[[SimReport], float]:
    """Metric factory: queuing + network in µs (the Figure 5 bar)."""
    return lambda r: r.cls(traffic_class).total_us
