"""Parameter-sweep driver — the machinery behind multi-bar experiments.

A :class:`Sweep` takes a base :class:`~repro.sim.config.SimConfig`, a grid
of overrides, and runs one simulation per grid point and seed, returning
one :class:`SweepPoint` (a report per seed) per grid point.  The figure
modules (Fig 5's enforcement × load grid, Fig 6's key-mode × load grid) and
downstream ablation studies all run through it; they reduce each point with
:func:`repro.experiments.pooling.pooled_delay` over :mod:`repro.sim.stats`.

Execution model
---------------

``Sweep.run(workers=N)`` runs each grid-point × seed run in its own forked
child, at most ``N`` at a time; ``workers=1`` (the default) executes
in-process with no multiprocessing machinery at all.  Both paths produce
*identical* results in *identical* order: a run is a pure function of its
resolved :class:`SimConfig`, and results are reassembled by grid index,
never by completion order.  Crashes follow :mod:`repro.sim.isolation`'s
policy: a run whose own child dies is retried once, and a second death of
that run raises :class:`~repro.sim.isolation.WorkerCrashError`.

Run cache
---------

:class:`RunCache` is the one result store: one ``<key>.pkl`` per run,
holding a :class:`JobResult` (the report, plus the trace tail a service
job keeps).  With ``cache=True`` (or a directory path / :class:`RunCache`),
every completed sweep run is stored under :func:`config_key` of its
fully-resolved config; the job service stores schedule-free scenarios
under that same key, so either side answers the other.  Re-running a
benchmark only simulates points whose configuration actually changed.

Every key folds :data:`RESULTS_VERSION`, derived at import from the shapes
of the result types and the pinned report and trace digests in
``golden.json``: a change to what a run computes or traces moves a golden
digest, and regenerating the table
(``python tools/golden.py --write``) invalidates every entry.

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
from contextlib import closing
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Any, Callable, Protocol

from repro.sim.config import SimConfig
from repro.sim.isolation import IsolationStats, run_isolated
from repro.sim.metrics import LatencySample, MetricsSummary
from repro.sim.runner import ClassStats, SimReport, run_simulation
from repro.sim.trace import trace_event_dict

DEFAULT_CACHE_DIR = ".sweep_cache"

#: Pinned result digests of short schedule-free runs (``tests/sim/
#: test_golden.py`` checks them; ``tools/golden.py --write`` regenerates).
GOLDEN_TABLE = Path(__file__).with_name("golden.json")


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


def _sha256_json(value: Any) -> str:
    blob = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def run_key(**body: Any) -> str:
    """Stable content hash of *body*.

    The payload folds :data:`RESULTS_VERSION` in beside the canonicalised
    *body*, so a result cached by an older simulator never answers a run
    whose results have moved since.
    """
    payload = {
        "results_version": RESULTS_VERSION,
        **{name: _canonical(value) for name, value in body.items()},
    }
    return _sha256_json(payload)


def config_key(config: SimConfig) -> str:
    """Stable content hash of a fully-resolved :class:`SimConfig`.

    Two configs hash equal iff every field (including the seed) is equal;
    the JSON canonicalisation (:func:`run_key`) makes the key independent
    of field order, enum identity, and tuple-vs-list spelling.
    """
    return run_key(config=asdict(config))


def atomic_pickle(target: Path, obj: Any) -> None:
    """Pickle *obj* to *target* via a staging file and ``os.replace``.

    A concurrent reader never sees a torn file, and the pid+thread staging
    suffix keeps same-key writers (processes OR threads) from clobbering
    each other's half-written file.  A directory that cannot be created or
    written, or an unpicklable object (pickle raises PicklingError,
    TypeError, or AttributeError — local objects raise the latter —
    depending on the payload), is a non-fatal cache skip, and the staging
    file is removed.
    """
    tmp = target.with_name(
        f"{target.name}.{os.getpid()}.{threading.get_ident()}.tmp"
    )
    try:
        target.parent.mkdir(parents=True, exist_ok=True)
        with open(tmp, "wb") as f:
            pickle.dump(obj, f, protocol=pickle.HIGHEST_PROTOCOL)
        os.replace(tmp, target)
    except (OSError, pickle.PicklingError, TypeError, AttributeError):
        try:
            tmp.unlink(missing_ok=True)
        except OSError:
            pass


@dataclass
class JobResult:
    """One cache entry: a run's report, plus the bounded tail of trace
    events (wire-shape dicts) a service job keeps.  Sweep runs store no
    trace (``trace is None``); a traced run with no events stores ``()``.
    """

    report: SimReport
    trace: tuple[dict, ...] | None = None


#: Schema tag of :func:`report_payload` (the ``GET /jobs/<id>/report`` body).
REPORT_SCHEMA = "repro.service_report/1"


def report_payload(report: SimReport) -> dict:
    """The deterministic JSON form of a report: "the same result" for the
    golden table and the service's report body.
    Host-dependent ``wall_seconds`` is excluded, so duplicate submissions
    — even ones that raced and both simulated — get byte-identical reports.
    """
    return {
        "schema": REPORT_SCHEMA,
        "config": _canonical(asdict(report.config)),
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
    """sha256 of the canonical JSON of :func:`report_payload` — the
    ``digest`` ``golden.json`` pins per case."""
    return _sha256_json(report_payload(report))


def trace_digest(events) -> str:
    """sha256 of the canonical JSON of *events* in the wire shape every
    trace endpoint serves — the ``trace_digest`` ``golden.json`` pins per
    case, so a change to what a cached ``JobResult.trace`` holds moves
    :data:`RESULTS_VERSION` too."""
    return _sha256_json([trace_event_dict(e) for e in events])


def _results_version() -> str:
    """sha256 over the result types' field names and annotated types and
    the golden report and trace digests: any change to either moves every
    cache key."""
    shapes = {
        cls.__name__: [[f.name, str(f.type)] for f in fields(cls)]
        for cls in (SimConfig, SimReport, ClassStats, MetricsSummary,
                    LatencySample, JobResult)
    }
    golden = json.loads(GOLDEN_TABLE.read_text(encoding="utf-8"))
    digests = [[case["digest"], case["trace_digest"]] for case in golden["cases"]]
    return _sha256_json([shapes, digests])


RESULTS_VERSION = _results_version()


@dataclass
class RunCache:
    """Content-addressed on-disk store of :class:`JobResult` pickles.

    One file per key: ``<root>/<key>.pkl``.  A corrupt or unreadable
    entry is a miss, never an error.
    """

    root: Path = Path(DEFAULT_CACHE_DIR)

    def __post_init__(self) -> None:
        self.root = Path(self.root)

    def get(self, key: str) -> JobResult | None:
        """The entry stored under *key*; None when absent or unreadable."""
        try:
            with open(self.root / f"{key}.pkl", "rb") as f:
                entry = pickle.load(f)
        except Exception:
            # Unpickling arbitrary corrupt bytes can raise nearly anything
            # (UnpicklingError, EOFError, ValueError from opcode args,
            # AttributeError/ImportError from stale class paths, ...); any
            # unreadable entry is simply a miss and gets re-simulated.
            return None
        return entry if isinstance(entry, JobResult) else None

    def put(self, key: str, entry: JobResult) -> None:
        atomic_pickle(self.root / f"{key}.pkl", entry)


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
class SweepStats(IsolationStats):
    """Aggregate counters for one ``Sweep.run()`` invocation; ``retried``
    and ``in_process`` are its parallel runs' :class:`IsolationStats`."""

    points: int = 0  #: grid points in the sweep
    runs: int = 0  #: grid-point × seed jobs
    simulated: int = 0  #: jobs actually executed (== cache misses when cached)
    cache_hits: int = 0
    cache_misses: int = 0
    wall_seconds: float = 0.0  #: harness wall-clock for the whole run()


# --------------------------------------------------------------------------
# the sweep


@dataclass(frozen=True)
class SweepPoint:
    """One grid point's outcome: its overrides, its seeds and one report
    per seed, in seed order.  Reduce it with
    :func:`repro.experiments.pooling.pooled_delay` or the
    :mod:`repro.sim.stats` kernels."""

    overrides: dict[str, Any]
    seeds: tuple[int, ...]
    reports: tuple[SimReport, ...]


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
        runner: Callable[[SimConfig], SimReport] = run_simulation,
    ) -> list[SweepPoint]:
        """Execute the whole grid; returns (and stores) the results.

        ``workers > 1`` runs each run in its own forked child, at most
        ``workers`` at a time; children inherit ``runner`` through the
        fork, so only its result must pickle.  ``workers=1`` runs
        everything in-process.  Result content and ordering are identical
        either way.

        ``cache`` enables the content-addressed run cache (``True`` for
        the default ``.sweep_cache/``, or a directory path, or a
        :class:`RunCache`).
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
        for idx, cfg in enumerate(configs):
            cached = store.get(config_key(cfg)) if store is not None else None
            if cached is not None:
                results[idx] = cached.report
                point_hits[idx // len(seeds)] += 1
            else:
                jobs.append((idx, cfg))
        if store is not None:
            self.stats.cache_hits = sum(point_hits)
            self.stats.cache_misses = len(jobs)

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
                store.put(config_key(configs[idx]), JobResult(report))
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
            runs = run_isolated(runner, [cfg for _, cfg in jobs], workers, self.stats)
            with closing(runs):
                for j, report in runs:
                    finish_job(jobs[j][0], report)
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

    @property
    def results(self) -> list[SweepPoint]:
        if not self._ran:
            raise RuntimeError("call run() first")
        return self._results


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
