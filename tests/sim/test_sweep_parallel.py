"""Parallel sweep execution, the run cache, and crash robustness.

The worker-crash runners live at module level; they communicate across
process boundaries via flag files (environment-passed path) because a
retried run starts in a fresh child, which keeps no state from the child
that died.
"""

import dataclasses
import json
import multiprocessing
import os
import pickle
from pathlib import Path

import pytest

from repro.sim import isolation
from repro.sim.config import RunModes, SimConfig
from repro.sim.isolation import WorkerCrashError
from repro.sim.runner import SimReport, run_simulation
from repro.sim.sweep import (
    JobResult,
    RunCache,
    Sweep,
    config_key,
    queuing_us,
)

_CRASH_FLAG_ENV = "REPRO_TEST_CRASH_FLAG"


def _crash_once_runner(cfg):
    flag = Path(os.environ[_CRASH_FLAG_ENV])
    if not flag.exists():
        flag.write_text("crashed")
        os._exit(13)
    return run_simulation(cfg)


def _always_crash_runner(cfg):
    os._exit(13)


def _crash_once_per_seed_runner(cfg):
    """Dies once for each of seeds 1 and 4, keeping one flag file per seed."""
    flag = Path(os.environ[_CRASH_FLAG_ENV]) / f"seed{cfg.seed}.flag"
    if cfg.seed in (1, 4) and not flag.exists():
        flag.write_text("crashed")
        os._exit(13)
    return run_simulation(cfg)


@pytest.fixture
def base():
    return SimConfig(
        mesh_width=2, mesh_height=2, num_partitions=1,
        sim_time_us=150.0, warmup_us=10.0, best_effort_load=0.2,
        enable_realtime=False, keep_samples=False,
    )


GRID = {"best_effort_load": [0.2, 0.3], "num_attackers": [0, 1]}
METRICS = {"q": queuing_us("best_effort")}


@pytest.mark.tier2_smoke
class TestSerialParallelEquivalence:
    def test_table_rows_identical(self, base):
        serial = Sweep(base, GRID, seeds=(1, 2))
        parallel = Sweep(base, GRID, seeds=(1, 2))
        serial.run(workers=1)
        parallel.run(workers=2)
        assert serial.table(METRICS) == parallel.table(METRICS)

    def test_point_structure_identical(self, base):
        serial = Sweep(base, GRID, seeds=(1, 2))
        parallel = Sweep(base, GRID, seeds=(1, 2))
        for s, p in zip(serial.run(workers=1), parallel.run(workers=2)):
            assert s.overrides == p.overrides
            assert s.seeds == p.seeds
            assert [r.delivered for r in s.reports] == [
                r.delivered for r in p.reports
            ]
            assert [r.events_processed for r in s.reports] == [
                r.events_processed for r in p.reports
            ]

    def test_progress_events_cover_every_point(self, base):
        events = []
        Sweep(base, GRID).run(events.append, workers=2)
        assert sorted(e.index for e in events) == [0, 1, 2, 3]
        assert all(e.total == 4 for e in events)
        assert all(e.wall_seconds > 0 for e in events)
        assert all(e.events_per_sec > 0 for e in events)


class TestRunCache:
    def test_cold_then_warm(self, base, tmp_path):
        cold = Sweep(base, GRID, seeds=(1,))
        cold.run(workers=1, cache=tmp_path)
        assert cold.stats.simulated == 4
        assert cold.stats.cache_hits == 0
        assert cold.stats.cache_misses == 4

        warm = Sweep(base, GRID, seeds=(1,))
        warm.run(workers=2, cache=tmp_path)
        # warm re-run performs zero simulations: hit count == grid size
        assert warm.stats.simulated == 0
        assert warm.stats.cache_hits == 4
        assert warm.table(METRICS) == cold.table(METRICS)

    def test_cache_key_tracks_every_field(self, base):
        assert config_key(base) == config_key(base.replace())
        assert config_key(base) != config_key(base.replace(seed=2))
        assert config_key(base) != config_key(base.replace(sim_time_us=151.0))

    def test_cache_key_tracks_scheduler_mode(self, base, default_env):
        """Regression: a REPRO_SCHEDULER=heap oracle sweep must never be
        served wheel-mode cache entries."""
        heap_key = config_key(base, RunModes(scheduler="heap"))
        assert config_key(base, RunModes()) != heap_key
        default_env(REPRO_SCHEDULER="heap")
        assert config_key(base) == heap_key

    @staticmethod
    def _keys(base):
        from repro.sim import sweep as sweep_mod

        return config_key(base), sweep_mod.run_key(scenario={"name": "s"})

    @staticmethod
    def _rederive(monkeypatch):
        from repro.sim import sweep as sweep_mod

        monkeypatch.setattr(
            sweep_mod, "RESULTS_VERSION", sweep_mod._results_version()
        )

    def _keys_under_config_shape(self, base, monkeypatch, dropped):
        """Every key as it would be if SimConfig lacked the *dropped* fields."""
        from repro.sim import sweep as sweep_mod

        older = dataclasses.make_dataclass(
            "SimConfig",
            [(f.name, f.type) for f in dataclasses.fields(SimConfig)
             if not dropped(f.name)],
        )
        monkeypatch.setattr(sweep_mod, "SimConfig", older)
        self._rederive(monkeypatch)
        return self._keys(base)

    def test_cache_version_bump_invalidates(self, base, tmp_path, monkeypatch):
        """Regression: a change to what a run computes or traces must
        change every key, so stale pickles can never hit.  RESULTS_VERSION
        folds the pinned golden report and trace digests: re-deriving it is
        stable, and regenerating the golden table with either digest moved
        moves every key (config-keyed sweep entries and scenario-keyed
        service entries, whose cached trace tail a trace change stales)."""
        from repro.sim import sweep as sweep_mod

        current = self._keys(base)
        self._rederive(monkeypatch)
        assert self._keys(base) == current

        for field in ("digest", "trace_digest"):
            table = json.loads(sweep_mod.GOLDEN_TABLE.read_text(encoding="utf-8"))
            table["cases"][0][field] = "0" * 64
            edited = tmp_path / f"{field}.json"
            edited.write_text(json.dumps(table), encoding="utf-8")
            monkeypatch.setattr(sweep_mod, "GOLDEN_TABLE", edited)
            self._rederive(monkeypatch)
            assert all(a != b for a, b in zip(self._keys(base), current)), field

    def test_cache_version_5_invalidates_pre_bloom_entries(self, base, monkeypatch):
        """Regression: pre-Bloom pickles were hashed over a config shape
        that could not express the Bloom fields, so a default-bloom-params
        run must never hit them: that shape derives another RESULTS_VERSION
        and so other keys."""
        current = self._keys(base)
        older = self._keys_under_config_shape(
            base, monkeypatch, lambda name: name.startswith("bloom_")
        )
        assert all(a != b for a, b in zip(older, current))

    def test_cache_version_6_invalidates_pre_traffic_family_entries(
        self, base, monkeypatch
    ):
        """Regression: pre-traffic-family pickles were hashed over a config
        shape that could only express plain Poisson sources and step-on
        attackers, so a default traffic_model run must never hit them."""
        traffic = {"traffic_model", "attack_ramp_us"}
        current = self._keys(base)
        older = self._keys_under_config_shape(
            base, monkeypatch, lambda name: name in traffic
        )
        assert all(a != b for a, b in zip(older, current))

    def test_every_key_tracks_report_shape(self, base, monkeypatch):
        """Adding a SimReport field moves every key: old pickles of the
        narrower report can never answer a run."""
        from repro.sim import sweep as sweep_mod

        current = self._keys(base)
        grown = dataclasses.make_dataclass(
            "SimReport", [("extra", int, 0)], bases=(SimReport,)
        )
        monkeypatch.setattr(sweep_mod, "SimReport", grown)
        self._rederive(monkeypatch)
        assert all(a != b for a, b in zip(self._keys(base), current))

    def test_cache_key_tracks_traffic_family_fields(self, base):
        """The traffic-model and attacker-ramp knobs are hashed: sweeps that
        differ only in arrival process must never share cache entries."""
        assert config_key(base) != config_key(base.replace(traffic_model="mmpp"))
        assert config_key(base) != config_key(base.replace(mmpp_on_us=50.0))
        assert config_key(base) != config_key(base.replace(incast_burst_packets=2))
        assert config_key(base) != config_key(base.replace(attack_start_us=10.0))
        assert config_key(base) != config_key(base.replace(attack_ramp_us=5.0))

    def test_unpicklable_report_skips_cache_and_cleans_tmp(self, base, tmp_path):
        """Regression: ``RunCache.put`` only caught OSError — an unpicklable
        report attribute raised through the sweep AND leaked the partially
        written ``.tmp`` alongside the cache entries."""
        cache = RunCache(root=tmp_path)
        report = run_simulation(base)
        report.counters = dict(report.counters)
        report.counters["bad"] = lambda: None  # pickling raises
        cache.put(config_key(base), JobResult(report))  # must not raise
        assert list(tmp_path.glob("*.tmp")) == []
        assert list(tmp_path.glob("*.pkl")) == []
        assert cache.get(config_key(base)) is None  # a skip, not a corrupt entry

    def test_unwritable_cache_dir_is_nonfatal(self, base, tmp_path):
        if os.geteuid() == 0:
            pytest.skip("directory permissions do not bind as root")
        locked = tmp_path / "locked"
        locked.mkdir()
        locked.chmod(0o500)
        try:
            cache = RunCache(root=locked)
            cache.put(config_key(base), JobResult(run_simulation(base)))
            assert list(locked.glob("*")) == []
        finally:
            locked.chmod(0o700)

    def test_cache_root_under_a_file_is_nonfatal(self, base, tmp_path):
        """Regression: the cache directory was created outside the
        non-fatal skip, so a root that cannot exist (a path under a regular
        file) raised NotADirectoryError after the sweep had simulated."""
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory")
        sweep = Sweep(base, {}, seeds=(1,))
        (point,) = sweep.run(cache=blocker / "cache")
        assert sweep.stats.simulated == 1
        assert point.reports[0].delivered > 0
        assert RunCache(root=blocker / "cache").get(config_key(base)) is None

    def test_cache_key_tracks_bloom_fields(self, base):
        """The Bloom knobs are part of the hashed payload: two sweeps that
        differ only in array geometry must never share cache entries."""
        from repro.sim.config import EnforcementMode

        assert config_key(base) != config_key(base.replace(bloom_bits=2048))
        assert config_key(base) != config_key(base.replace(bloom_hashes=3))
        bloom = base.replace(enforcement=EnforcementMode.BLOOM)
        assert config_key(bloom) != config_key(
            bloom.replace(bloom_inpacket_tag=True)
        )

    def test_config_change_invalidates(self, base, tmp_path):
        Sweep(base, GRID, seeds=(1,)).run(cache=tmp_path)
        changed = Sweep(
            base.replace(sim_time_us=160.0), GRID, seeds=(1,)
        )
        changed.run(cache=tmp_path)
        assert changed.stats.cache_hits == 0
        assert changed.stats.simulated == 4

    # "garbage\n" starts with pickle's GET opcode, whose argument parse
    # raises ValueError rather than UnpicklingError — both must be a miss.
    @pytest.mark.parametrize("junk", [b"not a pickle", b"garbage\n"])
    def test_corrupt_entry_is_a_miss(self, base, tmp_path, junk):
        cache = RunCache(root=tmp_path)
        Sweep(base, {}, seeds=(1,)).run(cache=cache)
        (entry,) = tmp_path.glob("*.pkl")
        entry.write_bytes(junk)
        rerun = Sweep(base, {}, seeds=(1,))
        rerun.run(cache=cache)
        assert rerun.stats.cache_hits == 0
        assert rerun.stats.simulated == 1

    def test_wrong_object_in_entry_is_a_miss(self, base, tmp_path):
        cache = RunCache(root=tmp_path)
        cache.put(config_key(base), JobResult(run_simulation(base)))
        (entry,) = tmp_path.glob("*.pkl")
        entry.write_bytes(pickle.dumps({"not": "a report"}))
        assert cache.get(config_key(base)) is None

    def test_progress_reports_cache_hits(self, base, tmp_path):
        Sweep(base, GRID, seeds=(1,)).run(cache=tmp_path)
        events = []
        Sweep(base, GRID, seeds=(1,)).run(events.append, cache=tmp_path)
        assert len(events) == 4
        assert all(e.cache_hits == 1 and e.cache_misses == 0 for e in events)


class TestRobustness:
    def test_worker_crash_retried_once(self, base, tmp_path, monkeypatch):
        monkeypatch.setenv(_CRASH_FLAG_ENV, str(tmp_path / "crashed.flag"))
        sweep = Sweep(base, {"best_effort_load": [0.2, 0.3]}, seeds=(1,))
        points = sweep.run(workers=2, runner=_crash_once_runner)
        assert (tmp_path / "crashed.flag").exists()
        assert sweep.stats.retried > 0
        assert len(points) == 2
        assert all(p.reports[0].delivered > 0 for p in points)

    def test_crash_is_charged_to_its_own_run(self, base, tmp_path, monkeypatch):
        """Regression: two runs that each died once made the sweep give up
        on runs that never died twice (a pool crash was charged to every
        job in flight), raising a worker error after one retry round."""
        monkeypatch.setenv(_CRASH_FLAG_ENV, str(tmp_path))
        sweep = Sweep(base, {}, seeds=(1, 2, 3, 4))
        (point,) = sweep.run(workers=2, runner=_crash_once_per_seed_runner)
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "seed1.flag", "seed4.flag",
        ]
        assert [r.config.seed for r in point.reports] == [1, 2, 3, 4]
        assert all(r.delivered > 0 for r in point.reports)
        assert sweep.stats.retried == 2
        assert multiprocessing.active_children() == []

    def test_worker_crash_twice_gives_up(self, base):
        sweep = Sweep(base, {}, seeds=(1,))
        with pytest.raises(WorkerCrashError):
            sweep.run(workers=2, runner=_always_crash_runner)
        assert multiprocessing.active_children() == []

    def test_no_child_can_start_runs_in_process(self, base, monkeypatch):
        """A host that cannot start a child still gets every run, in-process
        and with the rows a serial sweep gives."""

        def refuse(fn, item):
            raise OSError("no processes left")

        serial = Sweep(base, GRID, seeds=(1, 2))
        serial.run(workers=1)
        monkeypatch.setattr(isolation, "_start", refuse)
        parallel = Sweep(base, GRID, seeds=(1, 2))
        parallel.run(workers=2)
        assert parallel.table(METRICS) == serial.table(METRICS)
        assert parallel.stats.in_process == 8
        assert parallel.stats.retried == 0

    def test_custom_runner_in_process(self, base):
        calls = []

        def runner(cfg):
            calls.append(cfg.seed)
            return run_simulation(cfg)

        Sweep(base, {}, seeds=(3, 4)).run(workers=1, runner=runner)
        assert calls == [3, 4]


class TestSweepBugfixes:
    def test_empty_value_list_yields_empty_results(self, base):
        """grid={"x": []} legitimately runs zero points — `.results` must
        return [] afterwards, not claim run() was never called."""
        sweep = Sweep(base, {"num_attackers": []})
        assert sweep.run() == []
        assert sweep.results == []
        assert sweep.table(METRICS) == []

    def test_results_before_run_still_raises(self, base):
        with pytest.raises(RuntimeError, match="call run"):
            Sweep(base, {"num_attackers": []}).results

    def test_mean_with_no_reports_raises_cleanly(self, base):
        sweep = Sweep(base, {}, seeds=())
        (point,) = sweep.run()
        assert point.reports == ()
        with pytest.raises(ValueError, match="no reports"):
            point.mean(queuing_us("best_effort"))


@pytest.mark.tier2_smoke
class TestCounterSnapshotsAcrossPool:
    """SimReport.counters must cross the process-pool pickle boundary and
    the on-disk run cache unchanged."""

    def test_counters_survive_workers2_cached_roundtrip(self, base, tmp_path):
        serial = Sweep(base, GRID, seeds=(1,))
        serial.run(workers=1)
        cold = Sweep(base, GRID, seeds=(1,))
        cold.run(workers=2, cache=tmp_path)
        warm = Sweep(base, GRID, seeds=(1,))
        warm.run(workers=2, cache=tmp_path)
        assert warm.stats.cache_hits == 4 and warm.stats.simulated == 0
        for s, c, w in zip(serial.results, cold.results, warm.results):
            for rs, rc, rw in zip(s.reports, c.reports, w.reports):
                assert rs.counters, "snapshot must not be empty"
                assert rs.counters == rc.counters == rw.counters
                assert all(
                    type(v) in (int, float) for v in rw.counters.values()
                ), "snapshot must hold plain numbers, not Counter objects"

    def test_report_aggregates_derive_from_snapshot(self, base):
        (point,) = Sweep(
            base.replace(num_attackers=1), {}, seeds=(1,)
        ).run(workers=2)
        (report,) = point.reports
        assert report.switch_filtered == report.counter_total("switch.*.filtered_drops")
        assert report.switch_lookups == report.counter_total("filter.*.lookups")
        assert report.traps_received == report.counter("sm.traps_received")
        assert report.traps_processed == report.counter("sm.traps_processed")
