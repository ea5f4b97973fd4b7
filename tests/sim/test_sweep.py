"""Sweep driver: grid expansion, execution, and reducing its points with
``pooled_delay`` and the ``sim/stats.py`` kernels."""

import threading

import pytest

from repro.experiments.pooling import pooled_delay
from repro.sim.config import SimConfig
from repro.sim.engine import PS_PER_US
from repro.sim.runner import SimReport
from repro.sim.stats import mean_ci, percentile, pooled
from repro.sim.sweep import (
    JobResult,
    RunCache,
    Sweep,
    bloom_fp_axis,
    config_key,
)


@pytest.fixture
def base():
    return SimConfig(
        mesh_width=2, mesh_height=2, num_partitions=1,
        sim_time_us=150.0, warmup_us=10.0, best_effort_load=0.2,
        enable_realtime=False, keep_samples=False,
    )


class TestGrid:
    def test_point_expansion(self, base):
        sweep = Sweep(base, {"best_effort_load": [0.2, 0.3], "num_attackers": [0, 1]})
        pts = sweep.points()
        assert len(pts) == 4
        assert {"best_effort_load": 0.2, "num_attackers": 0} in pts

    def test_deterministic_order(self, base):
        sweep = Sweep(base, {"b": [1], "a": [2]})
        # keys sorted: a before b in every dict
        assert list(sweep.points()[0]) == ["a", "b"]

    def test_empty_grid_single_point(self, base):
        assert Sweep(base, {}).points() == [{}]


class TestExecution:
    def test_runs_all_points(self, base):
        sweep = Sweep(base, {"best_effort_load": [0.2, 0.3]})
        results = sweep.run()
        assert len(results) == 2
        assert all(len(p.reports) == 1 for p in results)
        assert all(p.reports[0].delivered > 0 for p in results)

    def test_seed_averaging(self, base):
        sweep = Sweep(base, {"best_effort_load": [0.2]}, seeds=(1, 2, 3))
        (point,) = sweep.run()
        assert [r.config.seed for r in point.reports] == [1, 2, 3]
        individual = [r.cls("best_effort").queuing_us for r in point.reports]
        assert mean_ci(individual).mean == pytest.approx(sum(individual) / 3)

    def test_invalid_override_raises(self, base):
        sweep = Sweep(base, {"num_partitions": [0]})
        with pytest.raises(ValueError):
            sweep.run()

    def test_results_before_run_raises(self, base):
        with pytest.raises(RuntimeError):
            Sweep(base, {}).results

    def test_progress_callback(self, base):
        lines = []
        Sweep(base, {"best_effort_load": [0.2, 0.25]}).run(progress=lines.append)
        assert len(lines) == 2


class TestProgressStreamOrder:
    """PointProgress events arrive strictly in grid-index order, no matter
    which points were served from the cache."""

    def events_for(self, base, loads, cache_dir):
        events = []
        Sweep(base, {"best_effort_load": loads}).run(
            progress=events.append, cache=cache_dir
        )
        return events

    def test_cached_prefix_streams_in_order(self, base, tmp_path):
        self.events_for(base, [0.2], tmp_path)  # warm point 0 only
        events = self.events_for(base, [0.2, 0.25], tmp_path)
        assert [e.index for e in events] == [0, 1]
        assert events[0].cache_hits == 1 and events[0].cache_misses == 0
        assert events[1].cache_hits == 0 and events[1].cache_misses == 1

    def test_cached_middle_point_streams_in_order(self, base, tmp_path):
        self.events_for(base, [0.25], tmp_path)  # warm the middle point
        events = self.events_for(base, [0.2, 0.25, 0.3], tmp_path)
        assert [e.index for e in events] == [0, 1, 2]
        assert [e.cache_hits for e in events] == [0, 1, 0]

    def test_fully_cached_sweep_still_ordered(self, base, tmp_path):
        self.events_for(base, [0.2, 0.25], tmp_path)
        events = self.events_for(base, [0.2, 0.25], tmp_path)
        assert [e.index for e in events] == [0, 1]
        assert all(e.cache_hits == 1 and e.cache_misses == 0 for e in events)


class TestMonteCarloAccessors:
    """A multi-seed point reduces through ``pooled_delay`` and the
    ``sim/stats.py`` kernels, read straight off its reports."""

    @pytest.fixture
    def point(self, base):
        sweep = Sweep(
            base.replace(keep_samples=True), {}, seeds=(1, 2, 3)
        )
        (point,) = sweep.run()
        return point

    @staticmethod
    def be_queuing_acc(report):
        return report.metrics.windowed("best_effort")[0]

    def test_pooled_matches_concatenated_sample_oracle(self, point):
        from repro.sim.metrics import StatAccumulator

        oracle = StatAccumulator()
        for r in point.reports:
            for s in r.metrics.samples:
                if s.traffic_class == "best_effort":
                    oracle.add(s.queuing_ps)
        merged = pooled(self.be_queuing_acc(r) for r in point.reports)
        assert merged.count == oracle.count > 0
        assert merged.mean == pytest.approx(oracle.mean)
        assert merged.variance == pytest.approx(oracle.variance)
        # best_effort is the only class, so the bar pools the same samples
        delay = pooled_delay(point)
        assert delay.queuing_us == pytest.approx(oracle.mean / PS_PER_US)
        assert delay.queuing_std_us == pytest.approx(oracle.stddev / PS_PER_US)

    def test_pooled_differs_from_averaged_stddev(self, point):
        # the bug the MC layer fixes: these two aggregations are not equal
        per_seed = [r.cls("best_effort").queuing_std_us for r in point.reports]
        averaged = sum(per_seed) / len(per_seed)
        assert pooled_delay(point).queuing_std_us >= averaged

    def test_ci_brackets_the_mean_of_seed_means(self, point):
        totals = [r.cls("best_effort").total_us for r in point.reports]
        ci = mean_ci(totals)
        assert ci.n == 3
        assert ci.lo <= sum(totals) / 3 <= ci.hi
        assert pooled_delay(point).total_ci_half_us == pytest.approx(ci.half)

    def test_percentile_orders_correctly(self, point):
        values = [
            v for r in point.reports for v in r.metrics.values_us("best_effort")
        ]
        p50 = percentile(values, 50)
        p99 = percentile(values, 99)
        assert 0 < p50 <= p99

    def test_no_reports_raise(self, base):
        sweep = Sweep(base, {}, seeds=())
        (point,) = sweep.run()
        assert point.reports == ()
        with pytest.raises(ValueError):
            mean_ci([r.cls("best_effort").total_us for r in point.reports])
        with pytest.raises(ValueError):
            percentile([], 50)


class TestBloomFpAxis:
    def test_tighter_fp_needs_more_bits(self):
        (bits,) = bloom_fp_axis([0.1], 16, num_hashes=4).values()
        (tighter,) = bloom_fp_axis([0.001], 16, num_hashes=4).values()
        assert tighter[0] > bits[0]

    def test_sizes_meet_their_targets(self):
        from repro.core.bloom import analytic_fp_rate

        axis = bloom_fp_axis([0.5, 0.1, 0.01], 16, num_hashes=4)
        for fp, bits in zip([0.5, 0.1, 0.01], axis["bloom_bits"]):
            assert analytic_fp_rate(bits, 4, 16) <= fp

    def test_collapsed_sizes_deduplicated(self):
        # at 1 entry, loose targets round to the same 8-bit minimum
        axis = bloom_fp_axis([0.9, 0.89], 1, num_hashes=1)
        assert len(axis["bloom_bits"]) == len(set(axis["bloom_bits"]))

    def test_axis_is_a_usable_grid(self, base):
        axis = bloom_fp_axis([0.5, 0.05], 4)
        sweep = Sweep(base, axis)
        assert len(sweep.points()) == len(axis["bloom_bits"])
        assert all("bloom_bits" in p for p in sweep.points())


class TestTable:
    def test_rows_carry_overrides_and_metrics(self, base):
        sweep = Sweep(base, {"best_effort_load": [0.2, 0.3]})
        points = sweep.run()
        assert [p.overrides for p in points] == [
            {"best_effort_load": 0.2}, {"best_effort_load": 0.3},
        ]
        for point in points:
            (report,) = point.reports
            assert report.config.best_effort_load == point.overrides[
                "best_effort_load"
            ]
            stats = report.cls("best_effort")
            assert stats.count > 0
            assert stats.total_us == pytest.approx(
                stats.queuing_us + stats.network_us
            )

    def test_load_affects_queuing(self, base):
        sweep = Sweep(base, {"best_effort_load": [0.1, 0.5]})
        low, high = (p.reports[0].cls("best_effort") for p in sweep.run())
        assert high.queuing_us >= low.queuing_us


class TestCacheConcurrency:
    """The tmp-file + rename contract under contention: two writers racing
    the same key both succeed, and a concurrent reader never observes a
    torn or partial entry — it sees a miss or a complete report."""

    def test_racing_writers_same_key_no_torn_reads(self, base, tmp_path):
        cache = RunCache(root=tmp_path)
        key = config_key(base)
        entry = JobResult(SimReport(
            config=base, stats={}, drops={}, delivered=42, attack_windows=[],
        ))
        stop = threading.Event()
        torn: list = []

        def writer():
            while not stop.is_set():
                cache.put(key, entry)

        def reader():
            while not stop.is_set():
                loaded = RunCache(root=tmp_path).get(key)
                if loaded is not None and loaded.report.delivered != 42:
                    torn.append(loaded)

        threads = [threading.Thread(target=writer) for _ in range(2)]
        threads.append(threading.Thread(target=reader))
        for t in threads:
            t.start()
        threading.Event().wait(0.5)
        stop.set()
        for t in threads:
            t.join(timeout=5)
        assert torn == []
        final = RunCache(root=tmp_path).get(key)
        assert final is not None
        assert final.report.delivered == 42
        # no leftover temp files: every write either renamed or cleaned up
        stragglers = [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]
        assert stragglers == []
