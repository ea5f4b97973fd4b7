"""Metrics: Welford accumulator correctness, merging, per-class collection,
and time-windowed exclusion (the 'excluding the attacking period' analysis)."""

import math
import random
import statistics

import pytest

from repro.sim.engine import PS_PER_US
from repro.sim.metrics import (
    LatencySample,
    MetricsCollector,
    MetricsSummary,
    StatAccumulator,
)
from repro.sim.runner import class_stats


def sample(created, injected, delivered, cls="best_effort", src=1, dst=2):
    return LatencySample(
        created=created, injected=injected, delivered=delivered,
        traffic_class=cls, source=src, destination=dst,
    )


class TestStatAccumulator:
    def test_empty(self):
        acc = StatAccumulator()
        assert acc.count == 0
        assert acc.mean == 0.0
        assert acc.stddev == 0.0

    def test_single_value(self):
        acc = StatAccumulator()
        acc.add(5.0)
        assert acc.mean == 5.0
        assert acc.variance == 0.0
        assert acc.min == acc.max == 5.0

    def test_matches_statistics_module(self):
        data = [1.5, 2.5, 42.0, -3.0, 7.7, 9.1, 0.0, 1e6]
        acc = StatAccumulator()
        for x in data:
            acc.add(x)
        assert acc.mean == pytest.approx(statistics.fmean(data))
        assert acc.stddev == pytest.approx(statistics.stdev(data))
        assert acc.min == min(data)
        assert acc.max == max(data)

    def test_merge_equals_combined(self):
        data1 = [1.0, 2.0, 3.0, 10.0]
        data2 = [100.0, 200.0, -5.0]
        a, b, combined = StatAccumulator(), StatAccumulator(), StatAccumulator()
        for x in data1:
            a.add(x)
            combined.add(x)
        for x in data2:
            b.add(x)
            combined.add(x)
        a.merge(b)
        assert a.count == combined.count
        assert a.mean == pytest.approx(combined.mean)
        assert a.variance == pytest.approx(combined.variance)
        assert a.min == combined.min and a.max == combined.max

    def test_merge_empty_sides(self):
        a = StatAccumulator()
        b = StatAccumulator()
        b.add(3.0)
        a.merge(b)
        assert a.count == 1 and a.mean == 3.0

    def test_merge_into_empty_copies_all_state(self):
        src = StatAccumulator()
        for x in (2.0, 8.0, -1.0):
            src.add(x)
        dst = StatAccumulator()
        dst.merge(src)
        assert dst.count == src.count
        assert dst.mean == src.mean
        assert dst.variance == src.variance
        assert dst.min == -1.0 and dst.max == 8.0
        # the copy is by value: mutating dst must not touch src
        dst.add(100.0)
        assert src.count == 3 and src.max == 8.0

    def test_merge_from_empty_is_noop(self):
        a = StatAccumulator()
        for x in (1.0, 2.0, 3.0):
            a.add(x)
        before = (a.count, a.mean, a.variance, a.min, a.max)
        a.merge(StatAccumulator())
        assert (a.count, a.mean, a.variance, a.min, a.max) == before

    def test_merge_propagates_min_max_from_both_sides(self):
        a, b = StatAccumulator(), StatAccumulator()
        for x in (5.0, 9.0):
            a.add(x)
        for x in (-7.0, 3.0):
            b.add(x)
        a.merge(b)
        assert a.min == -7.0 and a.max == 9.0
        # and symmetric: the other side holding the extremes
        c, d = StatAccumulator(), StatAccumulator()
        for x in (-100.0, 100.0):
            c.add(x)
        d.add(0.0)
        d.merge(c)
        assert d.min == -100.0 and d.max == 100.0

    def test_chan_merge_equals_welford_over_many_random_splits(self):
        rng = random.Random(13)
        data = [rng.gauss(20.0, 6.0) for _ in range(200)]
        oracle = StatAccumulator()
        for x in data:
            oracle.add(x)
        for split in (1, 50, 117, 199):
            a, b = StatAccumulator(), StatAccumulator()
            for x in data[:split]:
                a.add(x)
            for x in data[split:]:
                b.add(x)
            a.merge(b)
            assert a.count == oracle.count
            assert a.mean == pytest.approx(oracle.mean)
            assert a.variance == pytest.approx(oracle.variance)
        b.merge(StatAccumulator())
        assert b.count == 1

    def test_numerical_stability_large_offset(self):
        # Welford must not lose precision with a large common offset.
        acc = StatAccumulator()
        for x in (1e9 + 1, 1e9 + 2, 1e9 + 3):
            acc.add(x)
        assert acc.variance == pytest.approx(1.0)


class TestLatencySample:
    def test_derived_times(self):
        s = sample(created=100, injected=250, delivered=900)
        assert s.queuing_ps == 150
        assert s.network_ps == 650


def stats_of(m):
    """The report ``stats`` a run with collector *m* would carry."""
    return class_stats(m._queuing, m._network)


class TestMetricsCollector:
    def test_per_class_separation(self):
        m = MetricsCollector()
        m.record_delivery(sample(0, 10, 100, cls="realtime"))
        m.record_delivery(sample(0, 30, 100, cls="best_effort"))
        stats = stats_of(m)
        assert list(stats) == ["best_effort", "realtime"]
        assert stats["realtime"].queuing_us == pytest.approx(10 / PS_PER_US)
        assert stats["best_effort"].queuing_us == pytest.approx(30 / PS_PER_US)

    def test_unknown_class_zero(self):
        m = MetricsCollector()
        assert stats_of(m) == {}
        q, n = m.summary().windowed("nope")
        assert (q.count, q.mean, n.count, n.mean) == (0, 0.0, 0, 0.0)

    def test_total_delay(self):
        m = MetricsCollector()
        m.record_delivery(sample(0, 2 * PS_PER_US, 5 * PS_PER_US))
        assert stats_of(m)["best_effort"].total_us == pytest.approx(5.0)

    def test_drop_accounting(self):
        m = MetricsCollector()
        m.record_drop("pkey")
        m.record_drop("pkey")
        m.record_drop("auth")
        assert m.dropped == {"pkey": 2, "auth": 1}

    def test_windowed_exclusion(self):
        m = MetricsCollector()
        # injected at 10us and 60us; exclude [50us, 100us)
        m.record_delivery(sample(0, 10 * PS_PER_US, 20 * PS_PER_US))
        m.record_delivery(sample(0, 60 * PS_PER_US, 200 * PS_PER_US))
        q, n = m.summary().windowed(
            "best_effort", exclude=[(50 * PS_PER_US, 100 * PS_PER_US)]
        )
        assert q.count == 1
        assert q.mean == pytest.approx(10 * PS_PER_US)

    def test_windowed_requires_samples(self):
        m = MetricsCollector(keep_samples=False)
        m.record_delivery(sample(0, 1, 2))
        with pytest.raises(RuntimeError):
            m.summary()

    def test_keep_samples_false_still_aggregates(self):
        m = MetricsCollector(keep_samples=False)
        m.record_delivery(sample(0, 10, 100))
        assert m.delivered == 1
        assert m.samples == []
        assert stats_of(m)["best_effort"].queuing_us > 0

    def test_count_accessor(self):
        m = MetricsCollector()
        m.record_delivery(sample(0, 10, 100))
        m.record_delivery(sample(0, 20, 100))
        m.record_delivery(sample(0, 20, 100, cls="realtime"))
        stats = stats_of(m)
        assert stats["best_effort"].count == 2
        assert stats["realtime"].count == 1
        assert "nope" not in stats

    def test_count_survives_network_only_class(self):
        """A class observed on only one accumulator (e.g. merged in from an
        external network-only trace) must count, not KeyError."""
        m = MetricsCollector()
        acc = StatAccumulator()
        acc.add(42.0)
        m._network["netonly"] = acc
        stats = stats_of(m)
        assert stats["netonly"].count == 1
        assert stats["netonly"].queuing_us == 0.0


class TestMetricsSummary:
    def test_detached_from_collector(self):
        m = MetricsCollector()
        m.record_delivery(sample(0, 10, 100))
        summary = m.summary()
        m.record_delivery(sample(0, 60, 100))  # must not leak into summary
        q, _ = summary.windowed("best_effort")
        assert q.count == 1

    def test_windowed_matches_collector(self):
        """Unwindowed, the summary pools exactly what the live accumulators
        behind the report's ``stats`` saw."""
        m = MetricsCollector()
        m.record_delivery(sample(0, 10 * PS_PER_US, 20 * PS_PER_US))
        m.record_delivery(sample(0, 60 * PS_PER_US, 200 * PS_PER_US))
        m.record_delivery(sample(5, 70 * PS_PER_US, 90 * PS_PER_US))
        qs, ns = m.summary().windowed("best_effort")
        stats = stats_of(m)["best_effort"]
        assert qs.count == ns.count == stats.count == 3
        assert qs.mean / PS_PER_US == pytest.approx(stats.queuing_us)
        assert ns.mean / PS_PER_US == pytest.approx(stats.network_us)
        assert qs.stddev / PS_PER_US == pytest.approx(stats.queuing_std_us)
        assert ns.stddev / PS_PER_US == pytest.approx(stats.network_std_us)

    def test_requires_kept_samples(self):
        with pytest.raises(RuntimeError):
            MetricsCollector(keep_samples=False).summary()

    def test_classes(self):
        summary = MetricsSummary(
            samples=[sample(0, 1, 2), sample(0, 1, 2, cls="realtime")]
        )
        assert summary.windowed("best_effort")[0].count == 1
        assert summary.windowed("realtime")[0].count == 1
        assert summary.values_us("realtime") == [2 / PS_PER_US]
