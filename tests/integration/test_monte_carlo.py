"""Monte Carlo aggregation end to end: fig5's pooling regression, the
multi-seed smoke, and byte-determinism of the open-loop traffic family.

The pooling regression is the acceptance criterion of the MC layer: the
stddev a multi-seed bar reports must be the stddev of the *concatenated*
per-delivery samples, not the average of per-seed stddevs (the replaced
code's bug, which drops the between-seed mean spread)."""

import dataclasses

import pytest

from repro.sim.config import EnforcementMode, SimConfig
from repro.sim.engine import PS_PER_US
from repro.sim.metrics import LatencySample, MetricsSummary, StatAccumulator
from repro.sim.runner import SimReport, run_simulation
from repro.sim.sweep import SweepPoint
from repro.experiments.fig5_enforcement import fig5_sweep, run_fig5
from repro.experiments.pooling import pooled_delay


def synthetic_report(values_us, cls="best_effort"):
    """A minimal report whose per-delivery total delays are *values_us*."""
    samples = [
        LatencySample(
            created=0,
            injected=0,
            delivered=round(v * PS_PER_US),
            traffic_class=cls,
            source=1,
            destination=2,
        )
        for v in values_us
    ]
    return SimReport(
        config=SimConfig(mesh_width=2, mesh_height=2, num_partitions=1),
        stats={},
        drops={},
        delivered=len(samples),
        attack_windows=[],
        metrics=MetricsSummary(samples=samples),
    )


class TestFig5PoolingRegression:
    """Two seeds with identical within-seed spread but different means:
    averaging per-seed stddevs sees only the within-seed spread, pooling
    must also see the between-seed term."""

    SEED_A = [10.0, 11.0, 12.0]
    SEED_B = [100.0, 101.0, 102.0]

    @pytest.fixture
    def reports(self):
        return [synthetic_report(self.SEED_A), synthetic_report(self.SEED_B)]

    def test_pooled_matches_concatenated_oracle(self, reports):
        oracle = StatAccumulator()
        for v in self.SEED_A + self.SEED_B:
            oracle.add(round(v * PS_PER_US))
        merged = pooled_delay(SweepPoint({}, (1, 2), tuple(reports)))
        assert merged.n_seeds == 2
        assert merged.network_us == pytest.approx(oracle.mean / PS_PER_US)
        assert merged.network_std_us == pytest.approx(oracle.stddev / PS_PER_US)

    def test_averaged_per_seed_stddev_understates(self, reports):
        per_seed = [
            pooled_delay(SweepPoint({}, (1,), (r,))).network_std_us for r in reports
        ]
        averaged = sum(per_seed) / len(per_seed)
        merged = pooled_delay(SweepPoint({}, (1, 2), tuple(reports)))
        # between-seed spread is ~45us; within-seed ~1us — pooling must
        # dominate the (buggy) average by an order of magnitude.
        assert merged.network_std_us > 10 * averaged


class TestFig5MultiSeedEndToEnd:
    ARGS = dict(
        input_loads=(0.40,),
        modes=(EnforcementMode.SIF,),
        sim_time_us=300.0,
        seeds=(5, 6),
    )

    @pytest.fixture(scope="class")
    def cache_dir(self, tmp_path_factory):
        return tmp_path_factory.mktemp("fig5-mc-cache")

    @pytest.fixture(scope="class")
    def bar(self, cache_dir):
        (bar,) = run_fig5(cache=cache_dir, **self.ARGS)
        return bar

    def test_bar_carries_mc_fields(self, bar):
        assert bar.n_seeds == 2
        assert bar.total_ci_half_us > 0.0
        assert bar.queuing_std_us >= 0.0

    def test_bar_stddev_is_pooled_over_seeds(self, bar, cache_dir):
        # identical sweep, served from the same cache: same reports
        (point,) = fig5_sweep(**self.ARGS).run(cache=cache_dir)
        assert len(point.reports) == 2
        oracle = StatAccumulator()
        for report in point.reports:
            assert report.metrics is not None
            for s in report.metrics.samples:
                oracle.add(s.queuing_ps)
        assert bar.queuing_std_us == pytest.approx(
            oracle.stddev / PS_PER_US, rel=1e-9
        )

    def test_single_seed_bar_has_degenerate_interval(self, cache_dir):
        args = dict(self.ARGS, seeds=(5,))
        (bar,) = run_fig5(cache=cache_dir, **args)
        assert bar.n_seeds == 1
        assert bar.total_ci_half_us == 0.0


@pytest.mark.tier2_mc
class TestMonteCarloSmoke:
    """Scaled-down multi-seed fig5 — the `--mc` CLI path in miniature."""

    def test_three_seed_fig5_smoke(self, tmp_path):
        bars = run_fig5(
            input_loads=(0.40, 0.60),
            modes=(EnforcementMode.NONE, EnforcementMode.SIF),
            sim_time_us=400.0,
            seeds=(11, 12, 13),
            cache=tmp_path,
        )
        assert len(bars) == 4
        for bar in bars:
            assert bar.n_seeds == 3
            assert bar.total_us > 0.0
            assert bar.total_ci_half_us > 0.0
            # CI on per-seed means must be tighter than the per-delivery
            # spread it summarizes (n=3 t-interval over means of thousands
            # of samples).
            assert bar.total_ci_half_us < 20 * (
                bar.queuing_std_us + bar.network_std_us
            )


def model_config(**overrides):
    base = dict(
        mesh_width=2,
        mesh_height=2,
        num_partitions=1,
        sim_time_us=200.0,
        best_effort_load=0.3,
        enable_realtime=False,
        keep_samples=True,
        seed=29,
    )
    base.update(overrides)
    return SimConfig(**base)


OPEN_LOOP_CONFIGS = {
    "poisson": model_config(),
    "mmpp": model_config(traffic_model="mmpp", mmpp_on_us=40.0, mmpp_off_us=60.0),
    "flash_crowd": model_config(
        traffic_model="flash_crowd",
        flash_crowd_at_us=80.0,
        flash_crowd_multiplier=2.0,
    ),
    "incast": model_config(
        traffic_model="incast", incast_period_us=50.0, incast_burst_packets=4
    ),
    "elephant_mice": model_config(
        traffic_model="elephant_mice", elephant_fraction=0.25, elephant_boost=2.0
    ),
    "attack_ramp": model_config(
        num_partitions=2,
        num_attackers=1,
        attack_start_us=40.0,
        attack_ramp_us=60.0,
        enforcement=EnforcementMode.SIF,
    ),
}


class TestOpenLoopDeterminism:
    """Every new source family must be byte-deterministic per seed: the
    whole report (minus wall time) identical across repeated runs."""

    @pytest.mark.parametrize("name", sorted(OPEN_LOOP_CONFIGS))
    def test_repeat_run_is_identical(self, name):
        config = OPEN_LOOP_CONFIGS[name]
        first = run_simulation(config)
        second = run_simulation(config)
        assert first.delivered > 0, name
        host_times = dict(wall_seconds=0.0, build_seconds=0.0, run_seconds=0.0)
        assert dataclasses.replace(first, **host_times) == dataclasses.replace(
            second, **host_times
        )

    @pytest.mark.parametrize("name", ["mmpp", "incast", "elephant_mice"])
    def test_seed_changes_the_trace(self, name):
        config = OPEN_LOOP_CONFIGS[name]
        a = run_simulation(config)
        b = run_simulation(config.replace(seed=31))
        assert a.metrics is not None and b.metrics is not None
        assert a.metrics.samples != b.metrics.samples
