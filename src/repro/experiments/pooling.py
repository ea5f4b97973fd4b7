"""The bar reduction shared by Figure 5, Figure 6 and the bake-off.

Every bar of those figures reduces one :class:`~repro.sim.sweep.SweepPoint`
the same way: both traffic classes' queuing and network samples are merged
per seed (realtime before best_effort), pooled across seeds in seed order —
the statistics of the concatenated samples, see :mod:`repro.sim.stats` —
and the per-seed total-delay means give the Student-t 95 % interval.
:func:`pooled_delay` computes that once per report; :func:`attack_p99_us`
is the Figure-5 tail readout under attack.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.engine import PS_PER_US
from repro.sim.metrics import StatAccumulator
from repro.sim.runner import SimReport
from repro.sim.sweep import SweepPoint


@dataclass(frozen=True)
class PooledDelay:
    """One sweep point's delay, pooled across its seeds (µs)."""

    queuing_us: float
    network_us: float
    queuing_std_us: float
    network_std_us: float
    total_ci_half_us: float
    n_seeds: int


def pooled_delay(
    point: SweepPoint, exclude: list[tuple[int, int]] | None = None
) -> PooledDelay:
    """Reduce *point* to its pooled delay.

    *exclude* windows (ps, on injection time) drop samples from every
    report as :meth:`~repro.sim.metrics.MetricsSummary.windowed` does.
    Raises :class:`ValueError` for a point with no reports (``seeds=()``)
    or a report run with ``keep_samples=False``.
    """
    from repro.sim.stats import mean_ci, pooled

    per_seed = [_class_merged(r, exclude) for r in point.reports]
    q = pooled(sq for sq, _ in per_seed)
    n = pooled(sn for _, sn in per_seed)
    ci = mean_ci([(sq.mean + sn.mean) / PS_PER_US for sq, sn in per_seed])
    return PooledDelay(
        queuing_us=q.mean / PS_PER_US,
        network_us=n.mean / PS_PER_US,
        queuing_std_us=q.stddev / PS_PER_US,
        network_std_us=n.stddev / PS_PER_US,
        total_ci_half_us=ci.half,
        n_seeds=len(per_seed),
    )


def _class_merged(
    report: SimReport, exclude: list[tuple[int, int]] | None
) -> tuple[StatAccumulator, StatAccumulator]:
    """One report's (queuing, network) accumulators over both classes (ps)."""
    if report.metrics is None:
        raise ValueError(
            f"pooled_delay needs per-delivery samples; the seed-"
            f"{report.config.seed} report ran with keep_samples=False"
        )
    q, n = StatAccumulator(), StatAccumulator()
    for name in ("realtime", "best_effort"):
        wq, wn = report.metrics.windowed(name, exclude=exclude)
        q.merge(wq)
        n.merge(wn)
    return q, n


def attack_p99_us(point: SweepPoint) -> float:
    """99th-percentile best-effort total delay (µs) of deliveries injected
    *inside* attack windows, over every seed; 0 when none were."""
    values: list[float] = []
    for report in point.reports:
        values.extend(_attack_period_values_us(report))
    if not values:
        return 0.0
    from repro.sim.stats import percentile

    return percentile(values, 99)


def _attack_period_values_us(report: SimReport) -> list[float]:
    if not report.attack_windows or report.metrics is None:
        return []
    # values_us() excludes; keep the windows by excluding their complement.
    exclude: list[tuple[int, int]] = []
    t = 0
    for start, end in sorted(report.attack_windows):
        if start > t:
            exclude.append((t, start))
        t = max(t, end)
    exclude.append((t, report.config.sim_time_ps + 1))
    return report.metrics.values_us("best_effort", kind="total", exclude=exclude)
