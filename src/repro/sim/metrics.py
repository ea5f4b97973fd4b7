"""Latency statistics for the paper's two headline metrics.

The paper measures, per traffic class:

* **queuing time** — how long a packet waits in the HCA send queue before
  the fabric accepts it (credit-based flow control pushes congestion back to
  the source, so this is where DoS damage shows up — Figure 1);
* **network latency** — injection into the fabric until delivery at the
  destination HCA.

Both are accumulated with Welford's online algorithm (mean + unbiased
stddev without storing samples) *and* optionally as raw samples, because
Figures 5/6 discuss standard deviations explicitly and the "excluding the
attacking period" analysis needs time-windowed re-aggregation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.sim.engine import PS_PER_US


@dataclass
class LatencySample:
    """One delivered packet's timing record (all times in ps)."""

    created: int
    injected: int
    delivered: int
    traffic_class: str
    source: int
    destination: int

    @property
    def queuing_ps(self) -> int:
        return self.injected - self.created

    @property
    def network_ps(self) -> int:
        return self.delivered - self.injected


class StatAccumulator:
    """Online mean/stddev/min/max accumulator (Welford)."""

    __slots__ = ("count", "_mean", "_m2", "min", "max")

    def __init__(self) -> None:
        self.count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self.min = math.inf
        self.max = -math.inf

    def add(self, x: float) -> None:
        self.count += 1
        delta = x - self._mean
        self._mean += delta / self.count
        self._m2 += delta * (x - self._mean)
        if x < self.min:
            self.min = x
        if x > self.max:
            self.max = x

    @property
    def mean(self) -> float:
        return self._mean if self.count else 0.0

    @property
    def variance(self) -> float:
        """Unbiased sample variance."""
        return self._m2 / (self.count - 1) if self.count > 1 else 0.0

    @property
    def stddev(self) -> float:
        return math.sqrt(self.variance)

    def merge(self, other: "StatAccumulator") -> None:
        """Fold *other*'s observations into this accumulator (Chan et al.)."""
        if other.count == 0:
            return
        if self.count == 0:
            self.count = other.count
            self._mean = other._mean
            self._m2 = other._m2
            self.min = other.min
            self.max = other.max
            return
        total = self.count + other.count
        delta = other._mean - self._mean
        self._m2 += other._m2 + delta * delta * self.count * other.count / total
        self._mean += delta * other.count / total
        self.count = total
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)


@dataclass
class MetricsSummary:
    """Serializable (picklable) snapshot of a run's delivered samples.

    :class:`MetricsCollector` is a *live* object wired into every HCA; a
    :class:`~repro.sim.runner.SimReport` that crosses a process boundary
    (parallel sweeps, the run cache) carries this summary instead.  It
    supports the same time-windowed re-aggregation the paper's
    "excluding the attacking period" analysis needs.
    """

    samples: list[LatencySample] = field(default_factory=list)

    def windowed(
        self,
        traffic_class: str,
        exclude: list[tuple[int, int]] | None = None,
    ) -> tuple[StatAccumulator, StatAccumulator]:
        """(queuing, network) accumulators over samples whose *injection*
        time falls outside every ``exclude`` window (ps intervals)."""
        exclude = exclude or []
        q, n = StatAccumulator(), StatAccumulator()
        for s in self.samples:
            if s.traffic_class != traffic_class:
                continue
            t = s.injected
            if any(lo <= t < hi for lo, hi in exclude):
                continue
            q.add(s.queuing_ps)
            n.add(s.network_ps)
        return q, n

    def values_us(
        self,
        traffic_class: str,
        kind: str = "total",
        exclude: list[tuple[int, int]] | None = None,
    ) -> list[float]:
        """Per-delivery latency values in µs, for percentile readouts.

        *kind* selects ``"queuing"``, ``"network"``, or their ``"total"``;
        *exclude* windows (ps, on injection time) work as in
        :meth:`windowed`.  Order follows delivery order — sort (or hand to
        :func:`repro.sim.stats.percentile`) before reading quantiles.
        """
        if kind not in ("queuing", "network", "total"):
            raise ValueError("kind must be 'queuing', 'network', or 'total'")
        exclude = exclude or []
        out: list[float] = []
        for s in self.samples:
            if s.traffic_class != traffic_class:
                continue
            t = s.injected
            if any(lo <= t < hi for lo, hi in exclude):
                continue
            if kind == "queuing":
                ps = s.queuing_ps
            elif kind == "network":
                ps = s.network_ps
            else:
                ps = s.queuing_ps + s.network_ps
            out.append(ps / PS_PER_US)
        return out


@dataclass
class MetricsCollector:
    """Collects delivered-packet samples into per-class accumulators.

    :func:`repro.sim.runner.class_stats` turns the accumulators into a
    report's ``stats``.  ``keep_samples=True`` retains every
    :class:`LatencySample` so :meth:`summary` can slice by time window
    (e.g. drop the attack-active periods, as the paper does when quoting
    14.19 µs vs 13.65 µs for IF vs SIF).
    """

    keep_samples: bool = True
    samples: list[LatencySample] = field(default_factory=list)
    delivered: int = 0
    dropped: dict[str, int] = field(default_factory=dict)
    _queuing: dict[str, StatAccumulator] = field(default_factory=dict)
    _network: dict[str, StatAccumulator] = field(default_factory=dict)

    def record_delivery(self, sample: LatencySample) -> None:
        self.delivered += 1
        if self.keep_samples:
            self.samples.append(sample)
        cls = sample.traffic_class
        queuing = self._queuing.get(cls)
        if queuing is None:
            queuing = self._queuing[cls] = StatAccumulator()
        network = self._network.get(cls)
        if network is None:
            network = self._network[cls] = StatAccumulator()
        injected = sample.injected
        queuing.add(injected - sample.created)
        network.add(sample.delivered - injected)

    def record_drop(self, reason: str) -> None:
        self.dropped[reason] = self.dropped.get(reason, 0) + 1

    def summary(self) -> MetricsSummary:
        """Detach a picklable :class:`MetricsSummary` from this live
        collector (requires ``keep_samples=True``)."""
        if not self.keep_samples:
            raise RuntimeError("summary() needs keep_samples=True")
        return MetricsSummary(samples=list(self.samples))
