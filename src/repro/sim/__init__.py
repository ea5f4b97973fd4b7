"""Discrete-event simulation substrate.

The paper evaluates everything on a packet-level InfiniBand testbed; this
package is the engine underneath our reproduction of that testbed: an event
heap with a picosecond integer clock (:mod:`repro.sim.engine`), named seeded
RNG streams (:mod:`repro.sim.rng`), latency/queuing statistics
(:mod:`repro.sim.metrics`), experiment configuration
(:mod:`repro.sim.config`), traffic generators and the DoS attacker
(:mod:`repro.sim.traffic`), and the experiment runner
(:mod:`repro.sim.runner`).
"""

from repro.sim.counters import Counter, CounterRegistry
from repro.sim.engine import Engine, Event
from repro.sim.rng import RngStreams
from repro.sim.trace import NO_PACKET, TraceEvent, Tracer
from repro.sim.metrics import (
    StatAccumulator,
    LatencySample,
    MetricsCollector,
    MetricsSummary,
)
from repro.sim.config import SimConfig, EnforcementMode, AuthMode, KeyMgmtMode

_LAZY_RUNNER = ("SimReport", "run_simulation", "build_experiment")
_LAZY_SWEEP = ("Sweep", "SweepPoint", "RunCache", "SweepStats", "PointProgress")


def __getattr__(name):
    # Lazy: the runner pulls in repro.core and repro.iba, which themselves
    # import leaf modules of this package — importing it eagerly here would
    # create a cycle whenever a fabric module is imported first.
    if name in _LAZY_RUNNER:
        from repro.sim import runner

        return getattr(runner, name)
    if name in _LAZY_SWEEP:
        from repro.sim import sweep

        return getattr(sweep, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "Counter",
    "CounterRegistry",
    "Engine",
    "Event",
    "NO_PACKET",
    "TraceEvent",
    "Tracer",
    "RngStreams",
    "StatAccumulator",
    "LatencySample",
    "MetricsCollector",
    "MetricsSummary",
    "SimConfig",
    "EnforcementMode",
    "AuthMode",
    "KeyMgmtMode",
    "SimReport",
    "run_simulation",
    "Sweep",
    "SweepPoint",
    "RunCache",
    "SweepStats",
    "PointProgress",
]
