"""Zero-cost observability.

Counters and traces are invaluable for experiments and debugging but cost
real time per event on a fat-tree-scale DoS run.  Rather than sprinkling
``if enabled:`` checks through the hot path, the observability layer is
**compiled out** structurally when disabled:

* a disabled :class:`~repro.sim.counters.CounterRegistry` hands every
  component one shared :class:`~repro.sim.counters.NullCounter`, so
  ``self.stat.inc()`` call sites become no-op method calls;
* components bind ``self._trace`` at construction — ``tracer.record``
  when tracing, :func:`~repro.sim.trace.null_trace` otherwise — so trace
  emission sites are unconditional calls to a no-op, with per-port detail
  strings precomputed so argument setup costs nothing either.

``tools/check_observability.py`` lints that hot-path modules never call
``self.tracer.record`` directly (which would bypass the swap and
reintroduce per-call branching).

A run chooses the mode with ``RunModes(observability=...)``
(:class:`repro.sim.config.RunModes`); ``False`` builds the fabric with a
disabled registry and no tracer.  Simulation behavior — delivery, drops,
timing, event order — is identical in both modes (the differential fuzz
harness diffs an enabled run against a disabled one); only the runtime
bookkeeping disappears.  The default comes from ``REPRO_OBSERVABILITY``
(``on`` | ``off``).
"""

from __future__ import annotations

from repro.sim.config import default_modes


def observability_enabled() -> bool:
    """Whether runs given no modes carry counters and traces."""
    return default_modes().observability
