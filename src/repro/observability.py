"""Zero-cost tracing.

Counters are always on (:mod:`repro.sim.counters`): every run's report
carries the full counter snapshot, whatever its run modes.  Tracing is
opt-in per run — ``run_simulation(config, tracer=Tracer())`` — and costs
nothing when absent, without ``if`` checks on the hot path:

* components bind ``self._trace`` at construction — ``tracer.record``
  when tracing, :func:`~repro.sim.trace.null_trace` otherwise — so trace
  emission sites are unconditional calls to a no-op, with per-port detail
  strings precomputed so argument setup costs nothing either.

``tools/check_observability.py`` lints that hot-path modules never call
``self.tracer.record`` directly (which would bypass the swap and
reintroduce per-call branching) and never look counters up per event.
"""

from __future__ import annotations


def observability_enabled() -> bool:
    """Whether runs carry counters: always, since there is no off mode."""
    return True
