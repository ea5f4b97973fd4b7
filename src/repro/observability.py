"""The benchmark's label for always-on counters.

Counters are always on and tracing is opt-in per run; DESIGN.md §3f
("Zero-cost tracing") holds the contract.  :func:`observability_enabled`
stays only because the benchmark's mode check imports it.
"""

from __future__ import annotations


def observability_enabled() -> bool:
    """Whether runs carry counters: always, since there is no off mode."""
    return True
