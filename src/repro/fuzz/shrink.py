"""Greedy delta debugging: minimize a failing scenario.

Given a scenario and a predicate "does the failure still fire?", the
shrinker walks a fixed set of reduction passes — drop tamper/injection/
fault/crash entries (all-at-once, then one-by-one), halve the simulated
horizon, shrink the mesh, remove attackers — keeping each reduction only
when the predicate still holds, and loops until a full round changes
nothing.  Predicates that *error* (e.g. a mesh shrink invalidated a link
name) count as "failure gone", so structurally-broken candidates are
simply not taken.

The result is a smaller scenario that still violates the same invariant,
suitable for a replayable repro file (see :mod:`repro.fuzz.corpus` and
``repro-sim fuzz --shrink``).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable

from repro.fuzz.generators import Scenario

#: Scenario list fields the element-dropping passes operate on, in the
#: order they are tried (attack surface first — it is usually the cause).
_LIST_FIELDS = ("tampers", "injections", "link_faults", "switch_crashes")

#: Don't shrink the horizon below this (µs) — runs shorter than a few
#: round trips can't exercise anything.
_MIN_SIM_TIME_US = 20.0


def _safe(predicate: Callable[[Scenario], bool], candidate: Scenario) -> bool:
    try:
        return bool(predicate(candidate))
    except Exception:
        return False


def _shrink_list(scenario: Scenario, name: str,
                 predicate: Callable[[Scenario], bool]) -> Scenario:
    items = list(getattr(scenario, name))
    if not items:
        return scenario
    empty = replace(scenario, **{name: ()})
    if _safe(predicate, empty):
        return empty
    i = len(items) - 1
    while i >= 0 and len(items) > 1:
        candidate = replace(
            scenario, **{name: tuple(items[:i] + items[i + 1:])}
        )
        if _safe(predicate, candidate):
            items.pop(i)
            scenario = candidate
        i -= 1
    return scenario


def _shrink_scalars(scenario: Scenario,
                    predicate: Callable[[Scenario], bool]) -> Scenario:
    config = scenario.config

    # shorter schedule
    sim_time = float(config.get("sim_time_us", 0))
    if sim_time / 2 >= _MIN_SIM_TIME_US:
        candidate = replace(
            scenario, config={**config, "sim_time_us": round(sim_time / 2, 3)}
        )
        if _safe(predicate, candidate):
            scenario = candidate
            config = scenario.config

    # fewer nodes (invalidated link names / LIDs make the predicate error,
    # which reads as "not preserved" — the candidate is just skipped)
    for axis in ("mesh_width", "mesh_height"):
        size = int(config.get(axis, 2))
        if size > 2:
            candidate = replace(scenario, config={**config, axis: size - 1})
            if _safe(predicate, candidate):
                scenario = candidate
                config = scenario.config

    # no attackers
    if int(config.get("num_attackers", 0)) > 0:
        candidate = replace(scenario, config={**config, "num_attackers": 0})
        if _safe(predicate, candidate):
            scenario = candidate

    return scenario


def shrink(scenario: Scenario, predicate: Callable[[Scenario], bool],
           max_rounds: int = 8) -> Scenario:
    """Smallest scenario (greedy, not global) for which *predicate* holds.

    *predicate* must return True while the original failure still fires.
    The input scenario is assumed failing; it is returned unchanged if no
    reduction preserves the failure.
    """
    for _ in range(max_rounds):
        before = scenario
        for name in _LIST_FIELDS:
            scenario = _shrink_list(scenario, name, predicate)
        scenario = _shrink_scalars(scenario, predicate)
        if scenario == before:
            break
    return scenario


def shrink_failure(scenario: Scenario, oracle: str) -> Scenario:
    """Minimize *scenario* while the named oracle still reports a violation
    (re-executing every fuzz leg per probe)."""
    from repro.fuzz.oracles import run_scenario

    def still_fails(candidate: Scenario) -> bool:
        result = run_scenario(candidate)
        return any(v.oracle == oracle for v in result.violations)

    return shrink(scenario, still_fails)
