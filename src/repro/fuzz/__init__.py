"""Differential fuzzing & invariant checking for the whole simulator.

The subsystem closes the loop the paper's evaluation leaves open: the
simulator *claims* packet conservation, SIF state-machine legality, and
auth soundness on every run — this
package makes those claims machine-checkable on *randomly generated*
scenarios instead of hand-picked test fixtures.

Pipeline (see DESIGN.md §3e):

* :mod:`repro.fuzz.generators` — seed-driven scenario synthesis (random
  topology/partition/traffic/attacker draws) plus mutation-based packet
  tampering and forged-packet injection, all on :class:`~repro.sim.rng.RngStreams`
  so every scenario is a pure function of ``(master_seed, index)``.
* :mod:`repro.fuzz.oracles` — executes a scenario and checks the invariant
  catalogue, plus the sharded-vs-single-process differential for
  schedule-free scenarios.
* :mod:`repro.fuzz.shrink` — greedy delta debugging: minimize a failing
  scenario while the same oracle still fires.
* :mod:`repro.fuzz.corpus` — content-addressed JSON corpus of failures
  and replayable repro files (``repro-sim fuzz --replay``).
"""

from repro.fuzz.generators import (  # noqa: F401
    ForgedInject,
    LinkFault,
    MUTATIONS,
    PacketTamper,
    Scenario,
    SwitchCrash,
    generate_scenario,
)
from repro.fuzz.oracles import (  # noqa: F401
    FuzzRun,
    ScenarioResult,
    Violation,
    check_run,
    execute_scenario,
    run_scenario,
)
from repro.fuzz.shrink import shrink  # noqa: F401
