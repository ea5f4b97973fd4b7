"""tier2_fuzz smoke: the first ten generated scenarios, plus the first IF
and the first SIF one, through every invariant oracle and, for SIF, the
Bloom shadow leg.

Select with ``pytest -m tier2_fuzz``; also runs in the tier-1 suite."""

import pytest

from repro.fuzz.generators import generate_scenario
from repro.fuzz.oracles import run_scenario
from repro.sim.config import EnforcementMode

pytestmark = pytest.mark.tier2_fuzz

#: scenario 10 is the first ``if`` and 16 the first ``sif`` of seed 0
INDICES = (*range(10), 10, 16)


def test_ten_scenarios_clean():
    tampered = injected = 0
    modes = set()
    for index in INDICES:
        scenario = generate_scenario(0, index)
        result = run_scenario(scenario)
        assert result.ok, (
            f"{scenario.summary()}\n"
            + "\n".join(str(v) for v in result.violations)
        )
        assert result.fast is not None
        mode = scenario.build_config().enforcement
        if mode is EnforcementMode.SIF:
            assert result.bloom_shadow.bloom_shadows  # shadow Bloom filters ran
        modes.add(mode)
        tampered += len(result.fast.tampered_ids)
        injected += len(result.fast.injected_ids)
    # the batch genuinely exercised the attack surface and every filter
    assert tampered + injected > 0
    assert modes == set(EnforcementMode)
