"""tier2_fuzz: the Bloom never-under-filters contract, differentially.

Ten seeded SIF DoS scenarios each run with a shadow
:class:`~repro.core.enforcement.BloomPortFilter` riding every live SIF
ingress filter — identical packet and registration stream — and the
``bloom_dominance`` oracle demands zero under-filtering (no packet SIF
dropped may pass the Bloom) while over-filtering is allowed and must land
in the dedicated ``false_positive_drops`` counter.

Select with ``pytest -m tier2_fuzz``; also runs in the tier-1 suite."""

import pytest

from repro.fuzz.generators import generate_scenario
from repro.fuzz.oracles import check_bloom_vs_sif, check_run, execute_scenario

from tests.fuzz.conftest import small_scenario

pytestmark = pytest.mark.tier2_fuzz

#: tiny arrays so false positives genuinely occur across the batch —
#: a roomy filter would make the over-filter side of the contract vacuous.
TIGHT_BLOOM = {"bloom_bits": 64, "bloom_hashes": 2}


def _sif_scenario(seed: int):
    return small_scenario(
        name=f"bloom-diff-{seed}",
        enforcement="sif", num_attackers=2, attack_duty_cycle=0.5,
        attack_window_us=15.0, sif_idle_timeout_us=20.0,
        sim_time_us=60.0, seed=seed, **TIGHT_BLOOM,
    )


class TestBloomDominance:
    def test_ten_seeded_scenarios_zero_under_filtering(self):
        """The acceptance bar: >= 10 scenarios, every SIF drop matched by
        the identically-fed Bloom filter, not one packet under-filtered."""
        total_sif_drops = total_bloom_drops = total_fp = 0
        for seed in range(10):
            run = execute_scenario(_sif_scenario(seed), bloom_shadow=True)
            violations = check_run(run) + check_bloom_vs_sif(run)
            assert not violations, (
                f"seed {seed}:\n" + "\n".join(str(v) for v in violations)
            )
            assert run.bloom_shadows, "shadow filters must be installed"
            for shadow in run.bloom_shadows:
                assert shadow.under_filtered == []
                total_sif_drops += int(shadow.sif.drops)
                total_bloom_drops += int(shadow.bloom.drops)
                total_fp += int(shadow.bloom.false_positive_drops)
        # the batch genuinely attacked: SIF dropped packets, Bloom matched
        assert total_sif_drops > 0
        assert total_bloom_drops >= total_sif_drops
        # fp accounting never exceeds the drops it is carved out of
        assert 0 <= total_fp <= total_bloom_drops

    def test_shadow_leg_off_by_default(self):
        run = execute_scenario(_sif_scenario(3))
        assert run.bloom_shadows == []

    def test_non_sif_scenario_installs_no_shadows(self):
        run = execute_scenario(small_scenario(enforcement="if"), bloom_shadow=True)
        assert run.bloom_shadows == []

    def test_generated_sif_scenarios_also_clean(self):
        """The generator's own SIF draws (random topology, faults, forged
        injections) hold the contract too — not just hand-built scenarios."""
        checked = 0
        index = 0
        while checked < 3 and index < 200:
            scenario = generate_scenario(1, index)
            index += 1
            if scenario.config.get("enforcement") != "sif":
                continue
            checked += 1
            run = execute_scenario(scenario, bloom_shadow=True)
            violations = check_bloom_vs_sif(run)
            assert not violations, (
                f"{scenario.summary()}\n"
                + "\n".join(str(v) for v in violations)
            )
        assert checked == 3, "generator never drew a SIF scenario"
