"""Pinned golden results: every case in ``repro/sim/golden.json`` must
reproduce its digest under every run-mode leg.

A digest is the sha256 of the canonical JSON of ``report_payload``; the
fast, reference-datapath and heap-scheduler legs must each match it.  When a change moves results on purpose, re-pin the table with
``python tools/golden.py --write`` and name the reason in CHANGES.md.
"""

import json

import pytest

from repro.fuzz.generators import Scenario
from repro.service.jobstore import report_digest
from repro.sim.config import RunModes
from repro.sim.runner import run_simulation
from repro.sim.sweep import GOLDEN_TABLE

CASES = json.loads(GOLDEN_TABLE.read_text(encoding="utf-8"))["cases"]

ORACLE_LEGS = {
    "reference": RunModes(datapath="reference"),
    "heap": RunModes(scheduler="heap"),
}


def test_table_pins_six_short_schedule_free_cases():
    assert len(CASES) == 6
    for case in CASES:
        scenario = Scenario.from_dict(case["scenario"])
        assert scenario.schedule_free
        assert scenario.build_config().sim_time_us <= 300.0


@pytest.mark.parametrize(
    "case", CASES, ids=[case["scenario"]["name"] for case in CASES]
)
def test_digest_holds_under_every_leg(case):
    config = Scenario.from_dict(case["scenario"]).build_config()
    fast = run_simulation(config, modes=RunModes())
    digest = report_digest(fast)
    for leg, modes in ORACLE_LEGS.items():
        assert report_digest(run_simulation(config, modes=modes)) == digest, (
            f"the {leg} leg disagrees with the fast leg"
        )
    assert digest == case["digest"], (
        f"{case['scenario']['name']}: result digest moved from "
        f"{case['digest']} to {digest}. If the change is intended, run "
        f"`python tools/golden.py --write` and name the reason in CHANGES.md."
    )
