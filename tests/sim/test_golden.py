"""Pinned golden results: every case in ``repro/sim/golden.json`` must
reproduce its digests.

``digest`` is the sha256 of the canonical JSON of ``report_payload`` and
``trace_digest`` that of the run's trace events.  When a change moves
results on purpose, re-pin the table with ``python tools/golden.py
--write`` and name the reason in CHANGES.md.
"""

import importlib
import json

import pytest

from repro.core.auth import _keyed as keyed_memo
from repro.fuzz.generators import Scenario
from repro.sim.runner import run_simulation
from repro.sim.sweep import GOLDEN_TABLE, report_digest, trace_digest
from repro.sim.trace import Tracer

CASES = json.loads(GOLDEN_TABLE.read_text(encoding="utf-8"))["cases"]


def test_table_pins_six_short_schedule_free_cases():
    assert len(CASES) == 6
    for case in CASES:
        scenario = Scenario.from_dict(case["scenario"])
        assert scenario.schedule_free
        assert scenario.build_config().sim_time_us <= 300.0


@pytest.mark.parametrize(
    "case", CASES, ids=[case["scenario"]["name"] for case in CASES]
)
def test_digest_holds(case):
    config = Scenario.from_dict(case["scenario"]).build_config()
    pinned = {field: case[field] for field in ("digest", "trace_digest")}
    tracer = Tracer()
    report = run_simulation(config, tracer=tracer)
    got = {
        "digest": report_digest(report),
        "trace_digest": trace_digest(tracer.events),
    }
    assert got == pinned, (
        f"{case['scenario']['name']}: {got} != pinned {pinned}. If it moved"
        f" on purpose, run `python tools/golden.py --write` and name the"
        f" reason in CHANGES.md."
    )


#: The golden cases whose runs compute MACs or Bloom hashes.
HASHING_CASES = ("fig6_umac_qp", "hmac_md5_partition", "bloom")


@pytest.mark.parametrize("name", HASHING_CASES)
def test_runs_never_reach_the_pure_compression_functions(name, monkeypatch):
    """The simulator hashes through the C-backed ``md5``/``sha1``/
    ``hmac_*``; the from-scratch compression functions are oracles only."""

    def forbidden(*args):
        raise AssertionError("a run reached a pure-Python compression function")

    # repro.crypto re-exports the md5/sha1 *functions* under the module
    # names; resolve the modules explicitly.
    for module in ("repro.crypto.md5", "repro.crypto.sha1"):
        monkeypatch.setattr(importlib.import_module(module), "_compress", forbidden)
    # Rebuild every key schedule, so UMAC's set-up runs under the guard too.
    keyed_memo.cache_clear()
    (case,) = [c for c in CASES if c["scenario"]["name"] == name]
    config = Scenario.from_dict(case["scenario"]).build_config()
    assert report_digest(run_simulation(config)) == case["digest"]
