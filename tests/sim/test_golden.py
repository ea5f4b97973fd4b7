"""Pinned golden results: every case in ``repro/sim/golden.json`` must
reproduce its digests.

``digest`` is the sha256 of the canonical JSON of ``report_payload`` and
``trace_digest`` that of the run's trace events; ``events_processed`` is
pinned beside them.  When a change moves results on purpose, re-pin the
table with ``python tools/golden.py --write`` and name the reason in
CHANGES.md.
"""

import dataclasses
import importlib
import importlib.util
import json
from pathlib import Path

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
    pinned = {field: case[field]
              for field in ("digest", "trace_digest", "events_processed")}
    tracer = Tracer()
    report = run_simulation(config, tracer=tracer)
    got = {
        "digest": report_digest(report),
        "trace_digest": trace_digest(tracer.events),
        "events_processed": report.events_processed,
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


def _golden_tool():
    path = Path(__file__).resolve().parents[2] / "tools" / "golden.py"
    spec = importlib.util.spec_from_file_location("golden_tool", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestGoldenToolNamesWhatMoved:
    """``tools/golden.py`` recomputes a moved digest with the pinned
    ``events_processed`` put back, to tell an event-count change from a
    result change."""

    @pytest.fixture(scope="class")
    def run(self):
        (case,) = [c for c in CASES if c["scenario"]["name"] == "fattree4_sif"]
        config = Scenario.from_dict(case["scenario"]).build_config()
        return case, run_simulation(config)

    def test_only_the_event_count_moved(self, run):
        case, report = run
        old = report.events_processed + 1234
        pinned = dict(case, events_processed=old, digest=report_digest(
            dataclasses.replace(report, events_processed=old)))
        assert _golden_tool().explain_move(pinned, report) == (
            f"events_processed {old} -> {report.events_processed};"
            f" every other field unchanged"
        )

    def test_a_result_field_moved(self, run):
        case, report = run
        old = report.events_processed + 1234
        moved = dataclasses.replace(report, delivered=report.delivered + 1)
        pinned = dict(case, events_processed=old, digest=report_digest(
            dataclasses.replace(moved, events_processed=old)))
        assert _golden_tool().explain_move(pinned, report) == "payload changed"

    def test_no_pinned_count_is_a_payload_change(self, run):
        case, report = run
        pinned = {k: v for k, v in case.items() if k != "events_processed"}
        assert _golden_tool().explain_move(pinned, report) == "payload changed"
