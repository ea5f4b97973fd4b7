#!/usr/bin/env python
"""Check or regenerate the pinned golden result digests.

``src/repro/sim/golden.json`` holds six short schedule-free scenarios and,
for each run, two sha256 digests: ``digest`` of the canonical JSON of
:func:`repro.sim.sweep.report_payload`, and ``trace_digest`` of the run's
trace events (:func:`repro.sim.sweep.trace_digest`), plus the run's
``events_processed``.  ``tests/sim/test_golden.py`` checks the table.

When a ``digest`` moves, the tool recomputes it with the pinned
``events_processed`` put back and says which it was: a change to the
engine's event count alone ("events_processed A -> B; every other field
unchanged") or to what the run computed ("payload changed").

Usage::

    python tools/golden.py           # check; exit 1 when a digest moved
    python tools/golden.py --write   # re-pin after an intended result change

The digests feed :data:`repro.sim.sweep.RESULTS_VERSION`, so re-pinning
invalidates every run-cache entry.  A change that re-pins names its
reason in CHANGES.md.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.fuzz.generators import Scenario  # noqa: E402
from repro.sim.runner import SimReport, run_simulation  # noqa: E402
from repro.sim.sweep import GOLDEN_TABLE, report_digest, trace_digest  # noqa: E402
from repro.sim.trace import Tracer  # noqa: E402


def explain_move(case: dict, report: SimReport) -> str:
    """Why *report*'s digest differs from the one *case* pins."""
    old = case.get("events_processed")
    if old is not None:
        restored = dataclasses.replace(report, events_processed=old)
        if report_digest(restored) == case.get("digest"):
            return (f"events_processed {old} -> {report.events_processed};"
                    f" every other field unchanged")
    return "payload changed"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true",
                        help="rewrite the table's digests instead of checking them")
    args = parser.parse_args(argv)
    table = json.loads(GOLDEN_TABLE.read_text(encoding="utf-8"))
    moved = 0
    for case in table["cases"]:
        config = Scenario.from_dict(case["scenario"]).build_config()
        tracer = Tracer()
        report = run_simulation(config, tracer=tracer)
        pinned = {
            "digest": report_digest(report),
            "trace_digest": trace_digest(tracer.events),
        }
        name = case["scenario"]["name"]
        for field, digest in pinned.items():
            if digest != case.get(field):
                moved += 1
                print(f"{name} {field}: {case.get(field)} -> {digest}")
            else:
                print(f"{name} {field}: {digest} unchanged")
        if pinned["digest"] != case.get("digest"):
            print(f"{name}: {explain_move(case, report)}")
        case.update(pinned, events_processed=report.events_processed)
    if args.write:
        GOLDEN_TABLE.write_text(
            json.dumps(table, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        print(f"wrote {GOLDEN_TABLE.name}: {moved} digest(s) moved")
        return 0
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
