#!/usr/bin/env python
"""Check or regenerate the pinned golden result digests.

``src/repro/sim/golden.json`` holds six short schedule-free scenarios and,
for each, the sha256 of the canonical JSON of
:func:`repro.service.jobstore.report_payload` for its run under the
default fast-path modes (``RunModes()``).  ``tests/sim/test_golden.py``
checks the table under every run-mode leg.

Usage::

    python tools/golden.py           # check; exit 1 when a digest moved
    python tools/golden.py --write   # re-pin after an intended result change

The digests feed :data:`repro.sim.sweep.RESULTS_VERSION`, so re-pinning
invalidates every run-cache entry.  A change that re-pins names its
reason in CHANGES.md.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.fuzz.generators import Scenario  # noqa: E402
from repro.service.jobstore import report_digest  # noqa: E402
from repro.sim.config import RunModes  # noqa: E402
from repro.sim.runner import run_simulation  # noqa: E402
from repro.sim.sweep import GOLDEN_TABLE  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true",
                        help="rewrite the table's digests instead of checking them")
    args = parser.parse_args(argv)
    table = json.loads(GOLDEN_TABLE.read_text(encoding="utf-8"))
    moved = 0
    for case in table["cases"]:
        config = Scenario.from_dict(case["scenario"]).build_config()
        digest = report_digest(run_simulation(config, modes=RunModes()))
        name = case["scenario"]["name"]
        if digest != case["digest"]:
            moved += 1
            print(f"{name}: {case['digest']} -> {digest}")
        else:
            print(f"{name}: {digest} unchanged")
        case["digest"] = digest
    if args.write:
        GOLDEN_TABLE.write_text(
            json.dumps(table, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        print(f"wrote {GOLDEN_TABLE.name}: {moved} digest(s) moved")
        return 0
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
