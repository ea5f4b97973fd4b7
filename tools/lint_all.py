#!/usr/bin/env python
"""One-shot runner for every repo AST lint.

Runs every custom linter over its default scope:

* ``check_bare_counters`` — no bare ``self.x += 1`` statistics in iba/core;
  every counter must live in the CounterRegistry.
* ``check_observability`` — hot-path code must go through the bound
  ``self._trace`` no-op swap and construction-time counter binding, never
  ``self.tracer.record(...)`` or per-event registry lookups.
* ``check_hot_reads`` — hop-path modules read packet header fields
  directly, never the ``DataPacket`` convenience properties or
  ``serialization_ps(...)``.

Usage::

    python tools/lint_all.py

Exits non-zero if any lint reports a failure; each linter keeps its own
per-finding stderr output.  Individual linters remain runnable on explicit
paths (``python tools/check_bare_counters.py src/repro/iba``).
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import check_bare_counters  # noqa: E402
import check_hot_reads  # noqa: E402
import check_observability  # noqa: E402

LINTS = (
    ("check_bare_counters", check_bare_counters.main),
    ("check_observability", check_observability.main),
    ("check_hot_reads", check_hot_reads.main),
)


def main() -> int:
    rc = 0
    for name, lint_main in LINTS:
        status = lint_main([])  # empty argv = the linter's default scope
        print(f"{name}: {'ok' if status == 0 else 'FAILED'}")
        rc = rc or status
    return rc


if __name__ == "__main__":
    sys.exit(main())
