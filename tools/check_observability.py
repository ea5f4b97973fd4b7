#!/usr/bin/env python
"""Lint: forbid observability calls that bypass the no-op swap.

The zero-cost observability layer (see DESIGN.md) removes per-event
``if`` checks from the hot path by *binding* the right callable once at
construction time::

    self._trace = tracer.record if tracer is not None else null_trace

and by resolving counters to registry-owned objects in ``__init__`` so
the per-packet code only ever calls ``counter.inc()``.  Two patterns
silently defeat this:

* ``self.tracer.record(...)`` on the hot path — reintroduces an
  attribute chain plus a None-check (or crashes when no tracer is
  attached) where the bound ``self._trace(...)`` costs one empty call;
* ``registry.counter(...)`` / ``registry.gauge(...)`` outside
  ``__init__`` — a dict lookup plus possible allocation per event
  instead of a pre-bound handle.

This checker fails CI when either sneaks back into a hot-path module.

Allowed and therefore ignored:

* calls inside ``__init__`` (construction-time binding is the point);
* calls inside the known *cold* functions listed in ``COLD_FUNCTIONS``
  — rate-limited trap emission and SIF activation/deactivation
  transitions, which fire a handful of times per run and deliberately
  keep the explicit ``if self.tracer is not None`` branch because their
  detail strings are expensive to build.

Usage::

    python tools/check_observability.py            # checks hot-path modules
    python tools/check_observability.py PATH...    # explicit files
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

#: Modules whose code runs per-packet / per-event on the datapath.
DEFAULT_FILES = (
    "src/repro/iba/switch.py",
    "src/repro/iba/link.py",
    "src/repro/iba/hca.py",
    "src/repro/iba/arbiter.py",
    "src/repro/core/enforcement.py",
    "src/repro/core/auth.py",
    "src/repro/core/attacks.py",
    "src/repro/core/bloom.py",
    "src/repro/iba/subnet_manager.py",
    "src/repro/iba/buffers.py",
    "src/repro/sim/engine.py",
    "src/repro/sim/scheduler.py",
    "src/repro/sim/shard.py",
    "src/repro/sim/traffic.py",
    "src/repro/sim/metrics.py",
)

#: Registry lookup methods that must only run at construction time.
REGISTRY_LOOKUPS = {"counter", "gauge"}

#: Enclosing functions that are allowed construction-time registry lookups.
SETUP_FUNCTIONS = {"__init__"}

#: Known cold functions where the explicit ``if self.tracer is not None``
#: branch (and thus a direct ``.record()`` call) is the sanctioned idiom:
#: they run O(1) times per simulation, not per packet, and build
#: expensive detail strings that the bound-callable pattern would pay
#: for even when tracing is off.
COLD_FUNCTIONS = {
    "_maybe_trap",        # hca.py: rate-limited P_Key trap to the SM
    "register_invalid",   # enforcement.py: SM registration / activation
    "_idle_check",        # enforcement.py: idle-timeout deactivation
}


def _is_tracer_record(func: ast.expr) -> bool:
    """True for ``<anything>.tracer.record`` attribute chains."""
    return (
        isinstance(func, ast.Attribute)
        and func.attr == "record"
        and isinstance(func.value, ast.Attribute)
        and func.value.attr == "tracer"
    )


class _ObservabilityVisitor(ast.NodeVisitor):
    """Collects swap-bypassing tracer/counter calls with their context."""

    def __init__(self) -> None:
        self.hits: list[tuple[int, str]] = []
        self._func_stack: list[str] = []

    def _visit_func(self, node) -> None:
        self._func_stack.append(node.name)
        self.generic_visit(node)
        self._func_stack.pop()

    visit_FunctionDef = _visit_func
    visit_AsyncFunctionDef = _visit_func

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        enclosing = self._func_stack[-1] if self._func_stack else ""
        if _is_tracer_record(func) and enclosing not in COLD_FUNCTIONS:
            self.hits.append(
                (
                    node.lineno,
                    "direct '.tracer.record()' call bypasses the bound "
                    "'self._trace' no-op swap — bind the callable in "
                    "__init__ or add the enclosing function to "
                    "COLD_FUNCTIONS if it is provably cold",
                )
            )
        elif (
            isinstance(func, ast.Attribute)
            and func.attr in REGISTRY_LOOKUPS
            and enclosing not in SETUP_FUNCTIONS
        ):
            self.hits.append(
                (
                    node.lineno,
                    f"registry '.{func.attr}()' lookup outside __init__ — "
                    "resolve counters once at construction and call "
                    "'.inc()' on the bound object",
                )
            )
        self.generic_visit(node)


def find_bypasses(path: Path) -> list[tuple[int, str]]:
    """Return (line, message) for every swap-bypassing call in *path*."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    visitor = _ObservabilityVisitor()
    visitor.visit(tree)
    return visitor.hits


def check(files: list[Path]) -> int:
    failures = 0
    for f in files:
        for line, message in find_bypasses(f):
            failures += 1
            print(f"{f}:{line}: {message}", file=sys.stderr)
    return failures


def main(argv: list[str]) -> int:
    if argv:
        files = [Path(a) for a in argv]
    else:
        root = Path(__file__).resolve().parent.parent
        files = [root / rel for rel in DEFAULT_FILES]
    failures = check(files)
    if failures:
        print(
            f"\n{failures} observability swap-bypassing call(s) found",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
