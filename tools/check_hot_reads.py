#!/usr/bin/env python
"""Lint: per-hop code reads packet header fields directly.

``DataPacket`` exposes ``vl``, ``dst``, ``src``, ``src_qp`` and ``nonce``
as properties over its headers.  They are public API for tests and cold
code, but each read is a Python-level call: ``packet.vl`` costs about
four times ``packet.lrh.vl``, and the hop path reads the VL several times
per forwarded packet.  Likewise ``Link.serialization_ps(packet)`` is a
method call around one product the hop path computes inline
(``packet.wire_length * link.byte_time_ps``).

This checker fails CI when, in a hot-path module, code reads one of those
properties off a name or attribute called ``packet`` (per-event code in
these modules names its packet ``packet``) or calls
``serialization_ps(...)``.  Read ``packet.lrh.vl``, ``packet.lrh.dlid``,
``packet.lrh.slid`` and ``packet.deth.src_qp`` instead.

Allowed and therefore ignored: the known *cold* functions listed in
``COLD_FUNCTIONS``, which run a handful of times per simulation (as in
``check_observability.py``).

Usage::

    python tools/check_hot_reads.py            # checks hot-path modules
    python tools/check_hot_reads.py PATH...    # explicit files
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

#: Modules on the per-packet send, hop and receive paths.
DEFAULT_FILES = (
    "src/repro/iba/switch.py",
    "src/repro/iba/link.py",
    "src/repro/iba/buffers.py",
    "src/repro/iba/hca.py",
    "src/repro/core/keymgmt.py",
)

#: ``DataPacket`` properties that per-hop code must not read.
PACKET_PROPERTIES = {"vl", "dst", "src", "src_qp", "nonce"}

#: The method the hop path inlines.
INLINED_CALLS = {"serialization_ps"}

#: Known cold functions, exempt: they run O(1) times per simulation.
COLD_FUNCTIONS = {
    "_maybe_trap",  # hca.py: rate-limited P_Key trap to the SM
}


def _names_packet(node: ast.expr) -> bool:
    """True for ``packet`` and ``<anything>.packet``."""
    return (isinstance(node, ast.Name) and node.id == "packet") or (
        isinstance(node, ast.Attribute) and node.attr == "packet"
    )


class _HotReadVisitor(ast.NodeVisitor):
    """Collects property reads and inlined-method calls outside cold code."""

    def __init__(self) -> None:
        self.hits: list[tuple[int, str]] = []
        self._func_stack: list[str] = []

    def _visit_func(self, node) -> None:
        self._func_stack.append(node.name)
        self.generic_visit(node)
        self._func_stack.pop()

    visit_FunctionDef = _visit_func
    visit_AsyncFunctionDef = _visit_func

    def _cold(self) -> bool:
        return any(name in COLD_FUNCTIONS for name in self._func_stack)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if (
            node.attr in PACKET_PROPERTIES
            and _names_packet(node.value)
            and not self._cold()
        ):
            self.hits.append(
                (
                    node.lineno,
                    f"'packet.{node.attr}' property read on the hot path — "
                    "read the header field directly (packet.lrh.vl, "
                    "packet.lrh.dlid, packet.lrh.slid, packet.deth.src_qp)",
                )
            )
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        name = (
            func.attr if isinstance(func, ast.Attribute)
            else func.id if isinstance(func, ast.Name)
            else None
        )
        if name in INLINED_CALLS and not self._cold():
            self.hits.append(
                (
                    node.lineno,
                    f"'{name}()' call on the hot path — compute "
                    "packet.wire_length * link.byte_time_ps inline",
                )
            )
        self.generic_visit(node)


def find_hot_reads(path: Path) -> list[tuple[int, str]]:
    """Return (line, message) for every forbidden read or call in *path*."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    visitor = _HotReadVisitor()
    visitor.visit(tree)
    return visitor.hits


def check(files: list[Path]) -> int:
    failures = 0
    for f in files:
        for line, message in find_hot_reads(f):
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
        print(f"\n{failures} hot-path property read(s) found", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
