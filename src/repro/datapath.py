"""The fast-vs-reference packet datapath flag.

The fast datapath is a set of caches that are all **bit-identical** to
recomputing from scratch:

* cached header/packet serialization (:mod:`repro.iba.packet`),
* prefix-folded ICRC/VCRC values (:mod:`repro.iba.crc`),
* the prepare→verify MAC tag memo (:mod:`repro.core.auth`),
* the Bloom-filter probe-position memo (:mod:`repro.core.bloom`).

They read one flag, :data:`fast`.  A run chooses its datapath with
``RunModes(datapath=...)`` (:class:`repro.sim.config.RunModes`), and
:func:`~repro.sim.runner.run_simulation` holds the flag there for the
run through :func:`held`.  The ``"reference"`` datapath (every cache off)
is the fuzz harness's oracle leg: the same scenario must produce
identical counters, stats and traces under both.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import TYPE_CHECKING, Iterator

if TYPE_CHECKING:
    from repro.sim.config import RunModes

#: True while the fast datapath's caches are in use.
fast = True


def get_datapath() -> str:
    """The datapath currently held (``"fast"`` outside any run)."""
    return "fast" if fast else "reference"


@contextmanager
def held(modes: RunModes) -> Iterator[None]:
    """Hold the flag at ``modes.datapath`` for the block, then restore it."""
    global fast
    prev = fast
    fast = modes.datapath == "fast"
    try:
        yield
    finally:
        fast = prev
