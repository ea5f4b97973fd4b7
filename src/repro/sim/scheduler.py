"""The benchmark's label for the engine's one event queue.

The engine has a single binary-heap queue (:mod:`repro.sim.engine`);
:func:`get_scheduler` stays only because the benchmark's mode check
imports it and expects ``"wheel"``.  It goes when that check goes.
"""


def get_scheduler() -> str:
    return "wheel"
