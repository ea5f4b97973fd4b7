"""The crash-isolated runner: one forked child per item, a retry charged
only to the item whose child died, and no child left behind."""

import multiprocessing
import os
import time

import pytest

from repro.sim.isolation import (
    ChildTraceback,
    IsolationStats,
    WorkerCrashError,
    run_isolated,
)


def _square(x):
    time.sleep(0.01 * (x % 3))
    return x * x


def _raise_value_error(x):
    raise ValueError(f"bad item {x}")


def _unpicklable(x):
    return lambda: x


def _die_on_two(x):
    if x == 2:
        os._exit(13)
    return x


def test_yields_every_item_and_bounds_live_children():
    seen = {}
    for index, result in run_isolated(_square, range(7), 3, IsolationStats()):
        assert len(multiprocessing.active_children()) <= 3
        seen[index] = result
    assert seen == {i: i * i for i in range(7)}
    assert multiprocessing.active_children() == []


def test_exception_is_reraised_with_the_child_frame():
    with pytest.raises(ValueError, match="bad item") as info:
        list(run_isolated(_raise_value_error, [1, 2, 3], 2, IsolationStats()))
    cause = info.value.__cause__
    assert isinstance(cause, ChildTraceback)
    assert cause.frames[-1].filename == __file__
    assert cause.frames[-1].name == "_raise_value_error"
    assert multiprocessing.active_children() == []


def test_unpicklable_result_is_a_failure_not_a_crash():
    stats = IsolationStats()
    with pytest.raises((AttributeError, TypeError), match="pickle"):
        list(run_isolated(_unpicklable, [1], 1, stats))
    assert stats.retried == 0


def test_second_death_names_the_item_and_charges_no_other():
    stats = IsolationStats()
    done = []
    with pytest.raises(WorkerCrashError, match="item 2"):
        for index, _ in run_isolated(_die_on_two, [0, 1, 2, 3], 2, stats):
            done.append(index)
    assert stats.retried == 1  # item 2's first death; no other item retried
    assert 2 not in done
    assert multiprocessing.active_children() == []


def test_closing_early_terminates_running_children():
    runs = run_isolated(_square, range(6), 2, IsolationStats())
    next(runs)
    runs.close()
    assert multiprocessing.active_children() == []
