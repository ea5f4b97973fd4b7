"""The cyclic collector around a run: paused while the fabric is built,
frozen objects during the run, and the caller's collector state restored
whatever happens — one process, sharded, threaded, forked or raising."""

import ast
import gc
import multiprocessing as mp
import sys
import threading
import weakref
from pathlib import Path

import pytest

from repro.sim.config import EnforcementMode, SimConfig
from repro.sim.runner import build_experiment, run_simulation

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


def small(**overrides):
    base = dict(sim_time_us=20.0, warmup_us=0.0, seed=3)
    base.update(overrides)
    return SimConfig(**base)


def sharded(transport):
    return small(
        topology="fat_tree", fat_tree_k=4, shards=2, shard_transport=transport,
        num_partitions=2, partition_layout="pod",
        enforcement=EnforcementMode.SIF, num_attackers=1,
    )


def collector_state():
    return gc.isenabled(), gc.get_freeze_count()


@pytest.fixture
def restore_collector():
    """Leave the collector as the test found it, even when a test fails."""
    enabled = gc.isenabled()
    yield
    gc.unfreeze()
    if enabled:
        gc.enable()
    else:
        gc.disable()


class TestCallerStateRestored:
    @pytest.mark.parametrize("config", [
        small(),
        sharded("inline"),
        sharded("process"),
    ], ids=["one_process", "inline_shards", "process_shards"])
    def test_run_leaves_collector_as_found(self, config):
        before = collector_state()
        assert before == (True, 0)
        run_simulation(config)
        assert collector_state() == before

    def test_raising_setup_hook_leaves_collector_as_found(self):
        def setup(engine, fabric):
            assert collector_state() == (False, 0)  # paused while building
            raise RuntimeError("hook failed")

        before = collector_state()
        with pytest.raises(RuntimeError, match="hook failed"):
            run_simulation(small(), setup=setup)
        assert collector_state() == before

    def test_disabled_collector_stays_disabled(self, restore_collector):
        seen = []

        def setup(engine, fabric):
            engine.schedule(1, lambda: seen.append(collector_state()))

        gc.disable()
        run_simulation(small(), setup=setup)
        assert seen[0][0] is False  # not even re-enabled for the run
        assert seen[0][1] > 0
        assert collector_state() == (False, 0)

    def test_caller_freeze_is_left_alone(self, restore_collector):
        seen = []

        def setup(engine, fabric):
            engine.schedule(1, lambda: seen.append(collector_state()))

        gc.freeze()
        frozen = gc.get_freeze_count()
        assert frozen > 0
        run_simulation(small(), setup=setup)
        # frozen objects may be freed, but the run froze nothing more (its
        # fabric is thousands of objects) and unfroze nothing
        (enabled, during), = seen
        assert enabled is True
        assert 0 < during <= frozen
        assert gc.isenabled()
        assert 0 < gc.get_freeze_count() <= frozen

    def test_build_experiment_does_not_touch_collector(self):
        before = collector_state()
        built = build_experiment(small())
        assert collector_state() == before
        assert built[1].lids


class TestDuringTheRun:
    def test_built_objects_are_frozen_and_collector_runs(self):
        seen = []

        def setup(engine, fabric):
            seen.append(collector_state())
            engine.schedule(1, lambda: seen.append(collector_state()))

        run_simulation(small(), setup=setup)
        building, running = seen
        assert building == (False, 0)
        assert running[0] is True
        assert running[1] > 1000  # the fabric, not just a few objects

    def test_dead_run_is_still_collected(self):
        # the SM sits in the fabric's reference cycles (every HCA's trap
        # sink is an SM method), so only the collector frees it, and only
        # once the run has unfrozen it (Engine takes no weakref)
        refs = []

        def setup(engine, fabric):
            refs.append(weakref.ref(fabric.sm))

        report = run_simulation(small(), setup=setup)
        assert report.delivered > 0
        del report
        gc.collect()
        assert refs[0]() is None

    def test_back_to_back_runs_free_earlier_fabrics(self):
        # a sweep in one process never calls gc.collect(): a dead fabric
        # must not be frozen by the next run and so outlive every run after
        refs = []

        def setup(engine, fabric):
            refs.append(weakref.ref(fabric.sm))

        for seed in (1, 2, 3):
            run_simulation(small(seed=seed), setup=setup)
        assert refs[0]() is None
        assert refs[1]() is None


class TestConcurrentRuns:
    def test_threads_leave_collector_as_found(self):
        # more threads than cores, switching every microsecond, so scopes
        # enter and leave mid-build of one another; a lost update to the
        # shared scope counts would leave the collector off or frozen
        before = collector_state()
        errors = []

        def job(seed):
            try:
                for offset in range(3):
                    run_simulation(small(seed=seed + offset))
            except Exception as exc:  # pragma: no cover - reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=job, args=(s,)) for s in (1, 11, 21, 31)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert collector_state() == before

    def test_child_forked_mid_build_gets_callers_collector(self):
        # a child forked while its parent builds runs none of the parent's
        # run: it starts with the caller's collector, not a paused one
        ctx = mp.get_context("fork")
        seen = []

        def report(conn):
            conn.send(collector_state())
            conn.close()

        def setup(engine, fabric):
            parent, child = ctx.Pipe()
            proc = ctx.Process(target=report, args=(child,))
            proc.start()
            seen.append(parent.recv())
            proc.join(timeout=30)
            assert not proc.is_alive()

        run_simulation(small(), setup=setup)
        assert seen == [(True, 0)]


def test_only_the_runner_drives_the_collector():
    # one module owns pausing and freezing: any other caller of these
    # would fight the run's own scope over the process-wide collector
    owned = {"disable", "enable", "freeze", "unfreeze"}
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        if rel == "sim/runner.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (isinstance(node, ast.Attribute) and node.attr in owned
                    and isinstance(node.value, ast.Name) and node.value.id == "gc"):
                offenders.append(f"{rel}:{node.lineno} gc.{node.attr}")
            elif isinstance(node, ast.ImportFrom) and node.module == "gc":
                names = {alias.name for alias in node.names}
                if names & owned or "*" in names:
                    offenders.append(f"{rel}:{node.lineno} from gc import")
    assert offenders == []
    runner = (SRC / "sim" / "runner.py").read_text()
    assert "gc.freeze()" in runner  # the scan would pass vacuously otherwise
