"""Tests of the benchmark itself: span arithmetic, layer-map coverage,
mode hygiene, and smoke runs of all four workloads.

Run from the repository root: ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from spans import (  # noqa: E402
    LAYERS, UNATTRIBUTED, SpanRecorder, layer_of_module, uninstall,
)
from workloads import BOUNDED, WORKLOADS, build_config  # noqa: E402


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def tick(self, seconds: float) -> None:
        self.now += seconds


def test_span_arithmetic_on_nested_call_tree():
    """engine(1 + link(2 + switch(3) + link(4)) + 1) + sibling hca(5)."""
    clock = FakeClock()
    rec = SpanRecorder(clock=clock)

    def inner_switch():
        clock.tick(3)

    def inner_link():
        clock.tick(4)

    def link():
        clock.tick(2)
        switch()
        nested_link()

    def engine():
        clock.tick(1)
        link_span()
        clock.tick(1)

    switch = rec.wrap(inner_switch, "switch", "Switch.receive")
    nested_link = rec.wrap(inner_link, "link", "Link.return_credit")
    link_span = rec.wrap(link, "link", "Link.send")
    rec.wrap(engine, "engine", "Engine.run")()
    rec.wrap(lambda: clock.tick(5), "hca", "HCA.submit")()

    self_s = dict(zip(LAYERS, rec.self_s))
    assert self_s["engine"] == 2
    assert self_s["link"] == 6  # 2 own + 4 in the nested same-layer span
    assert self_s["switch"] == 3
    assert self_s["hca"] == 5
    assert sum(rec.self_s) == clock.now  # self times partition the root spans
    assert rec.calls["Link.send"] == [1, 9.0]  # inclusive of its children
    assert rec.calls["Engine.run"] == [1, 11.0]
    assert rec.stack == []


def test_trampoline_charges_callback_layer_and_counts_fires():
    clock = FakeClock()
    rec = SpanRecorder(clock=clock)
    fire = rec.make_trampoline()

    class Source:  # a callback whose module maps to the traffic layer
        def tick(self, n):
            clock.tick(n)

    Source.tick.__module__ = "repro.sim.traffic"
    src = Source()
    key = rec.callback_key(src.tick)
    assert rec.callback_key(src.tick) == key  # one record per function
    outer = rec.wrap(lambda: (clock.tick(1), fire(key, src.tick, 2)), "engine", "run")
    outer()
    fire(rec.callback_key(print), lambda: clock.tick(7))  # builtin: no layer
    self_s = dict(zip(LAYERS, rec.self_s))
    assert self_s["engine"] == 1
    assert self_s["traffic"] == 2
    assert self_s[UNATTRIBUTED] == 7
    assert rec.callbacks[key][2] == 1


def test_layer_of_module():
    assert layer_of_module("repro.crypto.umac") == "auth"
    assert layer_of_module("repro.iba.crc") == "auth"
    assert layer_of_module("repro.sim.scheduler") == "engine"
    assert layer_of_module("repro.sim.engineering") == UNATTRIBUTED
    assert layer_of_module(None) == UNATTRIBUTED


def test_layer_map_covers_every_scheduled_callback():
    """Every module that hands ``Engine.schedule*`` a callback in the four
    workloads maps to a layer (the sharded workload's inline transport
    keeps its callbacks in this process)."""
    from repro.sim.runner import run_simulation

    rec = SpanRecorder()
    undo = rec.install()
    try:
        for name in WORKLOADS:
            run_simulation(build_config(name, 1, smoke=True))
    finally:
        uninstall(undo)
    names = {record[0] for record in rec.callbacks}
    unmapped = sorted(n for n, layer_idx, _ in rec.callbacks
                      if LAYERS[layer_idx] == UNATTRIBUTED)
    assert not unmapped, unmapped
    assert "repro.sim.shard.ShardRuntime._dispatch" in names
    assert "repro.iba.switch.Switch._pipeline_done" in names


def test_benchmark_json_names_match_run_py():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(BOUNDED)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def _bench(*args, env=None, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=600, check=False,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_all_workloads(trace):
    proc = _bench("--workload", "all", "--smoke", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], proc.stderr
    assert result["failed"] == 0
    names = run.PER_LAYER if trace == "1" else run.END_TO_END
    assert set(result["metrics"]) == {f"{w}.{n}" for w in WORKLOADS for n in names}
    if trace == "1":
        assert "shard.matches_single" in proc.stdout
        assert "process transport" in proc.stdout
        for w in WORKLOADS:
            assert result["metrics"][f"{w}.trace.unattributed_share"]["value"] == 0


def test_refuses_non_default_modes():
    env = dict(os.environ, REPRO_SCHEDULER="heap")
    proc = _bench("--workload", "mesh_sif", "--smoke", env=env)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_fails_without_simulator_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "mesh_sif", "--smoke", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
