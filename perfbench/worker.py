"""One benchmark repetition in a fresh interpreter.

Usage: ``python3 perfbench/worker.py '<job json>'`` with ``src`` on
``PYTHONPATH``.  The job names the workload, seed, smoke flag and whether
to trace.  The worker builds the workload's ``SimConfig``, times
``run_simulation`` phase by phase from outside (class-level wrappers
installed before the build), checks the output, and prints one JSON line.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import resource
import sys
import time

from workloads import build_config, is_sharded

#: Counters that hold host time, not simulated results.
_WALL_COUNTER_SUFFIX = "busy_seconds"


def result_digest(report) -> str:
    """Hash of everything the run computed: counters, drops, delivered,
    events and the per-class latency statistics."""
    counters = {k: v for k, v in report.counters.items()
                if not k.endswith(_WALL_COUNTER_SUFFIX)}
    stats = {
        name: [s.queuing_us, s.network_us, s.queuing_std_us, s.network_std_us, s.count]
        for name, s in report.stats.items()
    }
    payload = json.dumps(
        [counters, report.drops, report.delivered, report.events_processed, stats],
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def paper_numbers(report) -> dict:
    """The simulated statistics a speed-only change must leave unchanged."""
    out = {"delivered": report.delivered, "switch_filtered": report.switch_filtered}
    for name, s in sorted(report.stats.items()):
        out[f"{name}.queuing_us"] = s.queuing_us
        out[f"{name}.network_us"] = s.network_us
    return out


def conservation(report, fabric) -> tuple[bool, str]:
    """``check_conservation``'s identity: every submitted packet was
    delivered, dropped at an HCA, dropped by a switch, or is in flight."""
    from repro.fuzz.oracles import HCA_DROP_COUNTERS

    submitted = report.counter_total("hca.*.submitted")
    delivered = report.counter_total("hca.*.delivered")
    hca_drops = sum(report.counter_total(f"hca.*.{n}") for n in HCA_DROP_COUNTERS)
    switch_drops = (report.counter_total("switch.*.filtered_drops")
                    + report.counter_total("switch.*.unroutable_drops"))
    in_flight = fabric.in_flight_count()
    detail = (f"submitted={submitted} delivered={delivered} hca_drops={hca_drops} "
              f"switch_drops={switch_drops} in_flight={in_flight}")
    return submitted == delivered + hca_drops + switch_drops + in_flight, detail


def vm_hwm_kib(pid: int) -> int:
    """Peak resident set of a live process, from /proc (0 if unreadable)."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


class SinglePhases:
    """Phase clock of a one-process run: the ``setup=`` hook marks the end
    of the build, a wrapper on ``Engine.run`` brackets the run phase."""

    def __init__(self, recorder=None) -> None:
        self.recorder = recorder
        self.fabric = None
        self.setup_end = self.busy_start = self.run_end = 0.0

    def install(self) -> None:
        from repro.sim.engine import Engine

        run = Engine.__dict__["run"]
        phases = self

        def timed_run(engine, *args, **kwargs):
            phases.busy_start = time.perf_counter()
            try:
                return run(engine, *args, **kwargs)
            finally:
                phases.run_end = time.perf_counter()

        Engine.run = timed_run

    def setup(self, engine, fabric) -> None:
        self.fabric = fabric
        if self.recorder is not None:
            self.recorder.wrap_link_callbacks(fabric)
        self.setup_end = time.perf_counter()

    def numbers(self, t0: float, t_end: float) -> dict:
        return {
            "setup_s": self.setup_end - t0,
            "run_s": self.run_end - self.setup_end,
            "busy_max_s": self.run_end - self.busy_start,
            "busy_sum_s": self.run_end - self.busy_start,
            "finish_s": t_end - self.run_end,
        }


class ShardPhases:
    """Phase clock of a sharded run, from the coordinating process.

    Set-up ends when every shard has answered its first synchronisation
    (forked process-transport workers build their replicas in parallel;
    inline replicas are built one after another before it); the run phase
    ends at the first ``result`` request.  A process worker's peak RSS is
    read just before it is asked for its result.  With *time_calls* the
    coordinator's time inside the drivers' calls is accumulated too.
    """

    def __init__(self, config, time_calls: bool) -> None:
        self.shards = config.shards
        self.process = config.shard_transport == "process"
        self.time_calls = time_calls
        self.setup_end = self.run_end = 0.0
        self.worker_hwm_kib: dict[int, int] = {}
        self.wait_s = {"deliver_and_eot": 0.0, "advance": 0.0}

    def install(self) -> None:
        from repro.sim import shard

        driver_cls = shard._ProcessDriver if self.process else shard._InlineDriver
        sync = driver_cls.__dict__["deliver_and_eot"]
        advance = driver_cls.__dict__["advance"]
        result = driver_cls.__dict__["result"]
        answered: set[int] = set()
        phases = self

        def first_sync(driver, msgs):
            t = time.perf_counter()
            out = sync(driver, msgs)
            now = time.perf_counter()
            phases.wait_s["deliver_and_eot"] += now - t
            if len(answered) < phases.shards:
                answered.add(id(driver))
                if len(answered) == phases.shards:
                    phases.setup_end = now
                    if not phases.time_calls:
                        driver_cls.deliver_and_eot = sync  # untimed from here
            return out

        def timed_advance(driver, target):
            t = time.perf_counter()
            try:
                return advance(driver, target)
            finally:
                phases.wait_s["advance"] += time.perf_counter() - t

        def first_result(driver):
            if not phases.run_end:
                phases.run_end = time.perf_counter()
            if phases.process:
                phases.worker_hwm_kib[driver.shard_id] = vm_hwm_kib(driver.proc.pid)
            return result(driver)

        driver_cls.deliver_and_eot = first_sync
        driver_cls.result = first_result
        if self.time_calls:
            driver_cls.advance = timed_advance

    def numbers(self, t0: float, t_end: float, report) -> dict:
        busy = [v for k, v in sorted(report.counters.items())
                if k.startswith("shard.") and k.endswith("." + _WALL_COUNTER_SUFFIX)]
        return {
            "setup_s": self.setup_end - t0,
            "run_s": self.run_end - self.setup_end,
            "busy_max_s": max(busy),
            "busy_sum_s": sum(busy),
            "busy_s": busy,
            "finish_s": t_end - self.run_end,
        }


def _span_shard_link_callbacks(recorder) -> None:
    """Sharded runs take no ``setup=`` hook: span each replica's link
    callbacks when its runtime is built."""
    from repro.sim.shard import ShardRuntime

    init = ShardRuntime.__dict__["__init__"]

    def traced_init(runtime, *args, **kwargs):
        init(runtime, *args, **kwargs)
        recorder.wrap_link_callbacks(runtime.fabric)

    ShardRuntime.__init__ = traced_init


def modes() -> dict:
    from repro.datapath import get_datapath
    from repro.observability import observability_enabled
    from repro.sim.scheduler import get_scheduler

    return {"datapath": get_datapath(), "scheduler": get_scheduler(),
            "observability": observability_enabled()}


DEFAULT_MODES = {"datapath": "fast", "scheduler": "wheel", "observability": True}


def run_job(job: dict) -> dict:
    from repro.sim.runner import run_simulation

    name = job["workload"]
    traced = bool(job["traced"])
    config = build_config(name, job["seed"], smoke=job["smoke"])
    if job.get("transport"):
        config.shard_transport = job["transport"]
    run_modes = modes()
    if run_modes != DEFAULT_MODES:
        raise SystemExit(f"non-default run modes {run_modes}; unset REPRO_* variables")

    recorder = None
    if traced:
        from spans import SpanRecorder

        recorder = SpanRecorder()
        recorder.install()
    sharded = is_sharded(name)
    if sharded:
        phases = ShardPhases(config, time_calls=traced or config.shard_transport == "process")
        if traced:
            _span_shard_link_callbacks(recorder)
    else:
        phases = SinglePhases(recorder)
    phases.install()

    gc.collect()
    t0 = time.perf_counter()
    if sharded:
        report = run_simulation(config)
    else:
        report = run_simulation(config, setup=phases.setup)
    t_end = time.perf_counter()
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    out = {
        "workload": name,
        "seed": job["seed"],
        "traced": traced,
        "modes": run_modes,
        "wall_s": t_end - t0,
        "digest": result_digest(report),
        "paper": paper_numbers(report),
        "events": report.events_processed,
        "forwarded": int(report.counter_total("switch.*.forwarded")),
        "traps": int(report.counter("sm.traps_received")),
        "hca_drops": sum(report.drops.values()),
        "rounds": int(report.counter("shard.rounds")),
        "messages": int(report.counter_total("shard.*.messages_out")),
    }
    if sharded:
        out.update(phases.numbers(t0, t_end, report))
        out["peak_rss_mb"] = (rss_kib + sum(phases.worker_hwm_kib.values())) / 1024
        out["driver_wait_s"] = phases.wait_s
        out["transport"] = config.shard_transport
        out["conservation"] = None  # replicas hold partial state
    else:
        out.update(phases.numbers(t0, t_end))
        out["peak_rss_mb"] = rss_kib / 1024
        ok, detail = conservation(report, phases.fabric)
        out["conservation"] = {"ok": ok, "detail": detail}
    if traced:
        out["spans"] = recorder.snapshot()
    return out


def main(argv: list[str]) -> None:
    job = json.loads(argv[1])
    print(json.dumps(run_job(job)), flush=True)
    # Skip interpreter teardown: freeing a k=16 fabric object by object
    # takes up to a second, and the shard workers are already joined.
    os._exit(0)


if __name__ == "__main__":
    main(sys.argv)
