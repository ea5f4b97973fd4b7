"""The simulator benchmark: end to end, phase by phase, layer by layer.

    python3 perfbench/run.py --workload mesh_sif [--seed N] [--seconds S]
                             [--trace 0|1] [--smoke]

A closed loop with one client: each repetition is one ``run_simulation``
call on the workload's fixed ``SimConfig`` in a fresh interpreter
(``worker.py``), the next starting after the previous one returned.
Repetitions continue until ``--seconds`` of host time is spent (at least
three untraced ones, so set-up time is a median).

``--trace 0`` reports the end-to-end metrics (see ``REDUCE``).
``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics of the traced ones; the sharded workload also runs its
one-process twin (for the speedups) and the process transport.  ``--workload all`` runs every workload
in turn.  Every repetition's output is checked; the last stdout line is
one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

from spans import LAYERS, UNATTRIBUTED  # noqa: E402
from workloads import (  # noqa: E402
    DEFAULT_SEEDS, HORIZONS_US, WORKLOADS, single_process_twin,
)

#: End-to-end metrics (untraced): name -> unit.
END_TO_END = {"wall_s": "s", "setup_s": "s", "run_s": "s", "peak_rss_mb": "MiB"}

#: How a run reduces its repetitions to one value per end-to-end metric.
#: Other tenants only ever slow a repetition down, for stretches of up to
#: two minutes, so the fastest repetition of a 60 s run is the least
#: disturbed measurement of wall and run time: over ten seeds its spread
#: was 0.08-0.17 where the median's reached 0.32.  Set-up time stays a
#: median over the run's set-ups.
REDUCE = {"wall_s": min, "setup_s": statistics.median, "run_s": min,
          "peak_rss_mb": statistics.median}

#: Per-layer metrics (traced run): name -> unit.
PER_LAYER = {
    "engine.events": "count",
    "engine.self_s": "s",
    "engine.events_per_s": "1/s",
    "engine.pending_peak": "count",
    "link.self_s": "s",
    "link.sends": "count",
    "link.credit_returns": "count",
    "link.credit_events_per_return": "ratio",
    "switch.self_s": "s",
    "switch.receives": "count",
    "switch.pumps": "count",
    "switch.grants_per_pump": "ratio",
    "hca.self_s": "s",
    "hca.submits": "count",
    "hca.receives": "count",
    "hca.drops": "count",
    "auth.self_s": "s",
    "auth.tags": "count",
    "auth.verifies": "count",
    "auth.us_per_tag": "us",
    "traffic.self_s": "s",
    "traffic.ticks": "count",
    "enforcement.self_s": "s",
    "enforcement.lookups": "count",
    "enforcement.filtered": "count",
    "enforcement.traps": "count",
    "metrics.self_s": "s",
    "metrics.deliveries": "count",
    "build.fabric_s": "s",
    "build.wiring_s": "s",
    "build.replicas": "count",
    "shard.rounds": "count",
    "shard.messages": "count",
    "shard.busy_max_s": "s",
    "shard.coord_s": "s",
    "shard.us_per_round": "us",
    "shard.critical_path_speedup": "x",
    "shard.e2e_speedup": "x",
    "report.finish_s": "s",
    "trace.overhead": "x",
    "trace.unattributed_share": "ratio",
}

#: Repetition floor per invocation (smoke runs do one of each).
MIN_UNTRACED_REPS = 3
#: A repetition that has not returned by then counts as failed.
REP_TIMEOUT_S = 150.0

#: Environment variables that select a non-default run mode.
MODE_VARIABLES = {"REPRO_DATAPATH": "fast", "REPRO_SCHEDULER": "wheel",
                  "REPRO_OBSERVABILITY": "on"}

_CREDIT_CALLBACKS = ("repro.iba.link.Link._flush_credits",
                     "repro.iba.link.Link.return_credit")


class Reps:
    """Repetitions of one invocation: results, failures, digests."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []
        self.by_kind: dict[tuple[str, bool], list[dict]] = {}

    def run(self, workload: str, seed: int, traced: bool, smoke: bool,
            transport: str | None = None) -> None:
        """Run one repetition in a fresh interpreter.  *transport*
        overrides a sharded workload's; its results are kept under
        ``workload@transport``."""
        job = {"workload": workload, "seed": seed, "traced": traced, "smoke": smoke,
               "transport": transport}
        label = f"{workload}@{transport}" if transport else workload
        env = dict(os.environ)
        env["PYTHONPATH"] = str(ROOT / "src")
        self.attempted += 1
        try:
            proc = subprocess.run(
                [sys.executable, str(BENCH_DIR / "worker.py"), json.dumps(job)],
                cwd=ROOT, env=env, capture_output=True, text=True,
                timeout=REP_TIMEOUT_S, check=False,
            )
        except subprocess.TimeoutExpired:
            self.failures.append(f"{label} traced={traced}: timed out")
            return
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            self.failures.append(
                f"{label} traced={traced}: exit {proc.returncode}: "
                f"{proc.stderr.strip()[-400:]}")
            return
        rep = json.loads(lines[-1])
        check = rep["conservation"]
        if check is not None and not check["ok"]:
            self.failures.append(f"{label}: conservation violated: {check['detail']}")
            return
        self.by_kind.setdefault((label, traced), []).append(rep)

    def of(self, workload: str, traced: bool) -> list[dict]:
        return self.by_kind.get((workload, traced), [])

    def check_digests(self) -> None:
        """Every repetition of a workload, traced or not, must compute the
        same result as its first one; the others count as failed."""
        for w in sorted({w for w, _ in self.by_kind}):
            runs = self.of(w, False) + self.of(w, True)
            for r in runs[1:]:
                if r["digest"] != runs[0]["digest"]:
                    self.failures.append(
                        f"{w} traced={r['traced']}: result digest {r['digest']} "
                        f"!= {runs[0]['digest']}")


def medians(reps: list[dict], keys) -> dict[str, float]:
    return {k: statistics.median([r[k] for r in reps]) for k in keys}


def _calls(snap: dict, suffix: str) -> int:
    return sum(count for name, (count, _) in snap["calls"].items()
               if name.endswith(suffix))


def _inclusive(snap: dict, name: str) -> float:
    return snap["calls"].get(name, [0, 0.0])[1]


def layer_metrics(rep: dict, untraced: dict, twin: dict | None) -> dict[str, float]:
    """Per-layer metrics of one traced repetition.  Host-time rates and
    phase figures use the invocation's untraced medians (*untraced*, and
    *twin* for the sharded row's one-process counterpart)."""
    snap = rep["spans"]
    self_s = snap["self_s"]
    fires = {name: count for name, _, count in snap["callbacks"]}
    layer_fires = dict.fromkeys(LAYERS, 0)
    for _, layer_idx, count in snap["callbacks"]:
        layer_fires[LAYERS[layer_idx]] += count
    credit_returns = _calls(snap, "Link.return_credit")
    pumps = _calls(snap, "switch.link_on_free") + _calls(snap, "switch.link_on_credit")
    tags = _calls(snap, ".prepare")
    verifies = _calls(snap, ".verify")
    rounds = rep["rounds"]
    total_self = sum(self_s.values())
    base = twin if twin is not None else untraced
    return {
        "engine.events": rep["events"],
        "engine.self_s": self_s["engine"],
        "engine.events_per_s": rep["events"] / untraced["run_s"],
        "engine.pending_peak": snap["pending_peak"],
        "link.self_s": self_s["link"],
        "link.sends": _calls(snap, "Link.send"),
        "link.credit_returns": credit_returns,
        "link.credit_events_per_return":
            sum(fires.get(n, 0) for n in _CREDIT_CALLBACKS) / max(credit_returns, 1),
        "switch.self_s": self_s["switch"],
        "switch.receives": _calls(snap, "Switch.receive"),
        "switch.pumps": pumps,
        "switch.grants_per_pump": rep["forwarded"] / max(pumps, 1),
        "hca.self_s": self_s["hca"],
        "hca.submits": _calls(snap, "HCA.submit"),
        "hca.receives": _calls(snap, "HCA.receive"),
        "hca.drops": rep["hca_drops"],
        "auth.self_s": self_s["auth"],
        "auth.tags": tags,
        "auth.verifies": verifies,
        "auth.us_per_tag": self_s["auth"] * 1e6 / max(tags + verifies, 1),
        "traffic.self_s": self_s["traffic"],
        "traffic.ticks": layer_fires["traffic"],
        "enforcement.self_s": self_s["enforcement"],
        "enforcement.lookups": _calls(snap, "PortFilter.process"),
        "enforcement.filtered": rep["paper"]["switch_filtered"],
        "enforcement.traps": rep["traps"],
        "metrics.self_s": self_s["metrics"],
        "metrics.deliveries": _calls(snap, "MetricsCollector.record_delivery"),
        "build.fabric_s": _inclusive(snap, "build_fabric"),
        "build.wiring_s": (_inclusive(snap, "build_experiment")
                           - _inclusive(snap, "build_fabric")),
        "build.replicas": _calls(snap, "build_experiment"),
        "shard.rounds": rounds,
        "shard.messages": rep["messages"],
        "shard.busy_max_s": untraced["busy_max_s"],
        # shards advance one after another, so the coordinator's share is
        # the run phase less every shard's busy time
        "shard.coord_s": untraced["run_s"] - untraced["busy_sum_s"],
        "shard.us_per_round": untraced["run_s"] * 1e6 / max(rounds, 1),
        "shard.critical_path_speedup": base["run_s"] / untraced["busy_max_s"],
        "shard.e2e_speedup": base["wall_s"] / untraced["wall_s"],
        "report.finish_s": untraced["finish_s"],
        "trace.overhead": rep["wall_s"] / untraced["wall_s"],
        "trace.unattributed_share": self_s[UNATTRIBUTED] / total_self,
    }


_PHASES = ("wall_s", "setup_s", "run_s", "busy_max_s", "busy_sum_s", "finish_s")


def measure(workload: str, seed: int, seconds: float, traced: bool,
            smoke: bool, reps: Reps) -> None:
    """The closed loop: repetitions until *seconds* of host time are spent."""
    twin = single_process_twin(workload) if traced else None
    t_start = time.perf_counter()
    floor = 1 if (smoke or traced) else MIN_UNTRACED_REPS
    cycles = 0
    while True:
        t_cycle = time.perf_counter()
        reps.run(workload, seed, False, smoke)
        if traced:
            reps.run(workload, seed, True, smoke)
            if twin is not None:
                reps.run(twin, seed, False, smoke)
                reps.run(workload, seed, False, smoke, transport="process")
        cycles += 1
        now = time.perf_counter()
        if smoke or reps.failures:
            break
        if cycles >= floor and (now - t_start) + (now - t_cycle) > seconds:
            break


def summarize(workload: str, seed: int, traced: bool, smoke: bool,
              reps: Reps) -> dict[str, float]:
    """Print the human-readable report; return the metrics of the JSON line."""
    untraced = reps.of(workload, False)
    if not untraced:
        return {}
    first = untraced[0]
    paper = " ".join(f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}"
                     for k, v in first["paper"].items())
    modes = " ".join(f"{k}={v}" for k, v in first["modes"].items())
    print(f"[{workload}] seed={seed} horizon_us={HORIZONS_US[workload][smoke]:g} "
          f"modes: {modes}")
    print(f"[{workload}] digest={first['digest']} events={first['events']} {paper}")
    if first["conservation"] is not None:
        print(f"[{workload}] conservation ok: {first['conservation']['detail']}")
    e2e = {}
    for name, unit in END_TO_END.items():
        values = sorted(r[name] for r in untraced)
        e2e[name] = REDUCE[name](values)
        print(f"[{workload}] {name} = {e2e[name]:.6g} {unit} "
              f"({REDUCE[name].__name__} of {len(values)}; median "
              f"{statistics.median(values):.6g}, min {values[0]:.6g}, max {values[-1]:.6g})")
    print(f"[{workload}] runs_failed = {len(reps.failures)} of {reps.attempted} attempted")
    if not traced:
        return e2e
    phases = medians(untraced, _PHASES)
    twin_name = single_process_twin(workload)
    twin = None
    if twin_name is not None and reps.of(twin_name, False):
        twin_reps = reps.of(twin_name, False)
        twin = medians(twin_reps, _PHASES)
        # a reported fact, not a failure: same-instant ties may break
        # differently across shards.  Latency means are compared to a
        # relative 1e-9, since the merge sums per-shard accumulators.
        single = twin_reps[0]["paper"]
        differ = [k for k, v in first["paper"].items()
                  if abs(v - single.get(k, 0)) > 1e-9 * max(abs(v), 1)]
        print(f"[{workload}] shard.matches_single = {not differ} "
              + " ".join(f"{k}: {first['paper'][k]} sharded vs {single[k]} single"
                         for k in ("delivered", "switch_filtered"))
              + (f"; differing: {', '.join(differ)}" if differ else ""))
    per_rep = [layer_metrics(r, phases, twin) for r in reps.of(workload, True)]
    if not per_rep:
        return {}
    layers = medians(per_rep, PER_LAYER)
    self_total = sum(layers[f"{layer}.self_s"] for layer in
                     ("engine", "link", "switch", "hca", "auth", "traffic",
                      "enforcement", "metrics"))
    for name, unit in PER_LAYER.items():
        share = ""
        if name.endswith(".self_s") and self_total > 0:
            share = f"  ({layers[name] / self_total:.1%} of run-layer self time)"
        print(f"[{workload}] {name} = {layers[name]:.6g} {unit}{share}")
    process = reps.of(f"{workload}@process", False)
    if process:
        p = medians(process, _PHASES)
        rounds = process[0]["rounds"]
        wait = " ".join(f"{k}={v:.4g}s" for k, v in process[0]["driver_wait_s"].items())
        print(f"[{workload}] process transport (median of {len(process)}): "
              f"wall_s={p['wall_s']:.4g} setup_s={p['setup_s']:.4g} run_s={p['run_s']:.4g} "
              f"busy_sum_s={p['busy_sum_s']:.4g} coord_s={p['run_s'] - p['busy_sum_s']:.4g} "
              f"us_per_round={p['run_s'] * 1e6 / max(rounds, 1):.4g} "
              f"e2e_speedup={twin['wall_s'] / p['wall_s']:.4g} "
              f"peak_rss_mb={medians(process, ['peak_rss_mb'])['peak_rss_mb']:.4g} "
              f"same_digest={process[0]['digest'] == first['digest']}; "
              f"coordinator wait in driver calls: {wait}")
    return layers


def refuse_non_default_modes() -> str | None:
    for var, default in MODE_VARIABLES.items():
        value = os.environ.get(var)
        if value and value != default:
            return f"{var}={value} selects a non-default mode; unset it"
    return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the figure seed)")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny horizons, one repetition of each kind")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no simulator sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    problem = refuse_non_default_modes()
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    units = PER_LAYER if args.trace else END_TO_END
    metrics: dict[str, dict] = {}
    attempted = 0
    failures: list[str] = []
    for name in names:
        seed = args.seed if args.seed is not None else DEFAULT_SEEDS[name]
        reps = Reps()
        measure(name, seed, args.seconds, bool(args.trace), args.smoke, reps)
        reps.check_digests()
        values = summarize(name, seed, bool(args.trace), args.smoke, reps)
        prefix = f"{name}." if len(names) > 1 else ""
        for key, value in values.items():
            metrics[prefix + key] = {"value": value, "unit": units[key]}
        attempted += reps.attempted
        failures += reps.failures
    for problem in failures:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not failures and len(metrics) == len(names) * len(units),
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
