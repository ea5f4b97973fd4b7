"""Command-line interface: run experiments and regenerate paper artifacts.

Usage (installed as ``repro-sim`` or via ``python -m repro.cli``)::

    repro-sim run --attackers 2 --load 0.5 --enforcement sif
    repro-sim trace --jsonl events.jsonl
    repro-sim trace --packet 1
    repro-sim fig1 --panel best_effort
    repro-sim fig5
    repro-sim fig6
    repro-sim bakeoff4 --fp-sweep
    repro-sim table2
    repro-sim table3
    repro-sim table4
    repro-sim serve-metrics --port 8123
    repro-sim serve --port 8200 --workers 4
    repro-sim soak --clients 8
    repro-sim fuzz --runs 25 --seed 0 --shrink --corpus fuzz_corpus/
"""

from __future__ import annotations

import argparse
import enum
import sys

from repro.sim.config import AuthMode, EnforcementMode, KeyMgmtMode, SimConfig


def _choices(mode: type[enum.Enum]) -> list[str]:
    """The flag spellings of *mode*: its members' values, in enum order."""
    return [m.value for m in mode]


def _add_run(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("run", help="one simulation with explicit knobs")
    p.add_argument("--sim-time-us", type=float, default=1000.0)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--attackers", type=int, default=0)
    p.add_argument("--load", type=float, default=0.4, help="best-effort injection (fraction of link bw)")
    p.add_argument("--realtime-load", type=float, default=0.1)
    p.add_argument(
        "--enforcement", choices=_choices(EnforcementMode), default="none"
    )
    p.add_argument(
        "--auth", choices=_choices(AuthMode), default="icrc",
    )
    p.add_argument("--keymgmt", choices=_choices(KeyMgmtMode), default="none")
    p.add_argument("--replay-protection", action="store_true")
    p.add_argument(
        "--topology", choices=["mesh", "fat_tree"], default="mesh",
        help="fabric shape (fat_tree required for --shards > 1)",
    )
    p.add_argument(
        "--fat-tree-k", type=int, default=4,
        help="fat-tree arity (hosts = k^3/4); ignored for mesh",
    )
    p.add_argument(
        "--shards", type=int, default=1,
        help="space-partition the run across N shard engines "
        "(must divide --fat-tree-k; see DESIGN.md 3j)",
    )
    p.add_argument(
        "--shard-transport", choices=["inline", "process"], default="inline",
        help="inline = all shard engines in this process; "
        "process = one forked worker per shard",
    )


def _add_trace(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser(
        "trace",
        help="run one traced simulation; print SIF/packet timelines, export JSONL",
        description=(
            "Runs a SIF-enforced DoS scenario with the event-bus tracer "
            "attached.  The defaults produce the paper's full Section-3.3 "
            "lifecycle — trap raised, filter activated, flood dropped at the "
            "ingress, idle timeout, filter self-disabled — in one run."
        ),
    )
    p.add_argument("--sim-time-us", type=float, default=1200.0)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--attackers", type=int, default=1)
    p.add_argument("--load", type=float, default=0.3, help="best-effort injection (fraction of link bw)")
    p.add_argument(
        "--enforcement", choices=_choices(EnforcementMode), default="sif"
    )
    p.add_argument(
        "--duty-cycle", type=float, default=0.12,
        help="fraction of the run the attack is active (bursty by default so the SIF idle timeout fires)",
    )
    p.add_argument("--attack-window-us", type=float, default=40.0)
    p.add_argument(
        "--sif-idle-timeout-us", type=float, default=100.0,
        help="SIF self-disable timeout (short by default so deactivation is visible)",
    )
    p.add_argument(
        "--jsonl", metavar="PATH",
        help="write every trace event as one JSON object per line ('-' = stdout)",
    )
    p.add_argument(
        "--packet", type=int, metavar="ID",
        help="print the per-packet timeline for this packet id (ids are per "
        "run: 1 is the run's first admitted packet); exit 1 if it has no events",
    )
    p.add_argument(
        "--max-events", type=int, default=None,
        help="ring-buffer bound: keep only the newest N trace events",
    )


def _add_sweep_flags(p: argparse.ArgumentParser) -> None:
    """Parallel-execution and run-cache knobs shared by the sweep figures."""
    p.add_argument(
        "--workers", type=int, default=1,
        help="process-pool size for sweep execution (1 = in-process)",
    )
    p.add_argument(
        "--no-cache", action="store_true",
        help="always simulate; do not read or write the run cache",
    )
    p.add_argument(
        "--cache-dir", default=".sweep_cache",
        help="run-cache directory (default: .sweep_cache)",
    )
    p.add_argument(
        "--progress", action="store_true",
        help="print per-point progress lines and a sweep profile chart",
    )
    p.add_argument(
        "--seeds", type=int, default=None, metavar="N",
        help="Monte Carlo replications per grid point (seeds 11..11+N-1); "
        "stats pool across seeds and bars gain 95%% CI whiskers",
    )
    p.add_argument(
        "--mc", action="store_true",
        help="shorthand for --seeds 5 (when --seeds is not given)",
    )


def _add_serve_metrics(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser(
        "serve-metrics",
        help="run a simulation with a live HTTP metrics endpoint attached",
        description=(
            "Runs a DoS simulation while serving live counter and trace "
            "snapshots as JSON over stdlib http.server (/metrics, /counters, "
            "/healthz).  Poll it from another terminal while the run is in "
            "flight; after the clock drains the server stays up for "
            "--linger-s seconds so the final state can be scraped."
        ),
    )
    p.add_argument("--port", type=int, default=8123, help="bind port (0 = ephemeral)")
    p.add_argument("--sim-time-us", type=float, default=5000.0)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--attackers", type=int, default=1)
    p.add_argument("--load", type=float, default=0.4, help="best-effort injection (fraction of link bw)")
    p.add_argument(
        "--enforcement", choices=_choices(EnforcementMode), default="sif"
    )
    p.add_argument(
        "--linger-s", type=float, default=0.0,
        help="keep serving this many seconds after the simulation completes",
    )


def _add_serve(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser(
        "serve",
        help="run the simulation job service (POST scenarios, poll results)",
        description=(
            "Serves the admission-controlled job API over stdlib http.server: "
            "POST a fuzz-scenario JSON to /jobs (schema repro.fuzz_scenario/1, "
            "unknown keys rejected), poll GET /jobs/<id>, fetch "
            "/jobs/<id>/report and /jobs/<id>/trace.  Results are "
            "content-addressed into the sweep run cache, so duplicate "
            "submissions answer instantly.  SIGINT/SIGTERM drains "
            "gracefully: running jobs finish, new submissions get 503."
        ),
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8200, help="bind port (0 = ephemeral)")
    p.add_argument("--workers", type=int, default=2, help="concurrent simulation workers")
    p.add_argument("--queue-depth", type=int, default=32, help="job backlog bound (429 beyond it)")
    p.add_argument(
        "--rate", type=float, default=5.0,
        help="per-client token-bucket refill (submissions/s)",
    )
    p.add_argument("--burst", type=int, default=10, help="per-client token-bucket capacity")
    p.add_argument("--cache-dir", default=".sweep_cache", help="content-addressed result cache")
    p.add_argument(
        "--no-subprocess", action="store_true",
        help="run jobs in worker threads instead of subprocesses (no crash isolation)",
    )
    p.add_argument(
        "--max-sim-time-us", type=float, default=60_000.0,
        help="reject scenarios with a longer simulated horizon",
    )


def _add_soak(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser(
        "soak",
        help="concurrency soak of the job service (exit 1 on any discrepancy)",
        description=(
            "Starts an in-process job service and hammers it over HTTP from "
            "N concurrent clients plus a rate-limit flooder, mixing fresh, "
            "duplicate, and malformed submissions.  Audits the books "
            "afterwards: no lost jobs, client-observed 400/429/503 counts "
            "equal to the server's counters, byte-identical duplicate "
            "reports, bounded queue depth, clean drain."
        ),
    )
    p.add_argument("--clients", type=int, default=8, help="concurrent well-behaved clients")
    p.add_argument("--workers", type=int, default=2)
    p.add_argument("--queue-depth", type=int, default=64)
    p.add_argument("--sim-time-us", type=float, default=50.0, help="horizon of each soak scenario")
    p.add_argument(
        "--subprocess", action="store_true",
        help="execute soak jobs in subprocesses (slower; exercises isolation)",
    )
    p.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="reuse this result cache (default: fresh temp dir per run)",
    )


def _add_fuzz(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser(
        "fuzz",
        help="differential fuzzing: random scenarios vs the invariant oracles",
        description=(
            "Generates seed-deterministic scenarios (random topology, "
            "partitions, traffic, attackers, faults, wire tampering, forged "
            "injections), runs each one, and checks the invariant "
            "catalogue: packet conservation, counter/trace consistency, "
            "SIF state-machine legality, and auth soundness (SIF scenarios "
            "also re-run with a shadow Bloom filter).  Exits non-zero on "
            "any violation."
        ),
    )
    p.add_argument("--runs", type=int, default=25, help="scenarios to generate")
    p.add_argument("--seed", type=int, default=0, help="master seed")
    p.add_argument(
        "--shrink", action="store_true",
        help="minimize each failing scenario before reporting/saving it",
    )
    p.add_argument(
        "--corpus", metavar="DIR",
        help="save failing scenarios (minimized when --shrink) as replayable JSON here",
    )
    p.add_argument(
        "--replay", metavar="PATH",
        help="re-run one saved corpus/repro entry instead of generating scenarios",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-sim",
        description="Security Enhancement in InfiniBand Architecture — reproduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _add_run(sub)
    _add_trace(sub)
    fig1 = sub.add_parser("fig1", help="Figure 1: DoS queuing/latency series")
    fig1.add_argument("--panel", choices=["realtime", "best_effort", "both"], default="both")
    fig1.add_argument("--sim-time-us", type=float, default=1500.0)
    fig5 = sub.add_parser("fig5", help="Figure 5: enforcement comparison bars")
    fig5.add_argument("--sim-time-us", type=float, default=6000.0)
    _add_sweep_flags(fig5)
    fig6 = sub.add_parser("fig6", help="Figure 6: auth overhead rows")
    fig6.add_argument("--sim-time-us", type=float, default=2500.0)
    _add_sweep_flags(fig6)
    bakeoff = sub.add_parser(
        "bakeoff4",
        help="four-way DPT/IF/SIF/Bloom bake-off by memory footprint",
        description=(
            "Re-runs the Figure-5 DoS scenario with the Bloom design in the "
            "line-up and reports each mode's per-port filtering state size "
            "(with its implied SRAM access time) next to the latency it "
            "buys; optionally also sweeps the Bloom array size along a "
            "target false-positive-rate axis."
        ),
    )
    bakeoff.add_argument("--sim-time-us", type=float, default=6000.0)
    bakeoff.add_argument("--bloom-bits", type=int, default=1024)
    bakeoff.add_argument("--bloom-hashes", type=int, default=4)
    bakeoff.add_argument(
        "--attack-window-us", type=float, default=100.0,
        help="attack burst width; period is window/duty, so shrink this "
        "for short horizons",
    )
    bakeoff.add_argument(
        "--fp-sweep", action="store_true",
        help="also sweep bloom_bits along the target fp-rate axis",
    )
    _add_sweep_flags(bakeoff)
    sub.add_parser("table2", help="Table 2: enforcement overhead model")
    sub.add_parser("table3", help="Table 3: executable threat matrix")
    table4 = sub.add_parser("table4", help="Table 4: MAC time & forgery complexity")
    table4.add_argument("--no-measure", action="store_true", help="skip Python timing")
    _add_serve_metrics(sub)
    _add_serve(sub)
    _add_soak(sub)
    _add_fuzz(sub)
    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.sim.runner import run_simulation

    keymgmt = KeyMgmtMode(args.keymgmt)
    auth = AuthMode(args.auth)
    if auth is not AuthMode.ICRC and keymgmt is KeyMgmtMode.NONE:
        keymgmt = KeyMgmtMode.PARTITION  # sensible default for keyed MACs
    cfg = SimConfig(
        sim_time_us=args.sim_time_us,
        seed=args.seed,
        num_attackers=args.attackers,
        best_effort_load=args.load,
        realtime_load=args.realtime_load,
        enforcement=EnforcementMode(args.enforcement),
        auth=auth,
        keymgmt=keymgmt,
        replay_protection=args.replay_protection,
        topology=args.topology,
        fat_tree_k=args.fat_tree_k,
        shards=args.shards,
        shard_transport=args.shard_transport,
    )
    cfg.validate()
    report = run_simulation(cfg)
    print(report.summary())
    print(
        f"delivered={report.delivered} switch_filtered={report.switch_filtered} "
        f"traps={report.traps_processed} key_exchanges={report.key_exchanges} "
        f"events={report.events_processed} wall={report.wall_seconds:.2f}s "
        f"(build={report.build_seconds:.2f}s run={report.run_seconds:.2f}s"
        f"{_peak_rss_field()})"
    )
    return 0


def _peak_rss_field() -> str:
    """`` peak_rss=<MiB>MiB``: this process's peak resident set so far, or
    "" where the platform has no ``resource`` module.  Printed only; the
    report (and so its digest) never carries it."""
    try:
        import resource
    except ImportError:
        return ""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss is KiB on Linux and bytes on macOS.
    mib = peak / 2**20 if sys.platform == "darwin" else peak / 2**10
    return f" peak_rss={mib:.1f}MiB"


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.analysis.charts import packet_timeline, sif_timeline
    from repro.sim.runner import run_simulation
    from repro.sim.trace import Tracer

    cfg = SimConfig(
        sim_time_us=args.sim_time_us,
        seed=args.seed,
        num_attackers=args.attackers,
        best_effort_load=args.load,
        enforcement=EnforcementMode(args.enforcement),
        attack_duty_cycle=args.duty_cycle,
        attack_window_us=args.attack_window_us,
        sif_idle_timeout_us=args.sif_idle_timeout_us,
    )
    cfg.validate()
    tracer = Tracer(max_events=args.max_events)
    fabrics = []
    report = run_simulation(
        cfg, tracer=tracer, setup=lambda engine, fabric: fabrics.append(fabric)
    )

    if args.jsonl == "-":
        for line in tracer.jsonl_lines():
            print(line)
        return 0
    if args.jsonl:
        n = tracer.to_jsonl(args.jsonl)
        print(f"wrote {n} events to {args.jsonl}")

    print(report.summary())
    kinds = tracer.kinds()
    print(
        "trace: "
        + ", ".join(f"{k}={v}" for k, v in sorted(kinds.items()))
        + (f"  (ring buffer kept {len(tracer.events)}/{tracer.seen})" if tracer.truncated else "")
    )
    print()
    print(sif_timeline(tracer.events, title="SIF activation timeline"))
    if args.packet is not None:
        print()
        print(packet_timeline(tracer.events, args.packet))
        if not tracer.for_packet(args.packet):
            print(
                f"this run admitted packet ids 1..{fabrics[0].packet_ids.last};"
                f" the ring buffer evicted {tracer.seen - len(tracer.events)}"
                f" of {tracer.seen} events"
            )
            return 1
    return 0


def _cmd_fig1(args: argparse.Namespace) -> int:
    from repro.experiments.fig1_dos import format_fig1, run_fig1

    panels = ["realtime", "best_effort"] if args.panel == "both" else [args.panel]
    for panel in panels:
        points = run_fig1(panel, sim_time_us=args.sim_time_us)
        print(format_fig1(panel, points))
        print()
    return 0


def _sweep_kwargs(args: argparse.Namespace, events: list, first_seed: int = 11) -> dict:
    """A figure's sweep keywords from the shared sweep flags; progress
    records land in *events*, and --seeds/--mc replicate from *first_seed*."""
    def on_point(event) -> None:
        events.append(event)
        if args.progress:
            print(event, flush=True)

    kwargs = {
        "workers": args.workers,
        "cache": None if args.no_cache else args.cache_dir,
        "progress": on_point,
    }
    n = args.seeds if args.seeds is not None else (5 if args.mc else None)
    if n is not None:
        if n < 1:
            raise SystemExit("--seeds must be >= 1")
        kwargs["seeds"] = tuple(range(first_seed, first_seed + n))
    return kwargs


def _print_sweep_profile(
    args: argparse.Namespace, events: list, title: str = "sweep execution profile"
) -> None:
    if args.progress and events:
        from repro.analysis.charts import sweep_progress_chart

        print()
        print(sweep_progress_chart(events, title=title))


def _print_ci_band(rows: list, label) -> None:
    """The total-delay 95 % CI band of a multi-seed figure; *rows* carry
    ``total_us``, ``total_ci_half_us`` and ``n_seeds``."""
    if not any(r.n_seeds > 1 for r in rows):
        return
    from repro.analysis.charts import error_band_chart

    print()
    print(error_band_chart(
        [
            (label(r), r.total_us,
             r.total_us - r.total_ci_half_us, r.total_us + r.total_ci_half_us)
            for r in rows
        ],
        title=f"total delay with 95% CI ({rows[0].n_seeds} seeds)",
    ))


def _cmd_fig5(args: argparse.Namespace) -> int:
    from repro.experiments.fig5_enforcement import format_fig5, run_fig5

    events: list = []
    bars = run_fig5(sim_time_us=args.sim_time_us, **_sweep_kwargs(args, events))
    print(format_fig5(bars))
    _print_ci_band(bars, lambda b: f"{b.input_load:.0%} {b.mode}")
    _print_sweep_profile(args, events)
    return 0


def _cmd_fig6(args: argparse.Namespace) -> int:
    from repro.experiments.fig6_auth import format_fig6, run_fig6

    events: list = []
    points = run_fig6(
        sim_time_us=args.sim_time_us, **_sweep_kwargs(args, events, first_seed=17)
    )
    print(format_fig6(points))
    _print_ci_band(
        points, lambda p: f"{p.input_load:.0%} {'keyed' if p.with_key else 'nokey'}"
    )
    _print_sweep_profile(args, events)
    return 0


def _cmd_bakeoff4(args: argparse.Namespace) -> int:
    from repro.experiments.bakeoff4 import (
        format_bakeoff4,
        format_bloom_fp_sweep,
        run_bakeoff4,
        run_bloom_fp_sweep,
    )

    events: list = []
    rows = run_bakeoff4(
        sim_time_us=args.sim_time_us,
        bloom_bits=args.bloom_bits,
        bloom_hashes=args.bloom_hashes,
        attack_window_us=args.attack_window_us,
        **_sweep_kwargs(args, events),
    )
    print(format_bakeoff4(rows))
    _print_ci_band(rows, lambda r: f"{r.input_load:.0%} {r.mode}")
    _print_sweep_profile(args, events)
    if args.fp_sweep:
        # its own event list: both sweeps index their points from 0
        fp_events: list = []
        fp_rows = run_bloom_fp_sweep(
            sim_time_us=args.sim_time_us,
            bloom_hashes=args.bloom_hashes,
            attack_window_us=args.attack_window_us,
            **_sweep_kwargs(args, fp_events),
        )
        print()
        print(format_bloom_fp_sweep(fp_rows))
        _print_sweep_profile(args, fp_events, title="fp-rate sweep execution profile")
    return 0


def _cmd_table2(args: argparse.Namespace) -> int:
    from repro.experiments.table2_overhead import format_table2, run_table2

    print(format_table2(run_table2()))
    return 0


def _cmd_table3(args: argparse.Namespace) -> int:
    from repro.core.threats import format_matrix, run_threat_matrix

    print(format_matrix(run_threat_matrix()))
    return 0


def _cmd_table4(args: argparse.Namespace) -> int:
    from repro.experiments.table4_macs import format_table4, run_table4

    print(format_table4(run_table4(measure=not args.no_measure)))
    return 0


def _install_stop_signals(message: str, *signals_to_trap: int):
    """Route SIGTERM/SIGINT to KeyboardInterrupt so ``with server:`` blocks
    unwind through their normal stop path.  Returns an undo callable; a
    no-op off the main thread (signal handlers are main-thread-only)."""
    import signal
    import threading

    if threading.current_thread() is not threading.main_thread():
        return lambda: None

    def _handler(signum: int, frame) -> None:
        print(f"received {signal.Signals(signum).name}: {message}", flush=True)
        raise KeyboardInterrupt

    previous = [(s, signal.signal(s, _handler)) for s in signals_to_trap]

    def _undo() -> None:
        for sig, old in previous:
            signal.signal(sig, old)

    return _undo


def _cmd_serve_metrics(args: argparse.Namespace) -> int:
    import signal
    import time as _time

    from repro.sim.metrics_server import MetricsServer
    from repro.sim.runner import build_experiment
    from repro.sim.trace import Tracer

    cfg = SimConfig(
        sim_time_us=args.sim_time_us,
        seed=args.seed,
        num_attackers=args.attackers,
        best_effort_load=args.load,
        enforcement=EnforcementMode(args.enforcement),
    )
    cfg.validate()
    tracer = Tracer(max_events=1000)
    engine, fabric, *_ = build_experiment(cfg, tracer=tracer)
    undo_signals = _install_stop_signals("stopping metrics server", signal.SIGTERM)
    try:
        with MetricsServer(engine, fabric.registry, tracer, port=args.port) as server:
            print(f"serving metrics at {server.url}/metrics  (sim horizon {args.sim_time_us} us)")
            try:
                engine.run(until=cfg.sim_time_ps)
                print(
                    f"simulation complete: events={engine.events_processed} "
                    f"delivered={fabric.metrics.delivered}"
                )
                if args.linger_s > 0:
                    print(f"serving final state for {args.linger_s:.0f}s more...")
                    _time.sleep(args.linger_s)
            except KeyboardInterrupt:
                print(
                    f"interrupted at t={engine.now_us:.1f} us: "
                    f"events={engine.events_processed}"
                )
    finally:
        undo_signals()
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import signal

    from repro.service.api import JobService, ServiceConfig

    service = JobService(ServiceConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        queue_depth=args.queue_depth,
        rate_per_s=args.rate,
        burst=args.burst,
        cache_dir=args.cache_dir,
        use_subprocess=not args.no_subprocess,
        max_sim_time_us=args.max_sim_time_us,
    ))
    undo_signals = _install_stop_signals(
        "draining (running jobs finish; new submissions get 503)",
        signal.SIGTERM, signal.SIGINT,
    )
    try:
        url = service.start()
        print(
            f"serving jobs at {url}/jobs  "
            f"(workers={args.workers}, queue depth {args.queue_depth}, "
            f"{args.rate:g}/s x{args.burst} per client, cache {args.cache_dir})"
        )
        print("POST a scenario JSON to /jobs; poll /jobs/<id>; ctrl-C to drain")
        try:
            while True:
                signal.pause()
        except KeyboardInterrupt:
            pass
        service.close()
        counters = service.registry.snapshot()
        print(
            f"drained: completed={counters.get('service.completed', 0)} "
            f"failed={counters.get('service.failed', 0)} "
            f"cache_hits={counters.get('service.cache_hits', 0)}"
        )
    finally:
        undo_signals()
        service.stop()
    return 0


def _cmd_soak(args: argparse.Namespace) -> int:
    from repro.experiments.soak_service import SoakConfig, format_soak, run_soak

    report = run_soak(SoakConfig(
        clients=args.clients,
        workers=args.workers,
        queue_depth=args.queue_depth,
        sim_time_us=args.sim_time_us,
        use_subprocess=args.subprocess,
        cache_dir=args.cache_dir,
    ))
    print(format_soak(report))
    return 0 if report.ok else 1


def _cmd_fuzz(args: argparse.Namespace) -> int:
    from repro.fuzz.corpus import entry_for, load_entry, save_entry, scenario_of
    from repro.fuzz.generators import generate_scenario
    from repro.fuzz.oracles import run_scenario
    from repro.fuzz.shrink import shrink_failure

    if args.replay:
        entry = load_entry(args.replay)
        scenario = scenario_of(entry)
        result = run_scenario(scenario)
        if result.ok:
            print(f"ok   {scenario.summary()}  (repro no longer fails)")
            return 0
        print(f"FAIL {scenario.summary()}")
        for violation in result.violations:
            print(f"     {violation}")
        return 1

    failures = 0
    for index in range(args.runs):
        scenario = generate_scenario(args.seed, index)
        result = run_scenario(scenario)
        if result.ok:
            print(f"ok   {scenario.summary()}")
            continue
        failures += 1
        print(f"FAIL {scenario.summary()}")
        for violation in result.violations:
            print(f"     {violation}")
        report_scenario, violations = scenario, result.violations
        if args.shrink:
            oracle = result.violations[0].oracle
            report_scenario = shrink_failure(scenario, oracle)
            if report_scenario != scenario:
                print(f"     shrunk to: {report_scenario.summary()}")
                violations = run_scenario(report_scenario).violations
        if args.corpus:
            path = save_entry(args.corpus, entry_for(report_scenario, violations))
            print(f"     saved {path}")
    print(f"{args.runs - failures}/{args.runs} scenarios clean")
    return 1 if failures else 0


_COMMANDS = {
    "run": _cmd_run,
    "trace": _cmd_trace,
    "fig1": _cmd_fig1,
    "fig5": _cmd_fig5,
    "fig6": _cmd_fig6,
    "bakeoff4": _cmd_bakeoff4,
    "table2": _cmd_table2,
    "table3": _cmd_table3,
    "table4": _cmd_table4,
    "serve-metrics": _cmd_serve_metrics,
    "serve": _cmd_serve,
    "soak": _cmd_soak,
    "fuzz": _cmd_fuzz,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
