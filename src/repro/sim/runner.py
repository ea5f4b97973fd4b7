"""Experiment runner: build a fabric from a :class:`SimConfig`, wire
partitions, security mechanisms, traffic and attackers, run, and summarize.

This is the function every figure/table benchmark calls.  One
``run_simulation(config)`` is one bar/point of the paper's plots.
"""

from __future__ import annotations

import gc
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.core.attacks import RandomPKeyFlooder, make_attack_windows
from repro.core.auth import IcrcAuthService, MacAuthService, auth_function_for
from repro.core.enforcement import install_enforcement
from repro.core.keymgmt import NodeDirectory, PartitionLevelKeyManager, QPLevelKeyManager
from repro.iba.keys import PKey, QKey
from repro.iba.packet import LOCAL_UD_OVERHEAD
from repro.iba.qp import QueuePair
from repro.iba.subnet_manager import SubnetManager
from repro.iba.topology import Fabric, build_fabric, path_length
from repro.iba.types import QPN, ServiceType
from repro.sim.config import (
    AuthMode,
    EnforcementMode,
    KeyMgmtMode,
    SimConfig,
)
from repro.sim.engine import Engine, PS_PER_US
from repro.sim.metrics import MetricsCollector, MetricsSummary, StatAccumulator
from repro.sim.rng import RngStreams
from repro.sim.trace import Tracer
from repro.sim.traffic import (
    BestEffortSource,
    Peer,
    PeerView,
    RealtimeSource,
    make_open_loop_source,
)


@dataclass
class ClassStats:
    """Summary for one traffic class, in microseconds (the paper's unit)."""

    queuing_us: float
    network_us: float
    queuing_std_us: float
    network_std_us: float
    count: int

    @property
    def total_us(self) -> float:
        return self.queuing_us + self.network_us


@dataclass
class SimReport:
    """Everything a benchmark needs from one run.

    Reports are picklable (they cross process boundaries in parallel sweeps
    and land in the on-disk run cache): the live :class:`MetricsCollector`
    is never stored here — ``metrics`` is a detached, serializable
    :class:`MetricsSummary` when the run kept samples.
    """

    config: SimConfig
    stats: dict[str, ClassStats]
    drops: dict[str, int]
    delivered: int
    attack_windows: list[tuple[int, int]]
    key_exchanges: int = 0
    events_processed: int = 0
    wall_seconds: float = 0.0
    """Host seconds of the whole run: ``build_seconds``, ``run_seconds``
    and the time around them.  All three are kept out of the report's
    deterministic payload and out of the run key."""
    build_seconds: float = 0.0
    """Host seconds building the experiment: ``build_experiment`` and the
    ``setup`` hook (sharded: constructing the shard drivers)."""
    run_seconds: float = 0.0
    """Host seconds in ``Engine.run`` (sharded: the synchronous rounds)."""
    senders: dict[str, int] = field(default_factory=dict)
    """Traffic sources actually *started* per class — nodes whose partition
    peers are all attackers never start one, so this can be less than
    ``num_nodes - num_attackers``."""
    metrics: MetricsSummary | None = field(default=None, repr=False)
    counters: dict[str, int | float] = field(default_factory=dict, repr=False)
    """Full :class:`~repro.sim.counters.CounterRegistry` snapshot of the
    run — every named statistic of every component, as plain numbers, so
    the complete counter state survives pickling across the parallel-sweep
    process boundary and the on-disk run cache."""

    def counter(self, name: str) -> int | float:
        """One counter from the snapshot (0 when absent)."""
        return self.counters.get(name, 0)

    def counter_total(self, pattern: str) -> int | float:
        """Sum of snapshot counters whose name matches the glob *pattern*
        (e.g. ``filter.*.activations``)."""
        from fnmatch import fnmatchcase

        return sum(
            v for k, v in self.counters.items() if fnmatchcase(k, pattern)
        )

    # The enforcement/SM headline numbers, read from the counter snapshot
    # (which every run carries in full: counters are always on).

    @property
    def switch_filtered(self) -> int:
        return int(self.counter_total("switch.*.filtered_drops"))

    @property
    def switch_lookups(self) -> int:
        return int(self.counter_total("filter.*.lookups"))

    @property
    def sif_activations(self) -> int:
        return int(self.counter_total("filter.*.activations"))

    @property
    def sif_deactivations(self) -> int:
        return int(self.counter_total("filter.*.deactivations"))

    @property
    def traps_received(self) -> int:
        return int(self.counter("sm.traps_received"))

    @property
    def traps_processed(self) -> int:
        return int(self.counter("sm.traps_processed"))

    def cls(self, name: str) -> ClassStats:
        return self.stats.get(
            name, ClassStats(0.0, 0.0, 0.0, 0.0, 0)
        )

    def goodput_gbps(self, traffic_class: str) -> float:
        """Delivered goodput of *traffic_class* over the run, in Gbit/s of
        on-the-wire bytes (payload + headers), fabric-wide."""
        stats = self.cls(traffic_class)
        wire_bits = (self.config.mtu_bytes + LOCAL_UD_OVERHEAD) * 8
        seconds = self.config.sim_time_ps / 1e12
        return stats.count * wire_bits / seconds / 1e9 if seconds > 0 else 0.0

    def offered_load_gbps(self, traffic_class: str) -> float:
        """Configured injection rate of the class, fabric-wide (honest
        nodes only), for goodput/offered comparisons."""
        load = {
            "best_effort": self.config.best_effort_load if self.config.enable_best_effort else 0.0,
            "realtime": self.config.realtime_load if self.config.enable_realtime else 0.0,
        }.get(traffic_class, 0.0)
        return load * self.config.link_bandwidth_gbps * self.senders.get(traffic_class, 0)

    def summary(self) -> str:
        lines = [
            f"enforcement={self.config.enforcement.value} auth={self.config.auth.value} "
            f"keymgmt={self.config.keymgmt.value} attackers={self.config.num_attackers} "
            f"be_load={self.config.best_effort_load:.0%}",
        ]
        for name in sorted(self.stats):
            s = self.stats[name]
            lines.append(
                f"  {name:<12} queuing {s.queuing_us:8.2f} us (sd {s.queuing_std_us:7.2f})"
                f"  network {s.network_us:8.2f} us (sd {s.network_std_us:7.2f})"
                f"  n={s.count}"
            )
        if self.drops:
            lines.append(f"  drops: {dict(sorted(self.drops.items()))}")
        return "\n".join(lines)


def class_stats(
    queuing: dict[str, StatAccumulator], network: dict[str, StatAccumulator]
) -> dict[str, ClassStats]:
    """A report's ``stats``: one :class:`ClassStats` per traffic class, in
    class-name order, from per-class queuing and network latency
    accumulators (ps).  A class missing from one side reads as empty."""
    empty = StatAccumulator()
    stats = {}
    for name in sorted(set(queuing) | set(network)):
        q, n = queuing.get(name, empty), network.get(name, empty)
        stats[name] = ClassStats(
            queuing_us=q.mean / PS_PER_US,
            network_us=n.mean / PS_PER_US,
            queuing_std_us=q.stddev / PS_PER_US,
            network_std_us=n.stddev / PS_PER_US,
            count=max(q.count, n.count),
        )
    return stats


def count_senders(sources) -> dict[str, int]:
    """A report's ``senders``: how many traffic sources started per class."""
    senders = {"best_effort": 0, "realtime": 0}
    for src in sources:
        if isinstance(src, BestEffortSource):
            senders["best_effort"] += 1
        elif isinstance(src, RealtimeSource):
            senders["realtime"] += 1
    return senders


def estimate_rtt_ps(fabric: Fabric, src: int, dst: int) -> int:
    """Round-trip estimate for a 256-byte management exchange, used as the
    QP-level key-exchange cost ("one round trip time delay")."""
    cfg = fabric.config
    hops = path_length(fabric, src, dst)
    links = hops + 1
    one_way = links * (256 * cfg.byte_time_ps) + hops * round(
        cfg.switch_routing_delay_ns * 1000
    )
    return 2 * one_way


def build_experiment(
    config: SimConfig,
    tracer: Tracer | None = None,
    only_lids: set[int] | None = None,
):
    """Construct (engine, fabric, sources, attackers) without running.

    Split from :func:`run_simulation` so tests can poke at intermediate
    state and examples can drive the fabric interactively.  *tracer*
    (optional) is wired into every component as the lifecycle event bus.

    *only_lids* restricts which nodes get **active** traffic sources and
    flooders; the fabric, partitions, QPs, and attack schedule are still
    built identically (every RNG stream is named globally or per-LID, so
    a restricted build agrees bit-for-bit with the full one on the nodes
    it does drive).  The sharded engine builds one full-fabric replica per
    shard and passes each replica its owned LIDs here.
    """
    config.validate()
    engine = Engine()
    metrics = MetricsCollector(keep_samples=config.keep_samples)
    fabric = build_fabric(engine, config, metrics, tracer=tracer)
    streams = RngStreams(config.seed)

    sm = SubnetManager(
        engine,
        trap_latency_us=config.sm_trap_latency_us,
        registry=fabric.registry,
    )
    fabric.sm = sm
    for hca in fabric.hcas.values():
        hca.trap_sink = sm.submit_trap

    # --- partitions: "we partition the IBA network into four random groups"
    lids = fabric.lids
    if config.partition_layout == "random":
        shuffled = lids[:]
        streams.get("partitions").shuffle(shuffled)
    else:  # quadrant / pod: deterministic orderings of the sorted LIDs
        shuffled = sorted(lids)
    chunk_bounds = [
        len(shuffled) * i // config.num_partitions
        for i in range(config.num_partitions + 1)
    ]
    partitions: dict[int, set[int]] = {}
    pkeys: dict[int, PKey] = {}
    for i in range(config.num_partitions):
        index = i + 1
        if config.partition_layout == "pod":
            # contiguous LID blocks — partitions align with fat-tree pods
            # (and therefore with shards), keeping legitimate traffic local
            members = set(shuffled[chunk_bounds[i] : chunk_bounds[i + 1]])
        else:
            # strided assignment so every node lands in exactly one partition
            # even when the node count doesn't divide evenly
            members = set(shuffled[i :: config.num_partitions])
        if not members:
            continue
        pkeys[index] = sm.create_partition(index, members)
        for lid in members:
            fabric.hca(lid).keys.grant_pkey(pkeys[index])

    # --- one UD QP per node, Q_Key from a per-node stream
    node_partition: dict[int, int] = {}
    for index, members in sm.partitions.items():
        for lid in members:
            node_partition[lid] = index
    qps: dict[int, QueuePair] = {}
    for lid in lids:
        index = node_partition[lid]
        qkey = QKey(streams.get("qkey", lid).randrange(1, 2**31))
        qp = QueuePair(
            qpn=QPN(0x100 + lid),
            service=ServiceType.UNRELIABLE_DATAGRAM,
            pkey=pkeys[index],
            qkey=qkey,
        )
        fabric.hca(lid).add_qp(qp)
        qps[lid] = qp

    # --- key management and authentication
    key_manager = None
    if config.keymgmt is not KeyMgmtMode.NONE:
        directory = NodeDirectory.for_nodes(
            lids, streams.get("rsa"), bits=config.rsa_bits
        )
        if config.keymgmt is KeyMgmtMode.PARTITION:
            key_manager = PartitionLevelKeyManager(
                directory, streams.get("pkeys"), registry=fabric.registry
            )
            for index, members in sm.partitions.items():
                key_manager.create_partition_key(index, members)
        else:
            rtt = (
                (lambda a, b: estimate_rtt_ps(fabric, a, b))
                if config.qp_key_exchange_rtt
                else (lambda a, b: 0)
            )
            key_manager = QPLevelKeyManager(
                directory, streams.get("qpkeys"), rtt, registry=fabric.registry
            )

    if config.auth is AuthMode.ICRC:
        auth = IcrcAuthService()
    else:
        auth = MacAuthService(
            auth_function_for(config.auth),
            key_manager,
            mac_stage_delay_ns=config.mac_stage_delay_ns,
            registry=fabric.registry,
        )
    for hca in fabric.hcas.values():
        hca.auth = auth
        hca.replay_protection = config.replay_protection
        hca.record_attack_packets = config.count_attack_in_metrics

    # --- enforcement
    install_enforcement(fabric, config.enforcement)

    # --- attackers: random compromised nodes
    attackers: list[int] = []
    if config.num_attackers:
        attackers = streams.get("attackers").sample(lids, config.num_attackers)
    windows = make_attack_windows(
        config.sim_time_ps,
        config.attack_duty_cycle if config.num_attackers else 0.0,
        round(config.attack_window_us * PS_PER_US),
        streams.get("windows"),
        start_ps=round(config.attack_start_us * PS_PER_US),
    )

    # --- legitimate traffic: same-partition peers, per Section 3.1
    # One Peer per honest LID, shared by every source sending there, and one
    # LID-sorted peer list per partition; a source reads its partition's
    # list through a PeerView that skips its own LID.
    attacker_set = set(attackers)
    partition_peers = {
        index: [
            Peer(m, qps[m].qpn, qps[m].qkey)
            for m in sorted(members) if m not in attacker_set
        ]
        for index, members in sm.partitions.items()
    }
    sources = []
    byte_ps = config.byte_time_ps
    for lid in lids:
        if lid in attacker_set:
            continue
        if only_lids is not None and lid not in only_lids:
            continue
        index = node_partition[lid]
        peers = PeerView(partition_peers[index], lid)
        if not peers:
            continue
        hca = fabric.hca(lid)
        if config.enable_best_effort:
            src = make_open_loop_source(
                config, engine, hca, qps[lid], peers, pkeys[index],
                byte_ps, streams, lid,
            )
            src.start()
            sources.append(src)
        if config.enable_realtime:
            src = RealtimeSource(
                engine, hca, qps[lid], peers, pkeys[index],
                config.realtime_load, config.mtu_bytes, byte_ps,
                streams.get("rt", lid), config.sim_time_ps,
                backoff_queue=config.realtime_backoff_queue,
            )
            src.start()
            sources.append(src)

    flooders = []
    valid_indices = sm.valid_pkey_indices()
    for lid in attackers:
        if only_lids is not None and lid not in only_lids:
            continue
        valid_pkey = pkeys[node_partition[lid]] if config.attack_valid_pkey else None
        # A valid-P_Key flood (Section 7) only breaches the attacker's own
        # partition — other nodes would reject the key anyway.
        targets = (
            sorted(sm.partitions[node_partition[lid]] - {lid})
            if config.attack_valid_pkey
            else lids
        )
        flooder = RandomPKeyFlooder(
            engine, fabric.hca(lid), qps[lid], targets,
            valid_indices, config.mtu_bytes, byte_ps,
            streams.get("attack", lid), windows,
            classes=config.attacker_classes, valid_pkey=valid_pkey,
            backlog=config.attacker_backlog,
            dest_strategy=config.attack_dest_strategy,
            registry=fabric.registry,
            ramp_from_ps=round(config.attack_start_us * PS_PER_US),
            ramp_ps=round(config.attack_ramp_us * PS_PER_US),
        )
        flooder.start()
        flooders.append(flooder)

    return engine, fabric, sources, flooders, windows, key_manager


# --- the cyclic collector around a run -------------------------------------
# A k=16 fabric is over a hundred thousand container objects, built at once
# and alive until its run returns, so a collection during the build or the run
# traverses all of them and frees none.  A run therefore pauses collection
# while it builds, and freezes what exists *before* it re-enables the
# collector: freezing also zeroes the young generation's count, so the first
# collection after the build does not scan the whole fabric.  The run's own
# garbage is still collected, and the frozen objects rejoin the oldest
# generation when the run returns or raises.  Only a full collection frees
# them there, and the next run would freeze them again, so a scope that opens
# after another has left first collects once: a dead fabric is freed when the
# next run starts, not held frozen through it.
# Runs on several threads share this state: the first scope in records the
# caller's collector, none re-enables it while another is still building, and
# each unfreezes as it leaves, so a finished run's fabric is not held frozen
# past its run.

_scope_lock = threading.Lock()
_scopes = 0  # scopes entered and not yet left
_building = 0  # of those, scopes that have not called built()
_caller = (True, True)  # (collector was enabled, nothing was frozen)
_unfrozen = False  # a scope has unfrozen objects since the last collection


@contextmanager
def _collector_scope():
    """Own the cyclic collector for one run; yields ``built()``, to call
    once the run's long-lived objects exist.

    Collection is paused until ``built()``, which freezes every tracked
    object and re-enables the collector; leaving the scope unfreezes them.
    Entering after an earlier scope has left runs one full collection
    first, so what that scope unfroze is not frozen again if it is dead.
    A collector the caller disabled stays disabled, and nothing is frozen
    or unfrozen when the caller had frozen objects.  :func:`run_simulation`
    and the sharded engine (:mod:`repro.sim.shard`) are its only users.
    """
    global _scopes, _building, _caller, _unfrozen
    with _scope_lock:
        if _scopes == 0:
            _caller = (gc.isenabled(), gc.get_freeze_count() == 0)
        if _unfrozen and _caller[0]:
            gc.collect()
            _unfrozen = False
        _scopes += 1
        _building += 1
        gc.disable()
    building = True

    def built() -> None:
        nonlocal building
        global _building
        with _scope_lock:
            building = False
            _building -= 1
            if _caller[1]:
                gc.freeze()
            if _caller[0] and _building == 0:
                gc.enable()

    try:
        yield built
    finally:
        with _scope_lock:
            if building:
                _building -= 1
            _scopes -= 1
            if _caller[1]:
                gc.unfreeze()
                _unfrozen = True
            if _caller[0] and _building == 0:
                gc.enable()


def _reset_collector_after_fork() -> None:
    # A forked child runs none of its parent's scopes (shard workers and
    # isolated sweep runs start their own): hand it the caller's collector
    # and a lock no parent thread can be holding.
    global _scope_lock, _scopes, _building
    _scope_lock = threading.Lock()
    if _scopes:
        _scopes = _building = 0
        if _caller[1]:
            gc.unfreeze()
        if _caller[0]:
            gc.enable()


os.register_at_fork(after_in_child=_reset_collector_after_fork)


def run_simulation(
    config: SimConfig,
    tracer: Tracer | None = None,
    setup=None,
    metrics_port: int | None = None,
) -> SimReport:
    """Run one experiment end to end and return its report.

    *tracer* (optional) receives the run's lifecycle events; the report
    itself always carries the full counter-registry snapshot.  *setup*
    (optional) is called as ``setup(engine, fabric)`` after the experiment
    is built but before the clock starts — the hook fault-injection and
    fuzzing harnesses use to install link faults, switch crashes, wire
    tamperers, and raw packet injections into an otherwise stock run.
    *metrics_port* (optional) serves live counter/trace snapshots over
    HTTP for the duration of the run (0 = ephemeral port; see
    :mod:`repro.sim.metrics_server`).
    """
    if config.shards > 1:
        config.validate()
        if tracer is not None or setup is not None or metrics_port is not None:
            raise ValueError(
                "sharded runs (config.shards > 1) do not support tracer, "
                "setup hooks, or the live metrics server — run those "
                "against the single-process engine"
            )
        from repro.sim.shard import run_sharded

        return run_sharded(config)
    t0 = time.perf_counter()  # before the scope: its collection is the run's cost
    with _collector_scope() as built:
        engine, fabric, sources, flooders, windows, key_manager = build_experiment(
            config, tracer=tracer
        )
        if setup is not None:
            setup(engine, fabric)
        built()
        t_built = time.perf_counter()
        server = None
        if metrics_port is not None:
            from repro.sim.metrics_server import MetricsServer

            server = MetricsServer(engine, fabric.registry, tracer, port=metrics_port)
            server.start()
        try:
            t_run = time.perf_counter()
            engine.run(until=config.sim_time_ps)
            run_seconds = time.perf_counter() - t_run
        finally:
            if server is not None:
                server.stop()
    wall = time.perf_counter() - t0

    metrics = fabric.metrics
    return SimReport(
        config=config,
        stats=class_stats(metrics._queuing, metrics._network),
        drops=dict(metrics.dropped),
        delivered=metrics.delivered,
        attack_windows=windows,
        key_exchanges=int(getattr(key_manager, "exchanges", 0)),
        events_processed=engine.events_processed,
        wall_seconds=wall,
        build_seconds=t_built - t0,
        run_seconds=run_seconds,
        senders=count_senders(sources),
        metrics=metrics.summary() if config.keep_samples else None,
        counters=fabric.registry.snapshot(),
    )
