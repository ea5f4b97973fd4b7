"""Sharded parallel engine: space-partitioned fat-tree simulation.

One :class:`ShardRuntime` per shard builds the **identical full fabric**
(every RNG stream is named globally or per-LID, so replicas agree
bit-for-bit), then performs boundary surgery:

* traffic sources and flooders are constructed only for the shard's owned
  LIDs (``build_experiment(only_lids=...)``);
* every cross-shard link — by construction exactly the agg↔core links whose
  pod group and core belong to different shards (:class:`~repro.sim.
  partition.ShardPlan`) — has its sender half retargeted: when serialization
  completes, the packet is posted to the receiving shard as a timestamped
  message that fires at the exact single-process arrival instant
  (completion time + wire flight);
* the receiving side's stand-in for such a link is a credit proxy, so
  flow-control credits travel back as messages firing at the exact
  single-process return time;
* SM control traffic is routed through the designated **SM shard** (shard
  0): remote HCAs' trap sinks count locally and post the trap MAD with the
  management-VL transit as its delay.  A registration for a remote
  offender is posted back to the offender's shard when the SM schedules
  the processing step that issues it (the step pops the head of an
  in-order queue, so its trap and instant are known then); the offender's
  shard applies it to its own (owned) ingress filter at the step's instant.

Synchronization is conservative (null-message/CMB style), synchronous
rounds: each round delivers pending messages, collects every shard's
**earliest output time** ``EOT = t_next + L`` (``t_next`` the earliest
pending event, ``L`` the lookahead of :func:`~repro.sim.partition.
lookahead_ps`), and advances every shard inclusively to ``min(EOT)``.
Safety: every cross-shard message fires at least ``L`` after the event
that emits it (a registration fires ``processing_ps`` after it is posted,
and ``processing_ps`` is folded into ``L``), and every event processed in a
round is at or after that shard's ``t_next`` — so nothing can arrive
before a receiver's new clock.  An empty shard reports no constraint at
all: messages delivered to it re-enter the EOT computation before anyone
advances, so it cannot stall its neighbors and cannot be overrun.

The single-process engine stays the bit-exact oracle; a sharded run matches
it on counter totals and delivery stats for **shard-safe scenarios** (see
DESIGN.md §3j — no fault/tamper/injection hooks, no key management), with
same-picosecond event interleaving the only tolerated difference.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

from repro.iba.link import Link
from repro.iba.subnet_manager import SubnetManager
from repro.iba.topology import FT_AGG, FT_CORE
from repro.sim.config import SimConfig
from repro.sim.metrics import LatencySample, MetricsSummary, StatAccumulator
from repro.sim.partition import ShardPlan, lookahead_ps

#: cross-shard message kinds: (fire_ps, kind, a, b) tuples.
_PKT, _CREDIT, _TRAP, _REGISTER = 0, 1, 2, 3


class ShardCrashError(RuntimeError):
    """A shard worker process died mid-run (its pipe went EOF)."""

    def __init__(self, shard: int) -> None:
        super().__init__(f"shard {shard} worker crashed mid-run")
        self.shard = shard


class _BoundaryLink(Link):
    """Sender half of a cross-shard link.

    Identical layout to :class:`~repro.iba.link.Link` (``__class__`` is
    swapped in place after the fabric is built), except its ``dst`` is the
    sending shard's :class:`ShardRuntime` (the far-end replica is inert on
    this shard) and transmission completion hands the packet to it with the
    wire flight still ahead of it — that remaining delay is the link's
    contribution to the conservative lookahead.
    """

    __slots__ = ()

    def _complete(self, packet) -> None:
        self.busy = False
        self._in_transit -= 1
        self.dst.post_packet(self.name, packet)
        if self.on_free is not None:
            self.on_free()


def _registered_ahead(pkey, now_ps: int) -> None:
    """The SM shard's registration hook for an offender on another shard:
    the REGISTER message was posted when the processing step was scheduled
    (:meth:`ShardRuntime._schedule_sm_step`), so the step has nothing left
    to do.  The SM still counts the registration."""


class _CreditProxy:
    """Receiver-side stand-in for a cross-shard link's upstream half.

    Switches only ever call ``schedule_credit`` on their in-links; the
    proxy turns that into a CREDIT message firing at the exact instant the
    real link's ``return_credit`` would have run.
    """

    __slots__ = ("runtime", "link_name", "dst_shard")

    def __init__(self, runtime: "ShardRuntime", link_name: str, dst_shard: int) -> None:
        self.runtime = runtime
        self.link_name = link_name
        self.dst_shard = dst_shard

    def schedule_credit(self, delay: int, vl: int) -> None:
        rt = self.runtime
        rt.post(self.dst_shard, rt.engine.now + delay, _CREDIT, self.link_name, vl)


@dataclass
class ShardResult:
    """Everything one shard contributes to the merged report (picklable)."""

    shard: int
    counters: dict[str, int | float]
    delivered: int
    drops: dict[str, int]
    senders: dict[str, int]
    events_processed: int
    busy_seconds: float
    attack_windows: list[tuple[int, int]]
    #: (created, injected, delivered, class, source, destination) tuples
    #: when the run keeps samples, else None.
    samples: list[tuple] | None = None
    #: class -> (count, mean, m2, min, max) Welford state, queuing/network.
    queuing_acc: dict[str, tuple] = field(default_factory=dict)
    network_acc: dict[str, tuple] = field(default_factory=dict)


class ShardRuntime:
    """One shard: a full-fabric replica plus its boundary machinery."""

    def __init__(self, config: SimConfig, shard_id: int) -> None:
        from repro.sim.runner import build_experiment

        self.config = config
        self.shard_id = shard_id
        self.plan = ShardPlan(config.fat_tree_k, config.shards)
        self.owned = self.plan.owned_lids(shard_id)
        (
            self.engine,
            self.fabric,
            self.sources,
            self.flooders,
            self.windows,
            _key_manager,
        ) = build_experiment(config, only_lids=self.owned)
        sm = self.fabric.sm
        self.lookahead = min(lookahead_ps(config), sm.processing_ps)
        #: messages emitted since the last advance: (dst_shard, msg) pairs.
        self.outgoing: list[tuple[int, tuple]] = []
        self.busy_seconds = 0.0
        registry = self.fabric.registry
        self.msgs_in = registry.counter(f"shard.{shard_id}.messages_in")
        self.msgs_out = registry.counter(f"shard.{shard_id}.messages_out")
        #: boundary-link name -> (receiving shard, remaining wire delay).
        self._pkt_route: dict[str, tuple[int, int]] = {}
        #: boundary-link name -> (receiving switch, port) on this shard.
        self._in_map: dict[str, tuple] = {}
        #: boundary-link name -> owned sender-half Link (credit returns).
        self._out_links: dict[str, Link] = {}
        #: SM shard only: offender LID on another shard -> that shard.
        self._remote_offenders: dict[int, int] = {}
        self._rewire_boundaries()
        self._rewire_sm()

    # --- construction -----------------------------------------------------

    def _rewire_boundaries(self) -> None:
        half = self.config.fat_tree_k // 2
        switches = self.fabric.switches
        plan = self.plan
        for pod, a, core, core_port in plan.boundary_pairs():
            pod_shard = plan.shard_of_pod(pod)
            core_shard = plan.shard_of_core(core)
            agg = switches[(FT_AGG, pod * half + a)]
            cor = switches[(FT_CORE, core)]
            agg_port = half + (core - a * half)
            up = agg.out_links[agg_port]  # agg -> core
            down = cor.out_links[core_port]  # core -> agg
            if self.shard_id == pod_shard:
                up.__class__ = _BoundaryLink
                up.dst = self
                self._pkt_route[up.name] = (core_shard, up.wire_delay_ps)
                self._out_links[up.name] = up
                agg.in_links[agg_port] = _CreditProxy(self, down.name, core_shard)
                self._in_map[down.name] = (agg, agg_port)
            elif self.shard_id == core_shard:
                down.__class__ = _BoundaryLink
                down.dst = self
                self._pkt_route[down.name] = (pod_shard, down.wire_delay_ps)
                self._out_links[down.name] = down
                cor.in_links[core_port] = _CreditProxy(self, up.name, pod_shard)
                self._in_map[up.name] = (cor, core_port)
            # a boundary between two *other* shards: inert replica, untouched

    def _rewire_sm(self) -> None:
        sm = self.fabric.sm
        plan = self.plan
        if self.shard_id != plan.SM_SHARD:
            for lid in self.owned:
                self.fabric.hca(lid).trap_sink = self._remote_trap
            return
        for lid in list(sm.registration_hooks):
            offender_shard = plan.shard_of_lid(lid)
            if offender_shard != self.shard_id:
                sm.registration_hooks[lid] = _registered_ahead
                self._remote_offenders[lid] = offender_shard
        sm._schedule_next = self._schedule_sm_step

    def _remote_trap(self, trap) -> None:
        # mirrors SubnetManager.submit_trap: count at the reporter's side,
        # then pay the management-VL transit as the message delay
        sm = self.fabric.sm
        sm.traps_received.inc()
        self.post(
            self.plan.SM_SHARD,
            self.engine.now + sm.trap_latency_ps,
            _TRAP,
            trap,
            0,
        )

    def _schedule_sm_step(self) -> None:
        # SubnetManager._schedule_next, plus the step's registration posted
        # now: the step pops the queue's head, so its offender and instant
        # are known one processing step ahead.  A step past the horizon
        # never runs, so it issues no registration.
        sm = self.fabric.sm
        SubnetManager._schedule_next(sm)
        trap = sm._queue[0]
        lid = int(trap.offender)
        offender_shard = self._remote_offenders.get(lid)
        fire = self.engine.now + sm.processing_ps
        if offender_shard is not None and fire <= self.config.sim_time_ps:
            self.post(offender_shard, fire, _REGISTER, lid, trap.bad_pkey)

    # --- message plane ----------------------------------------------------

    def post(self, dst_shard: int, fire: int, kind: int, a, b) -> None:
        self.msgs_out.inc()
        self.outgoing.append((dst_shard, (fire, kind, a, b)))

    def post_packet(self, link_name: str, packet) -> None:
        dst_shard, wire_ps = self._pkt_route[link_name]
        self.post(dst_shard, self.engine.now + wire_ps, _PKT, link_name, packet)

    def _dispatch(self, kind: int, a, b) -> None:
        if kind == _PKT:
            switch, port = self._in_map[a]
            switch.receive(b, port)
        elif kind == _CREDIT:
            self._out_links[a].return_credit(b)
        elif kind == _TRAP:
            self.fabric.sm._arrive(a)
        else:  # _REGISTER — apply to this shard's own ingress filter
            self.fabric.sm.registration_hooks[int(a)](b, self.engine.now)

    # --- round interface --------------------------------------------------

    def deliver_and_eot(self, msgs: list[tuple]) -> int | None:
        """Schedule the round's inbound messages, then report the earliest
        time this shard could emit a message if allowed to run ahead."""
        engine = self.engine
        for fire, kind, a, b in msgs:
            self.msgs_in.inc()
            engine.schedule_at(fire, self._dispatch, kind, a, b)
        t_next = engine.peek_time()
        if t_next is None:
            return None  # nothing pending: nothing to emit, no constraint
        return t_next + self.lookahead

    def advance(self, target: int) -> tuple[list[tuple[int, tuple]], float]:
        """Run this shard inclusively to *target*; return emitted messages
        and the wall-clock busy time of the step."""
        t0 = time.perf_counter()
        self.engine.run(until=target)
        busy = time.perf_counter() - t0
        self.busy_seconds += busy
        out = self.outgoing
        self.outgoing = []
        return out, busy

    def result(self) -> ShardResult:
        metrics = self.fabric.metrics
        samples = None
        if self.config.keep_samples:
            samples = [
                (
                    s.created,
                    s.injected,
                    s.delivered,
                    s.traffic_class,
                    int(s.source),
                    int(s.destination),
                )
                for s in metrics.samples
            ]
        def pack(acc: StatAccumulator) -> tuple:
            return (acc.count, acc._mean, acc._m2, acc.min, acc.max)

        from repro.sim.runner import count_senders

        return ShardResult(
            shard=self.shard_id,
            counters=self.fabric.registry.snapshot(),
            delivered=metrics.delivered,
            drops=dict(metrics.dropped),
            senders=count_senders(self.sources),
            events_processed=self.engine.events_processed,
            busy_seconds=self.busy_seconds,
            attack_windows=list(self.windows),
            samples=samples,
            queuing_acc={c: pack(a) for c, a in metrics._queuing.items()},
            network_acc={c: pack(a) for c, a in metrics._network.items()},
        )


# --- transports -----------------------------------------------------------


class _InlineDriver:
    """All shards in this process — deterministic and 1-core friendly."""

    def __init__(self, config: SimConfig, shard_id: int, crash_at=None) -> None:
        self.runtime = ShardRuntime(config, shard_id)

    def deliver_and_eot(self, msgs):
        return self.runtime.deliver_and_eot(msgs)

    def advance(self, target):
        return self.runtime.advance(target)

    def result(self):
        return self.runtime.result()

    def close(self) -> None:
        """An inline shard holds no process or pipe to release."""


def _shard_worker(config: SimConfig, shard_id: int, conn, crash_at) -> None:
    """Process-transport worker: build one shard, serve round commands.

    The worker owns its own collector scope: whatever collector state it
    inherited at fork, its replica is built with collection paused."""
    from repro.sim.runner import _collector_scope

    with _collector_scope() as built:
        runtime = ShardRuntime(config, shard_id)
        built()
        if crash_at is not None and crash_at[0] == shard_id:
            # test hook: die without ceremony at a simulated instant, the
            # way an OOM-killed or segfaulted worker would
            runtime.engine.schedule_at(crash_at[1], os._exit, 1)
        try:
            while True:
                cmd = conn.recv()
                op = cmd[0]
                if op == "sync":
                    conn.send(runtime.deliver_and_eot(cmd[1]))
                elif op == "advance":
                    conn.send(runtime.advance(cmd[1]))
                else:  # "finish"
                    conn.send(runtime.result())
                    return
        except EOFError:
            return
        finally:
            conn.close()


class _ProcessDriver:
    """Parent-side proxy for one forked shard worker."""

    def __init__(self, config: SimConfig, shard_id: int, crash_at=None) -> None:
        import multiprocessing as mp

        ctx = mp.get_context("fork")
        self.shard_id = shard_id
        self.conn, child = ctx.Pipe()
        self.proc = ctx.Process(
            target=_shard_worker,
            args=(config, shard_id, child, crash_at),
            daemon=True,
        )
        self.proc.start()
        child.close()

    def _recv(self):
        try:
            return self.conn.recv()
        except (EOFError, ConnectionResetError, OSError) as exc:
            raise ShardCrashError(self.shard_id) from exc

    def deliver_and_eot(self, msgs):
        self.conn.send(("sync", msgs))
        return self._recv()

    def advance(self, target):
        self.conn.send(("advance", target))
        return self._recv()

    def result(self):
        self.conn.send(("finish",))
        return self._recv()

    def close(self) -> None:
        self.conn.close()
        if self.proc.is_alive():
            self.proc.terminate()
        self.proc.join(timeout=5)


# --- coordinator ----------------------------------------------------------


def _run_rounds(drivers: list, end_ps: int) -> int:
    """Synchronous conservative rounds until every shard is quiescent past
    *end_ps*.  Returns the number of advance rounds executed."""
    n = len(drivers)
    inboxes: list[list[tuple]] = [[] for _ in range(n)]
    rounds = 0
    while True:
        moved = any(inboxes)
        eots = []
        for driver, box in zip(drivers, inboxes):
            box.sort(key=lambda m: m[0])  # stable: ties keep shard order
            eots.append(driver.deliver_and_eot(box))
        inboxes = [[] for _ in range(n)]
        live = [e for e in eots if e is not None]
        if not moved and (not live or min(live) > end_ps):
            break
        target = min(min(live), end_ps) if live else end_ps
        rounds += 1
        for driver in drivers:
            out, _busy = driver.advance(target)
            for dst, msg in out:
                inboxes[dst].append(msg)
    for driver in drivers:
        driver.advance(end_ps)  # align every clock with the single-process end
    return rounds


def fold_counters(snapshots) -> dict[str, int | float]:
    """Sum per-shard counter snapshots name by name, in the order given,
    into one name-sorted snapshot; a name only some shards have is kept."""
    total: dict[str, int | float] = {}
    for snapshot in snapshots:
        for name, value in snapshot.items():
            if name in total:
                total[name] += value
            else:
                total[name] = value
    return dict(sorted(total.items()))


def _merge_results(
    config: SimConfig,
    results: list[ShardResult],
    wall: float,
    rounds: int,
    build: float,
    run: float,
):
    """Fold per-shard results into one schema-compatible SimReport."""
    from repro.sim.runner import SimReport, class_stats

    drops: dict[str, int] = {}
    senders: dict[str, int] = {}
    for r in results:
        for key in sorted(r.drops):
            drops[key] = drops.get(key, 0) + r.drops[key]
        for key, count in r.senders.items():
            senders[key] = senders.get(key, 0) + count

    queuing: dict[str, StatAccumulator] = {}
    network: dict[str, StatAccumulator] = {}

    def unpack(state: tuple) -> StatAccumulator:
        acc = StatAccumulator()
        acc.count, acc._mean, acc._m2, acc.min, acc.max = state
        return acc

    summary = None
    if config.keep_samples:
        # canonical order makes the merged statistics deterministic no
        # matter how deliveries interleaved across shards
        rows = sorted(
            (row for r in results for row in r.samples),
            key=lambda t: (t[2], t[0], t[4], t[5], t[3]),
        )
        samples = [LatencySample(*row) for row in rows]
        summary = MetricsSummary(samples=samples)
        for s in samples:
            cls = s.traffic_class
            queuing.setdefault(cls, StatAccumulator()).add(s.queuing_ps)
            network.setdefault(cls, StatAccumulator()).add(s.network_ps)
    else:
        for r in results:  # fixed shard order keeps the Chan merge stable
            for cls, state in r.queuing_acc.items():
                queuing.setdefault(cls, StatAccumulator()).merge(unpack(state))
            for cls, state in r.network_acc.items():
                network.setdefault(cls, StatAccumulator()).merge(unpack(state))

    counters = fold_counters(r.counters for r in results)
    counters["shard.count"] = config.shards
    counters["shard.rounds"] = rounds
    counters["shard.lookahead_ps"] = lookahead_ps(config)
    for r in results:
        counters[f"shard.{r.shard}.busy_seconds"] = r.busy_seconds

    return SimReport(
        config=config,
        stats=class_stats(queuing, network),
        drops=drops,
        delivered=sum(r.delivered for r in results),
        attack_windows=results[0].attack_windows,
        key_exchanges=0,  # sharded runs require keymgmt == NONE
        events_processed=sum(r.events_processed for r in results),
        wall_seconds=wall,
        build_seconds=build,
        run_seconds=run,
        senders=senders,
        metrics=summary,
        counters=counters,
    )


def run_sharded(
    config: SimConfig,
    transport: str | None = None,
    _crash_at: tuple[int, int] | None = None,
):
    """Run *config* on ``config.shards`` space-partitioned engines and
    return a merged, schema-compatible SimReport.

    Called by :func:`~repro.sim.runner.run_simulation`.

    The report's ``build_seconds`` is the drivers' construction and its
    ``run_seconds`` the synchronous rounds.  Forked process-transport
    workers build their replicas concurrently after construction, so
    there the replica build lands in ``run_seconds``.

    *transport* overrides ``config.shard_transport``; *_crash_at* is a
    test hook ``(shard, sim_time_ps)`` that kills that worker mid-run
    (process transport only).
    """
    from repro.sim.runner import _collector_scope

    config.validate()
    transport = transport or config.shard_transport
    driver_cls = _ProcessDriver if transport == "process" else _InlineDriver
    t0 = time.perf_counter()
    with _collector_scope() as built:
        drivers = [driver_cls(config, s, _crash_at) for s in range(config.shards)]
        built()
        t_built = time.perf_counter()
        try:
            rounds = _run_rounds(drivers, config.sim_time_ps)
            t_ran = time.perf_counter()
            results = [driver.result() for driver in drivers]
        finally:
            for driver in drivers:
                driver.close()
    wall = time.perf_counter() - t0
    return _merge_results(
        config, results, wall, rounds, build=t_built - t0, run=t_ran - t_built
    )
