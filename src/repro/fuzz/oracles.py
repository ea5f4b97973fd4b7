"""Scenario execution and the invariant catalogue (DESIGN.md §3e).

:func:`execute_scenario` runs one :class:`~repro.fuzz.generators.Scenario`,
installing its faults, wire tamperers, and forged injections through
``run_simulation``'s ``setup`` hook, and returns a :class:`FuzzRun`
bundling the report, the full trace, the live fabric, and the identity
sets the oracles need.

Single-run oracles (:data:`ORACLES`):

* ``conservation`` — every packet that entered a send queue is accounted
  for: delivered, dropped at an HCA checkpoint, filtered/unroutable at a
  switch, or still in flight somewhere the fabric can enumerate.
* ``counter_trace`` — the counter registry and the trace bus tell the same
  story (delivered/filtered/trap/SIF counts match event counts; a link
  never comes up more often than it went down).
* ``sif_legality`` — SIF (and the Bloom filter, which shares its trap-driven
  control plane) only ever activates after a trap was raised, and SIF's
  Invalid_P_Key_Table never exceeds the whitelist bound.
* ``auth_soundness`` — no tampered or forged packet is ever delivered as
  authentic.
* ``ready_index`` — every switch's maintained ready-head arbitration index
  equals a recount of its input FIFO heads (faults, reroutes and tampers
  included).
* ``credit_conservation`` — per link and VL, the sender's credits plus the
  returns still deferred, the link's packets in transit on that VL and the
  receiver's slots held for that port make up ``vl_buffer_packets``: lazy
  credit returns (DESIGN.md §3k) neither lose nor mint a credit.
* ``bloom_dominance`` — on a shadow leg (``bloom_shadow=True``), a
  :class:`BloomPortFilter` fed the *identical* packet and registration
  stream as the live SIF filter may over-filter (false positives, counted
  separately) but must never pass a packet SIF dropped.

:func:`check_shard_differential` is the two-run oracle: a schedule-free
scenario run single-process and sharded (:func:`execute_sharded`) must
agree on counter totals, drops, deliveries and the sorted delivery record.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Callable

from repro.core import BloomPortFilter, SIFPortFilter, bloom_port_filter
from repro.core.attacks import forge_packet, inject_raw
from repro.core.auth import auth_function_for
from repro.fuzz.generators import (
    ForgedInject,
    MutationContext,
    Scenario,
    apply_mutation,
)
from repro.iba.hca import HCA
from repro.iba.keys import PKey, QKey
from repro.iba.link import Link
from repro.iba.packet import DataPacket
from repro.iba.switch import HCA_PORT
from repro.iba.topology import Fabric
from repro.iba.types import QPN
from repro.sim.config import AuthMode, SimConfig
from repro.sim.engine import PS_PER_US
from repro.sim.faults import FaultInjector
from repro.sim.runner import SimReport, run_simulation
from repro.sim.trace import Tracer

#: HCA receive-side drop counters — together with the switch drop counters
#: these are the only exits a submitted packet has besides delivery.
HCA_DROP_COUNTERS = (
    "pkey_violations",
    "qkey_violations",
    "auth_failures",
    "replay_drops",
)


@dataclass(frozen=True)
class Violation:
    """One invariant failure, attributed to an oracle and the leg it ran on."""

    oracle: str
    #: the :attr:`FuzzRun.leg` (``fast`` | ``bloom_shadow``), or
    #: ``sharded`` for the two-run oracle.
    mode: str
    message: str

    def __str__(self) -> str:
        return f"[{self.mode}:{self.oracle}] {self.message}"


@dataclass
class FuzzRun:
    """Everything one scenario execution leaves behind for the oracles."""

    scenario: Scenario
    leg: str  #: ``bloom_shadow`` for a shadow-filter run, else ``fast``.
    report: SimReport
    tracer: Tracer
    fabric: Fabric
    tampered_ids: set[int] = field(default_factory=set)
    injected_ids: set[int] = field(default_factory=set)
    #: shadow Bloom filters installed alongside live SIF filters
    #: (``execute_scenario(..., bloom_shadow=True)``); empty otherwise.
    bloom_shadows: list["_BloomShadowFilter"] = field(default_factory=list)


def _build_injection(inj: ForgedInject, fabric: Fabric, config: SimConfig) -> DataPacket:
    """Materialize one forged packet at fire time.

    Every kind is undeliverable by construction: ``random_pkey`` fails the
    P_Key checkpoint (or an enforcement filter), ``bad_qkey`` passes P_Key
    but fails the Q_Key match, ``guessed_tag`` reaches ICRC/MAC verification
    with a random 32-bit tag, and ``truncated`` carries a stale CRC over a
    shortened payload.  Under MAC auth the CRC-stamped kinds additionally
    die as unauthenticated (``resv8a == 0`` in a protected partition).
    """
    src = fabric.hca(inj.src_lid)
    dst = fabric.hca(inj.dst_lid)
    src_qp = src.qps[QPN(0x100 + inj.src_lid)]
    dst_qpn = QPN(0x100 + inj.dst_lid)
    dst_qp = dst.qps[dst_qpn]
    dst_pkey = min(dst.keys.pkeys, key=lambda p: p.value)
    param = inj.param

    if inj.kind == "random_pkey":
        valid = {p.index for hca in fabric.hcas.values() for p in hca.keys.pkeys}
        idx = 1 + (param % 0x7FFE)
        while idx in valid:
            idx = 1 + (idx % 0x7FFE)
        bad = PKey(idx | (PKey.FULL_MEMBER_BIT if param & 1 else 0))
        return forge_packet(
            src, src_qp, dst.lid, dst_qpn, bad, dst_qp.qkey, config.mtu_bytes
        )
    if inj.kind == "bad_qkey":
        wrong = QKey((dst_qp.qkey.value ^ (param & 0x7FFFFFFF) or 1) & 0x7FFFFFFF)
        return forge_packet(
            src, src_qp, dst.lid, dst_qpn, dst_pkey, wrong, config.mtu_bytes
        )
    if inj.kind == "guessed_tag":
        fn_id = (
            auth_function_for(config.auth).ident
            if config.auth is not AuthMode.ICRC
            else 1
        )
        return forge_packet(
            src, src_qp, dst.lid, dst_qpn, dst_pkey, dst_qp.qkey,
            config.mtu_bytes, guessed_tag=param & 0xFFFFFFFF, auth_fn_id=fn_id,
        )
    if inj.kind == "truncated":
        pkt = forge_packet(
            src, src_qp, dst.lid, dst_qpn, dst_pkey, dst_qp.qkey, config.mtu_bytes
        )
        pkt.payload = pkt.payload[:-1]  # CRC already stamped: now stale
        return pkt
    raise ValueError(f"unknown injection kind {inj.kind!r}")


class _BloomShadowFilter:
    """Transparent SIF wrapper that drives a shadow :class:`BloomPortFilter`.

    Installed by ``execute_scenario(..., bloom_shadow=True)`` on a SIF
    scenario: the live SIF filter keeps making every real accept/drop
    decision while an identically-fed Bloom filter runs beside it, so the
    never-under-filters contract is checked on *exactly* the same packet and
    registration stream.  (Two separate simulations could not be compared
    packet-for-packet: closed-loop sources change their traffic the moment
    one drop decision differs.)  The shadow uses a private counter registry
    and no tracer, so the run's report and trace stay those of a plain SIF
    run — but its idle-check timers do add engine events, so its event
    count is not a plain run's.
    """

    def __init__(self, sif: SIFPortFilter, bloom: BloomPortFilter) -> None:
        self.sif = sif
        self.bloom = bloom
        #: (packet_id, pkey_value, time_ps) for every packet SIF dropped
        #: but the Bloom filter would have passed — must stay empty.
        self.under_filtered: list[tuple[int, int, int]] = []

    def process(self, packet: DataPacket, now_ps: int) -> tuple[bool, float]:
        verdict = self.sif.process(packet, now_ps)
        bloom_ok, _ = self.bloom.process(packet, now_ps)
        if not verdict[0] and bloom_ok:
            self.under_filtered.append(
                (packet.packet_id, packet.pkey.value, now_ps)
            )
        return verdict

    def register_invalid(self, pkey: PKey, now_ps: int) -> None:
        self.sif.register_invalid(pkey, now_ps)
        self.bloom.register_invalid(pkey, now_ps)

    def __getattr__(self, name: str):
        return getattr(self.sif, name)


def execute_scenario(scenario: Scenario, bloom_shadow: bool = False) -> FuzzRun:
    """Run *scenario* (see :func:`run_simulation`).

    *bloom_shadow* wraps every installed SIF ingress filter in a
    :class:`_BloomShadowFilter` (sized by the scenario's ``bloom_bits`` /
    ``bloom_hashes``, default SimConfig values otherwise) so the
    ``bloom_dominance`` oracle can compare drop decisions on the identical
    stream; it has no effect on scenarios without SIF enforcement.
    """
    tracer = Tracer()
    config = scenario.build_config()
    tampered: set[int] = set()
    injected: set[int] = set()
    captured: dict[str, Fabric] = {}
    shadows: list[_BloomShadowFilter] = []

    def setup(engine, fabric: Fabric) -> None:
        captured["fabric"] = fabric
        injector = FaultInjector(fabric)
        links = {link.name: link for link in fabric.all_links()}

        # Faults are guarded: a link never double-fails (LinkFault and a
        # SwitchCrash may name the same link) and never "restores" while
        # up, so per-link link_down >= link_up holds by construction.
        def fail_if_up(link) -> None:
            if not link.failed:
                injector.fail_link(link)

        def restore_if_down(link) -> None:
            if link.failed:
                injector.restore_link(link)

        for fault in scenario.link_faults:
            link = links[fault.link]
            engine.schedule_at(round(fault.fail_us * PS_PER_US), fail_if_up, link)
            if fault.restore_us is not None:
                engine.schedule_at(
                    round(fault.restore_us * PS_PER_US), restore_if_down, link
                )
        for crash in scenario.switch_crashes:
            coords = (crash.x, crash.y)
            injector.crash_switch(coords, at_ps=round(crash.at_us * PS_PER_US))
            if crash.restore_us is not None:
                injector.restore_switch(
                    coords, at_ps=round(crash.restore_us * PS_PER_US)
                )

        ctx = MutationContext(
            valid_pkeys=tuple(sorted(
                {p for hca in fabric.hcas.values() for p in hca.keys.pkeys},
                key=lambda p: p.value,
            )),
            lids=tuple(fabric.lids),
        )
        by_link: dict[str, dict[int, object]] = {}
        for tamper in scenario.tampers:
            by_link.setdefault(tamper.link, {}).setdefault(tamper.ordinal, tamper)
        for name, plan in by_link.items():
            link = links[name]
            prev_tap = link.tap

            def tamper_tap(packet, _plan=plan, _prev=prev_tap, _seen=[0]) -> None:
                if _prev is not None:
                    _prev(packet)
                tamper = _plan.get(_seen[0])
                _seen[0] += 1
                if tamper is not None:
                    apply_mutation(packet, tamper.mutation, tamper.param, ctx)
                    tampered.add(packet.packet_id)

            link.tap = tamper_tap

        def fire_injection(inj: ForgedInject) -> None:
            packet = _build_injection(inj, fabric, config)
            inject_raw(fabric.hca(inj.src_lid), packet)
            injected.add(packet.packet_id)  # admission gave it its id

        for inj in scenario.injections:
            engine.schedule_at(round(inj.at_us * PS_PER_US), fire_injection, inj)

        if bloom_shadow:
            for lid in fabric.lids:
                sw = fabric.ingress_switch(lid)
                port = fabric.ingress_port(lid)
                filt = sw.filters[port]
                if not isinstance(filt, SIFPortFilter):
                    continue
                # private registry, no tracer: the run's report and trace
                # stay those of a plain SIF run
                bloom = bloom_port_filter(
                    engine, config, filt.partition_table, filt.scope
                )
                shadow = _BloomShadowFilter(filt, bloom)
                sw.set_port_filter(port, shadow)
                fabric.sm.registration_hooks[int(lid)] = shadow.register_invalid
                shadows.append(shadow)

    report = run_simulation(config, tracer=tracer, setup=setup)
    return FuzzRun(
        scenario=scenario,
        leg="bloom_shadow" if bloom_shadow else "fast",
        report=report,
        tracer=tracer,
        fabric=captured["fabric"],
        tampered_ids=tampered,
        injected_ids=injected,
        bloom_shadows=shadows,
    )


# -- single-run oracles -------------------------------------------------------


def check_conservation(run: FuzzRun) -> list[Violation]:
    """created == delivered + dropped + filtered + in-flight, fabric-wide."""
    r = run.report
    submitted = r.counter_total("hca.*.submitted")
    delivered = r.counter_total("hca.*.delivered")
    hca_drops = sum(r.counter_total(f"hca.*.{name}") for name in HCA_DROP_COUNTERS)
    switch_drops = r.counter_total("switch.*.filtered_drops") + r.counter_total(
        "switch.*.unroutable_drops"
    )
    in_flight = run.fabric.in_flight_count()
    accounted = delivered + hca_drops + switch_drops + in_flight
    if submitted != accounted:
        return [Violation(
            "conservation", run.leg,
            f"submitted={submitted} != delivered={delivered} + hca_drops={hca_drops}"
            f" + switch_drops={switch_drops} + in_flight={in_flight}"
            f" (= {accounted})",
        )]
    return []


def check_counter_trace(run: FuzzRun) -> list[Violation]:
    """Counter registry and trace bus must agree event-for-event."""
    out: list[Violation] = []
    r = run.report
    kinds = run.tracer.kinds()

    def expect(label: str, counter_value, event_count: int) -> None:
        if counter_value != event_count:
            out.append(Violation(
                "counter_trace", run.leg,
                f"{label}: counter={counter_value} trace_events={event_count}",
            ))

    expect("delivered", r.counter_total("hca.*.delivered"), kinds.get("delivered", 0))
    expect(
        "filtered", r.counter_total("switch.*.filtered_drops"), kinds.get("filtered", 0)
    )
    expect(
        "hca drops",
        sum(r.counter_total(f"hca.*.{name}") for name in HCA_DROP_COUNTERS),
        kinds.get("dropped", 0),
    )
    expect("traps", r.counter_total("hca.*.traps_sent"), kinds.get("trap_raised", 0))
    # SIF and Bloom filters register under the same filter.* counter scopes
    # but trace mode-specific kinds — the registry total must equal the sum.
    expect(
        "filter activations",
        r.counter_total("filter.*.activations"),
        kinds.get("sif_activated", 0) + kinds.get("bloom_activated", 0),
    )
    expect(
        "filter deactivations",
        r.counter_total("filter.*.deactivations"),
        kinds.get("sif_deactivated", 0) + kinds.get("bloom_deactivated", 0),
    )
    # a submit still inside auth.prepare's pipeline delay at sim end is
    # traced 'created' but never reached a send queue
    submitted = r.counter_total("hca.*.submitted")
    created = kinds.get("created", 0)
    if submitted > created:
        out.append(Violation(
            "counter_trace", run.leg,
            f"submitted: counter={submitted} > created={created}",
        ))
    # reroute_buffered can drop unroutables without a trace event, so the
    # counter bounds the events rather than equalling them.
    unroutable = r.counter_total("switch.*.unroutable_drops")
    if unroutable < kinds.get("unroutable", 0):
        out.append(Violation(
            "counter_trace", run.leg,
            f"unroutable: counter={unroutable} < trace_events={kinds.get('unroutable', 0)}",
        ))
    ups: dict[str, int] = {}
    downs: dict[str, int] = {}
    for event in run.tracer.of_kind("link_down", "link_up"):
        (downs if event.kind == "link_down" else ups)[event.where] = (
            (downs if event.kind == "link_down" else ups).get(event.where, 0) + 1
        )
    for where, n_up in sorted(ups.items()):
        if n_up > downs.get(where, 0):
            out.append(Violation(
                "counter_trace", run.leg,
                f"link {where}: link_up x{n_up} > link_down x{downs.get(where, 0)}",
            ))
    return out


def check_sif_legality(run: FuzzRun) -> list[Violation]:
    """Trap-driven filter state machines (SIF and Bloom): activation needs a
    prior trap, each mode's events only appear under its own enforcement,
    and SIF's Invalid_P_Key_Table stays within the whitelist bound."""
    out: list[Violation] = []
    events = run.tracer.events
    enforcement = run.scenario.config.get("enforcement")
    traps = [e.time_ps for e in events if e.kind == "trap_raised"]
    first_trap = min(traps) if traps else None
    for kind, owner in (("sif_activated", "sif"), ("bloom_activated", "bloom")):
        activated = [e for e in events if e.kind == kind]
        if enforcement != owner:
            if activated:
                out.append(Violation(
                    "sif_legality", run.leg,
                    f"{kind} without {owner} enforcement"
                    f" ({len(activated)} events)",
                ))
            continue
        for event in activated:
            if first_trap is None or event.time_ps < first_trap:
                out.append(Violation(
                    "sif_legality", run.leg,
                    f"{event.where} activated at {event.time_ps}ps"
                    f" with no prior trap",
                ))
    for lid in run.fabric.lids:
        filt = run.fabric.ingress_switch(lid).filters[run.fabric.ingress_port(lid)]
        if isinstance(filt, SIFPortFilter):
            bound = max(1, len(filt.partition_table))
            if len(filt.invalid_table) > bound:
                out.append(Violation(
                    "sif_legality", run.leg,
                    f"{filt.scope}: invalid_table={len(filt.invalid_table)}"
                    f" exceeds whitelist bound {bound}",
                ))
        elif isinstance(filt, BloomPortFilter):
            # Constant-memory contract: the bit array never grows, and the
            # false-positive classifier can never exceed the drop count.
            if filt.bloom.memory_bytes != (filt.bloom.num_bits + 7) // 8:
                out.append(Violation(
                    "sif_legality", run.leg,
                    f"{filt.scope}: bloom memory {filt.bloom.memory_bytes}B"
                    f" deviates from fixed {(filt.bloom.num_bits + 7) // 8}B",
                ))
            if int(filt.false_positive_drops) > int(filt.drops):
                out.append(Violation(
                    "sif_legality", run.leg,
                    f"{filt.scope}: false_positive_drops="
                    f"{int(filt.false_positive_drops)} exceeds"
                    f" drops={int(filt.drops)}",
                ))
    return out


def check_auth_soundness(run: FuzzRun) -> list[Violation]:
    """No tampered or forged packet may ever be delivered as authentic."""
    bad = run.tampered_ids | run.injected_ids
    if not bad:
        return []
    out = []
    for event in run.tracer.of_kind("delivered"):
        if event.packet_id in bad:
            kind = "tampered" if event.packet_id in run.tampered_ids else "forged"
            out.append(Violation(
                "auth_soundness", run.leg,
                f"{kind} packet #{event.packet_id} delivered at"
                f" {event.where} ({event.time_ps}ps)",
            ))
    return out


def check_ready_index(run: FuzzRun) -> list[Violation]:
    """Each switch's maintained ready-head index equals a fresh recount."""
    out: list[Violation] = []
    for sw in run.fabric.all_switches():
        maintained = sw._head_ready
        recount = sw.count_head_ready()
        if maintained != recount:
            out.append(Violation(
                "ready_index", run.leg,
                f"{sw.name}: maintained {maintained} != recount {recount}",
            ))
    return out


def check_credit_conservation(run: FuzzRun) -> list[Violation]:
    """Per link and VL: credits + deferred returns + packets in transit +
    receiver slots held == ``vl_buffer_packets``."""
    fabric = run.fabric
    capacity = fabric.config.vl_buffer_packets
    in_transit: Counter[tuple[str, int]] = Counter()
    for _, fn, args in fabric.engine.queued():
        link = getattr(fn, "__self__", None)
        if isinstance(link, Link) and fn.__func__ in (Link._complete, Link._arrive):
            in_transit[link.name, args[0].vl] += 1
    out: list[Violation] = []
    for link in fabric.all_links():
        credits = link.credits
        for vl, credit in enumerate(credits):
            deferred = link.pending_returns(vl)
            wire = in_transit[link.name, vl]
            held = link.dst.slots_held(link.dst_port, vl)
            if credit + deferred + wire + held != capacity:
                out.append(Violation(
                    "credit_conservation", run.leg,
                    f"{link.name} VL{vl}: credits={credit} + deferred={deferred}"
                    f" + in_transit={wire} + held={held} != {capacity}",
                ))
    return out


def check_bloom_vs_sif(run: FuzzRun) -> list[Violation]:
    """The Bloom contract on a shadow leg: over-filtering allowed (and
    counted), under-filtering relative to SIF never.

    For every wrapped ingress port: (a) no packet SIF dropped was passed by
    the identically-fed Bloom filter, (b) the Bloom drop count therefore
    dominates SIF's, (c) every extra drop is classified — drops minus false
    positives never exceeds what exact state would have dropped."""
    out: list[Violation] = []
    for shadow in run.bloom_shadows:
        scope = shadow.sif.scope
        if shadow.under_filtered:
            pid, pkey, t = shadow.under_filtered[0]
            out.append(Violation(
                "bloom_dominance", run.leg,
                f"{scope}: bloom passed {len(shadow.under_filtered)} packets"
                f" SIF dropped — first packet #{pid}"
                f" pkey=0x{pkey:04x} at {t}ps",
            ))
        sif_drops = int(shadow.sif.drops)
        bloom_drops = int(shadow.bloom.drops)
        if bloom_drops < sif_drops:
            out.append(Violation(
                "bloom_dominance", run.leg,
                f"{scope}: bloom drops={bloom_drops} < sif drops={sif_drops}",
            ))
        fp = int(shadow.bloom.false_positive_drops)
        if fp > bloom_drops:
            out.append(Violation(
                "bloom_dominance", run.leg,
                f"{scope}: false_positive_drops={fp} exceeds drops={bloom_drops}",
            ))
    return out


ORACLES: dict[str, Callable[[FuzzRun], list[Violation]]] = {
    "conservation": check_conservation,
    "counter_trace": check_counter_trace,
    "sif_legality": check_sif_legality,
    "auth_soundness": check_auth_soundness,
    "ready_index": check_ready_index,
    "credit_conservation": check_credit_conservation,
}


def check_run(run: FuzzRun) -> list[Violation]:
    """Every single-run oracle over one execution."""
    out: list[Violation] = []
    for oracle in ORACLES.values():
        out.extend(oracle(run))
    return out


# -- sharded-engine differential ----------------------------------------------


def _delivery_key(report: SimReport) -> list[tuple] | None:
    """Order-independent exact delivery record: every sample as an integer
    tuple, canonically sorted.  Shards interleave same-picosecond deliveries
    differently than one engine would, so raw sample *order* (and therefore
    Welford float accumulation order) is outside the guarantee — the sorted
    integer tuples are not."""
    if report.metrics is None:
        return None
    return sorted(
        (s.delivered, s.created, int(s.source), int(s.destination),
         s.traffic_class)
        for s in report.metrics.samples
    )


def execute_sharded(
    scenario: Scenario, transport: str | None = None
) -> tuple[SimReport, SimReport]:
    """Run *scenario* single-process and sharded; return both reports.

    The scenario's config carries its shard count (``shards=2`` from
    :func:`~repro.fuzz.generators.generate_shard_scenario`); the
    single-process leg is the identical config with ``shards=1``.
    *transport* optionally overrides the scenario's ``shard_transport``.
    """
    from dataclasses import replace

    if not scenario.schedule_free:
        raise ValueError(
            "sharded differential scenarios must not carry faults, tampers, "
            "or injections — those install through the single-process setup "
            "hook"
        )
    config = scenario.build_config()
    if transport is not None:
        config = replace(config, shard_transport=transport)
    single = run_simulation(replace(config, shards=1))
    sharded = run_simulation(config)
    return single, sharded


def check_shard_differential(
    single: SimReport, sharded: SimReport
) -> list[Violation]:
    """The sharded run must match the single-process oracle exactly on
    counter totals (``shard.*`` bookkeeping aside), the drop taxonomy,
    the delivered count, per-class delivery counts, and the full sorted
    delivery record."""
    oracle = "shard_differential"
    out: list[Violation] = []

    sc = single.counters
    hc = {
        k: v for k, v in sharded.counters.items()
        if not k.startswith("shard.")
    }
    diff_keys = sorted(
        k for k in (sc.keys() | hc.keys()) if sc.get(k) != hc.get(k)
    )
    if diff_keys:
        shown = ", ".join(
            f"{k}: single={sc.get(k)} sharded={hc.get(k)}"
            for k in diff_keys[:5]
        )
        out.append(Violation(
            oracle, "sharded",
            f"{len(diff_keys)} counters differ — {shown}",
        ))
    if single.drops != sharded.drops:
        out.append(Violation(
            oracle, "sharded",
            f"drop taxonomies differ: single={single.drops}"
            f" sharded={sharded.drops}",
        ))
    if single.delivered != sharded.delivered:
        out.append(Violation(
            oracle, "sharded",
            f"delivered differ: single={single.delivered}"
            f" sharded={sharded.delivered}",
        ))
    single_counts = {c: s.count for c, s in single.stats.items()}
    sharded_counts = {c: s.count for c, s in sharded.stats.items()}
    if single_counts != sharded_counts:
        out.append(Violation(
            oracle, "sharded",
            f"per-class delivery counts differ: single={single_counts}"
            f" sharded={sharded_counts}",
        ))
    if _delivery_key(single) != _delivery_key(sharded):
        out.append(Violation(
            oracle, "sharded",
            "delivery records differ (sorted per-sample timing tuples)",
        ))
    return out


# -- full scenario verdict ----------------------------------------------------


@dataclass
class ScenarioResult:
    """Verdict of one scenario across every leg.

    ``fast`` is the plain run; ``bloom_shadow`` (SIF scenarios only)
    re-runs it with shadow Bloom filters riding the SIF ingress ports for
    the dominance oracle."""

    scenario: Scenario
    violations: list[Violation]
    fast: FuzzRun | None = None
    bloom_shadow: FuzzRun | None = None

    @property
    def ok(self) -> bool:
        return not self.violations


def run_scenario(scenario: Scenario) -> ScenarioResult:
    """Execute a scenario on every leg and run every oracle.

    Legs: ``fast``, and for SIF scenarios the ``bloom_shadow`` leg.
    """
    fast = execute_scenario(scenario)
    violations = check_run(fast)
    shadow = None
    if scenario.config.get("enforcement") == "sif":
        shadow = execute_scenario(scenario, bloom_shadow=True)
        violations += check_run(shadow) + check_bloom_vs_sif(shadow)
    return ScenarioResult(
        scenario=scenario, violations=violations, fast=fast,
        bloom_shadow=shadow,
    )
