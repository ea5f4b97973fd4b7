"""Workload generators — the paper's two traffic classes (Section 3.1).

* **Realtime**: "a continuous stream of packets with a higher priority than
  best-effort traffic … does not send any packet when the current network
  status cannot support the application's bandwidth requirement, and it
  also does not send faster than its predefined sending rate."  Modelled as
  a fixed-interval source that skips a slot whenever its HCA send queue is
  already deeper than a backoff threshold.

* **Best-effort**: "generated with a given injection rate and generally
  with Poisson distribution, which is similar to scientific workloads …
  does not take current network conditions into considerations."  Modelled
  as exponential inter-arrivals into an unbounded send queue — which is why
  its queuing time explodes under DoS (Figure 1b).

Load is expressed as a fraction of the 2.5 Gbps link bandwidth, measured in
on-the-wire bytes (MTU payload plus LRH/BTH/DETH/CRC overhead).

Beyond plain Poisson, the best-effort side has an **open-loop family**
(``SimConfig.traffic_model``, built by :func:`make_open_loop_source`): MMPP
on/off bursts, a flash-crowd rate step, synchronized incast fan-in, and an
elephant/mice rate mix.  All of them draw exclusively from named
:class:`~repro.sim.rng.RngStreams` streams, so per-seed byte-determinism —
and with it the sweep cache and the golden digests — is
preserved.

A source's destinations are :class:`Peer` objects, one per LID for the
whole fabric.  The runner builds each partition's peer list once, and a
source reads it through a :class:`PeerView` that skips the source's own
LID, so no source holds a copy.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from collections.abc import Iterator, Sequence
from operator import attrgetter

from repro.iba.hca import HCA
from repro.iba.keys import PKey, QKey
from repro.iba.packet import (
    BaseTransportHeader,
    DataPacket,
    DatagramExtendedHeader,
    LOCAL_UD_OVERHEAD,
    LocalRouteHeader,
)
from repro.iba.qp import QueuePair
from repro.iba.types import LID, QPN, ServiceType, TrafficClass
from repro.sim.engine import Engine
from repro.sim.rng import exponential_ps


#: Constant tail of the default synthetic UD payload.
_UD_PAD = b"\x5a" * 25


def payload_prefix(src_lid: LID, dst_lid: LID) -> bytes:
    """The per-(source, destination) constant head of the default payload.

    Sources keep their own LID's two bytes and each :class:`Peer` keeps its
    LID's two, so a send joins the two halves instead of calling this, and
    the per-packet payload build folds in only the 3 PSN bytes (see
    :func:`make_ud_packet`)."""
    return lid_bytes(src_lid) + lid_bytes(dst_lid)


def lid_bytes(lid: LID) -> bytes:
    """A LID as the two big-endian bytes it contributes to the payload."""
    return int(lid).to_bytes(2, "big")


def make_ud_packet(
    src: HCA,
    src_qp: QueuePair,
    dst_lid: LID,
    dst_qpn: QPN,
    dst_qkey: QKey,
    pkey: PKey,
    traffic_class: TrafficClass,
    mtu_bytes: int,
    payload: bytes | None = None,
    is_attack: bool = False,
    prefix: bytes | None = None,
) -> DataPacket:
    """Build a UD data packet with real headers and a deterministic payload.

    ``wire_length`` is the full MTU frame; the byte payload carried for
    CRC/MAC purposes is compact (the fabric times by wire_length).
    *prefix*, when given, must equal ``payload_prefix(src.lid, dst_lid)``
    and short-circuits the two per-packet ``int.to_bytes`` calls.
    """
    wire_length = mtu_bytes + LOCAL_UD_OVERHEAD
    psn = src_qp.next_psn()
    if payload is None:
        if prefix is None:
            prefix = payload_prefix(src.lid, dst_lid)
        payload = prefix + psn.to_bytes(3, "big") + _UD_PAD
    lrh = LocalRouteHeader(
        vl=traffic_class.vl,
        service_level=traffic_class.vl,
        dlid=dst_lid,
        slid=src.lid,
        packet_length=(wire_length + 3) // 4,
    )
    bth = BaseTransportHeader(opcode=0x64, pkey=pkey, dest_qp=dst_qpn, psn=psn)
    deth = DatagramExtendedHeader(qkey=dst_qkey, src_qp=src_qp.qpn)
    return DataPacket(
        lrh=lrh,
        bth=bth,
        deth=deth,
        payload=payload,
        wire_length=wire_length,
        service=ServiceType.UNRELIABLE_DATAGRAM,
        traffic_class=traffic_class,
        is_attack=is_attack,
    )


def make_rc_packet(
    src: HCA,
    src_qp: QueuePair,
    mtu_bytes: int,
    payload: bytes | None = None,
    traffic_class: TrafficClass = TrafficClass.BEST_EFFORT,
) -> DataPacket:
    """Build a connected-service packet on an established RC QP.

    RC packets carry no DETH ("packets only carry a P_Key; no Q_Key is
    included here" — Section 4.3); the destination comes from the QP's
    connection state.
    """
    from repro.iba.packet import LOCAL_RC_OVERHEAD
    from repro.iba.types import ServiceType

    if src_qp.connected_to is None:
        raise ValueError("RC QP is not connected")
    dst_lid, dst_qpn = src_qp.connected_to
    wire_length = mtu_bytes + LOCAL_RC_OVERHEAD
    psn = src_qp.next_psn()
    if payload is None:
        payload = b"\xa5" * 32
    lrh = LocalRouteHeader(
        vl=traffic_class.vl,
        service_level=traffic_class.vl,
        dlid=dst_lid,
        slid=src.lid,
        packet_length=(wire_length + 3) // 4,
    )
    bth = BaseTransportHeader(opcode=0x04, pkey=src_qp.pkey, dest_qp=dst_qpn, psn=psn)
    return DataPacket(
        lrh=lrh,
        bth=bth,
        deth=None,
        payload=payload,
        wire_length=wire_length,
        service=ServiceType.RELIABLE_CONNECTION,
        traffic_class=traffic_class,
    )


class Peer:
    """A destination a source may send to: (lid, QPN, Q_Key).

    A peer depends only on its own node, so one fabric builds one per LID
    and every source sending there shares it."""

    __slots__ = ("lid", "qpn", "qkey", "lid_bytes")

    def __init__(self, lid: LID, qpn: QPN, qkey: QKey) -> None:
        self.lid = lid
        self.qpn = qpn
        self.qkey = qkey
        #: the destination half of :func:`payload_prefix`.
        self.lid_bytes = lid_bytes(lid)


class PeerView:
    """A source's peers: its partition's shared, LID-sorted peer list
    without the source's own LID, read in place rather than copied.

    Index *i* reads the shared list at *i*, or *i* + 1 from the source's
    own position on, so ``rng.choice(view)`` (``view[randbelow(len(view))]``)
    draws exactly what it drew from a per-source copy.  ``len``, iteration
    and ``in`` work as on that copy; the view cannot be written to.
    """

    __slots__ = ("_peers", "_skip", "_len")

    def __init__(self, peers: list[Peer], lid: int) -> None:
        self._peers = peers
        pos = bisect_left(peers, lid, key=attrgetter("lid"))
        if pos < len(peers) and peers[pos].lid == lid:
            self._skip, self._len = pos, len(peers) - 1
        else:
            self._skip, self._len = len(peers), len(peers)

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, i: int) -> Peer:
        if i < 0:
            i += self._len
        if not 0 <= i < self._len:
            raise IndexError("peer index out of range")
        return self._peers[i if i < self._skip else i + 1]

    def __iter__(self) -> Iterator[Peer]:
        peers, skip = self._peers, self._skip
        return (peers[i] for i in range(len(peers)) if i != skip)

    def __contains__(self, peer: object) -> bool:
        return any(p is peer or p == peer for p in self)


class BestEffortSource:
    """Poisson open-loop source sending to same-partition peers."""

    def __init__(
        self,
        engine: Engine,
        hca: HCA,
        qp: QueuePair,
        peers: Sequence[Peer],
        pkey: PKey,
        load: float,
        mtu_bytes: int,
        byte_time_ps: int,
        rng: random.Random,
        stop_at_ps: int,
    ) -> None:
        if not peers:
            raise ValueError("best-effort source needs at least one peer")
        if not 0 < load <= 1.0:
            raise ValueError("load must be in (0, 1]")
        self.engine = engine
        self.hca = hca
        self.qp = qp
        self.peers = peers
        self.pkey = pkey
        self.mtu_bytes = mtu_bytes
        self.rng = rng
        self.stop_at_ps = stop_at_ps
        wire = mtu_bytes + LOCAL_UD_OVERHEAD
        self.mean_gap_ps = wire * byte_time_ps / load
        self.generated = 0
        self._lid_bytes = lid_bytes(hca.lid)

    def start(self) -> None:
        self.engine.schedule_pooled(self._next_gap_ps(), self._arrival)

    def _next_gap_ps(self) -> int:
        """Draw the next inter-arrival gap — the subclass hook the open-loop
        family overrides (rate steps, bimodal mixes)."""
        return exponential_ps(self.rng, self.mean_gap_ps)

    def _send_one(self, peer: Peer) -> None:
        pkt = make_ud_packet(
            self.hca, self.qp, peer.lid, peer.qpn, peer.qkey,
            self.pkey, TrafficClass.BEST_EFFORT, self.mtu_bytes,
            prefix=self._lid_bytes + peer.lid_bytes,
        )
        self.hca.submit(pkt)
        self.generated += 1

    def _arrival(self) -> None:
        if self.engine.now >= self.stop_at_ps:
            return
        self._send_one(self.rng.choice(self.peers))
        self.engine.schedule_pooled(self._next_gap_ps(), self._arrival)


class RealtimeSource:
    """Rate-limited, self-throttling stream source."""

    def __init__(
        self,
        engine: Engine,
        hca: HCA,
        qp: QueuePair,
        peers: Sequence[Peer],
        pkey: PKey,
        load: float,
        mtu_bytes: int,
        byte_time_ps: int,
        rng: random.Random,
        stop_at_ps: int,
        backoff_queue: int = 8,
    ) -> None:
        if not peers:
            raise ValueError("realtime source needs at least one peer")
        if not 0 < load <= 1.0:
            raise ValueError("load must be in (0, 1]")
        self.engine = engine
        self.hca = hca
        self.qp = qp
        self.peers = peers
        self.pkey = pkey
        self.mtu_bytes = mtu_bytes
        self.rng = rng
        self.stop_at_ps = stop_at_ps
        self.backoff_queue = backoff_queue
        wire = mtu_bytes + LOCAL_UD_OVERHEAD
        self.interval_ps = round(wire * byte_time_ps / load)
        self.generated = 0
        self.throttled = 0
        self._lid_bytes = lid_bytes(hca.lid)

    def start(self) -> None:
        # Random phase so the fabric's realtime streams are not in lockstep.
        phase = self.rng.randrange(self.interval_ps)
        self.engine.schedule_pooled(phase, self._tick)

    def _tick(self) -> None:
        if self.engine.now >= self.stop_at_ps:
            return
        if self.hca.queue_depth(TrafficClass.REALTIME) >= self.backoff_queue:
            # Network can't support the stream right now: skip this slot
            # rather than queueing deeper (the paper's realtime semantics).
            self.throttled += 1
        else:
            peer = self.rng.choice(self.peers)
            pkt = make_ud_packet(
                self.hca, self.qp, peer.lid, peer.qpn, peer.qkey,
                self.pkey, TrafficClass.REALTIME, self.mtu_bytes,
                prefix=self._lid_bytes + peer.lid_bytes,
            )
            self.hca.submit(pkt)
            self.generated += 1
        self.engine.schedule_pooled(self.interval_ps, self._tick)


# --------------------------------------------------------------------------
# open-loop traffic family (SimConfig.traffic_model)


class MMPPSource(BestEffortSource):
    """Two-state on/off Markov-modulated Poisson source.

    Sojourn times in ON and OFF are exponential (means ``on_us``/``off_us``,
    drawn from *modulation_rng* — a separate named stream, so the burst
    schedule does not perturb the arrival draws).  While ON, arrivals are
    Poisson at rate ``load * (on + off) / on``; while OFF the source is
    silent — the long-run average rate equals the configured *load*, which
    keeps MMPP sweeps comparable to plain Poisson at the same ``load`` axis.
    """

    def __init__(self, *args, on_us: float, off_us: float,
                 modulation_rng: random.Random, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        from repro.sim.engine import PS_PER_US

        self.on_ps = max(1.0, on_us * PS_PER_US)
        self.off_ps = max(0.0, off_us * PS_PER_US)
        self.mod_rng = modulation_rng
        # burst-state gap: compensate for the silent fraction of time.
        self.burst_gap_ps = self.mean_gap_ps * self.on_ps / (self.on_ps + self.off_ps)
        self.on = False
        self.bursts = 0
        # Arrival-chain epoch: an OFF→ON flip starts a fresh chain and any
        # still-pending arrival from a previous ON period must not revive
        # (it would double the injection rate), so arrivals carry the epoch
        # they were scheduled under and drop themselves when it is stale.
        self._epoch = 0

    def start(self) -> None:
        # Start in the stationary state mix so short runs are not biased
        # toward the (usually long) OFF state.
        p_on = self.on_ps / (self.on_ps + self.off_ps)
        if self.off_ps <= 0 or self.mod_rng.random() < p_on:
            self._enter_on()
        else:
            self.engine.schedule_pooled(
                exponential_ps(self.mod_rng, self.off_ps), self._enter_on
            )

    def _enter_on(self) -> None:
        if self.engine.now >= self.stop_at_ps:
            return
        self.on = True
        self.bursts += 1
        self._epoch += 1
        self.engine.schedule_pooled(
            exponential_ps(self.rng, self.burst_gap_ps), self._arrival, self._epoch
        )
        if self.off_ps > 0:
            self.engine.schedule_pooled(
                exponential_ps(self.mod_rng, self.on_ps), self._enter_off
            )

    def _enter_off(self) -> None:
        self.on = False
        if self.engine.now < self.stop_at_ps:
            self.engine.schedule_pooled(
                exponential_ps(self.mod_rng, self.off_ps), self._enter_on
            )

    def _next_gap_ps(self) -> int:
        return exponential_ps(self.rng, self.burst_gap_ps)

    def _arrival(self, epoch: int | None = None) -> None:
        if epoch is not None and epoch != self._epoch:
            return  # stale chain from a previous ON period
        if not self.on or self.engine.now >= self.stop_at_ps:
            return
        self._send_one(self.rng.choice(self.peers))
        self.engine.schedule_pooled(self._next_gap_ps(), self._arrival, epoch)


class FlashCrowdSource(BestEffortSource):
    """Poisson source with a rate step at a scheduled instant.

    Before ``step_at_ps`` it injects at the configured *load*; from the
    step on, at ``load * multiplier`` — the open-loop flash-crowd model
    (nothing about the fabric's state feeds back into the rate).
    """

    def __init__(self, *args, step_at_ps: int, multiplier: float, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        if multiplier < 1.0:
            raise ValueError("flash-crowd multiplier must be >= 1")
        self.step_at_ps = max(0, int(step_at_ps))
        self.multiplier = multiplier

    def _next_gap_ps(self) -> int:
        gap = self.mean_gap_ps
        if self.engine.now >= self.step_at_ps:
            gap = gap / self.multiplier
        return exponential_ps(self.rng, gap)


class IncastSource(BestEffortSource):
    """Background Poisson plus synchronized fan-in bursts at one victim.

    Every ``period_ps`` (at exact multiples of the period — all sources in
    the fabric burst at the same instant), the source aims
    ``burst_packets`` back-to-back MTU frames at *victim* (the factory
    picks each partition's lowest-LID member, so a whole partition's bursts
    converge on a single HCA — the classic incast hotspot).
    """

    def __init__(self, *args, period_ps: int, burst_packets: int,
                 victim: Peer, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        if period_ps <= 0:
            raise ValueError("incast period must be positive")
        if burst_packets < 1:
            raise ValueError("incast burst must be >= 1 packets")
        if victim not in self.peers:
            raise ValueError("incast victim must be one of the peers")
        self.period_ps = int(period_ps)
        self.burst_packets = burst_packets
        self.victim = victim
        self.burst_sent = 0

    def start(self) -> None:
        super().start()  # background Poisson chain
        self.engine.schedule_at(self.period_ps, self._burst)

    def _burst(self) -> None:
        if self.engine.now >= self.stop_at_ps:
            return
        for _ in range(self.burst_packets):
            self._send_one(self.victim)
            self.burst_sent += 1
        self.engine.schedule_pooled(self.period_ps, self._burst)


class ElephantMiceSource(BestEffortSource):
    """Poisson source whose rate is the elephant or mouse share of *load*.

    The factory decides each node's role from its own named stream and
    scales the rates so the expected aggregate stays at the configured
    load: elephants inject at ``load * boost``, mice at
    ``load * (1 - fraction * boost) / (1 - fraction)``.
    """

    def __init__(self, *args, elephant: bool, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.elephant = elephant


def make_open_loop_source(
    config,
    engine: Engine,
    hca: HCA,
    qp: QueuePair,
    peers: Sequence[Peer],
    pkey: PKey,
    byte_time_ps: int,
    streams,
    lid: LID,
) -> BestEffortSource:
    """Build the best-effort source ``config.traffic_model`` asks for.

    Every stochastic choice (arrivals, MMPP modulation, elephant role) comes
    from its own named stream of *streams* (an
    :class:`~repro.sim.rng.RngStreams`), so two runs of the same config are
    byte-identical and a model change perturbs only its own streams.
    """
    from repro.sim.engine import PS_PER_US

    model = config.traffic_model
    rng = streams.get("be", lid)
    args = (engine, hca, qp, peers, pkey)
    load = config.best_effort_load
    common = dict(
        mtu_bytes=config.mtu_bytes, byte_time_ps=byte_time_ps,
        rng=rng, stop_at_ps=config.sim_time_ps,
    )
    if model == "poisson":
        return BestEffortSource(*args, load, **common)
    if model == "mmpp":
        return MMPPSource(
            *args, load, **common,
            on_us=config.mmpp_on_us, off_us=config.mmpp_off_us,
            modulation_rng=streams.get("mmpp", lid),
        )
    if model == "flash_crowd":
        return FlashCrowdSource(
            *args, load, **common,
            step_at_ps=round(config.flash_crowd_at_us * PS_PER_US),
            multiplier=config.flash_crowd_multiplier,
        )
    if model == "incast":
        victim = min(peers, key=lambda p: int(p.lid))
        return IncastSource(
            *args, load, **common,
            period_ps=round(config.incast_period_us * PS_PER_US),
            burst_packets=config.incast_burst_packets,
            victim=victim,
        )
    if model == "elephant_mice":
        f, boost = config.elephant_fraction, config.elephant_boost
        elephant = f > 0 and streams.get("role", lid).random() < f
        if elephant:
            node_load = min(1.0, load * boost)
        else:
            node_load = load * (1.0 - f * boost) / (1.0 - f) if f > 0 else load
        return ElephantMiceSource(*args, node_load, **common, elephant=elephant)
    raise ValueError(f"unknown traffic_model {model!r}")
