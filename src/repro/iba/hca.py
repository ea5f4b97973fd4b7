"""Host Channel Adapter — injection, reception, and the security checkpoints.

The HCA is where the paper's measurements and mechanisms meet:

* **Queuing time** (Figure 1's exploding metric) is the wait in the HCA send
  queue: with credit-based flow control the fabric only accepts a packet
  when buffer space exists, so congestion queues here, not in the network.
* The HCA owns the **partition table** ("The HCA must implement a partition
  table ... to enforce access control") — the receive-side P_Key check, the
  P_Key Violation Counter, and the **trap** to the Subnet Manager that SIF
  turns into its activation signal.
* The receive path runs the paper's full checkpoint sequence: P_Key →
  Q_Key (datagram) → ICRC-or-AT verification → optional replay check.

Authentication is injected as an :class:`AuthService` so the stock-IBA
(plain ICRC) path and the paper's MAC path are interchangeable per run.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Protocol

from repro.iba.keys import KeySet, PKey
from repro.iba.link import Link
from repro.iba.packet import DataPacket, PacketIds, TrapMAD
from repro.iba.qp import QueuePair
from repro.iba.types import LID, QPN, ServiceType, TrafficClass, class_for_vl
from repro.iba.arbiter import PRIORITY_VLS
from repro.sim.counters import CounterRegistry
from repro.sim.engine import Engine, PS_PER_NS, PS_PER_US
from repro.sim.metrics import LatencySample, MetricsCollector
from repro.sim.trace import Tracer, null_trace

#: Send-queue slot of a VL that has not carried a packet yet.
_NO_QUEUE: tuple = ()


class AuthService(Protocol):
    """Pluggable ICRC/AT machinery (implemented in :mod:`repro.core.auth`)."""

    def prepare(self, packet: DataPacket, sender: "HCA") -> int:
        """Stamp the packet's ICRC/AT.  Returns extra sender-side delay (ps)
        — key-exchange round trips, MAC pipeline stage — incurred before the
        packet may enter the send queue."""
        ...

    def verify(self, packet: DataPacket, receiver: "HCA") -> bool:
        """Receive-side ICRC/AT check."""
        ...

    def verify_delay_ps(self) -> int:
        """Extra receive-side pipeline delay per packet."""
        ...


class HCA:
    """One node's channel adapter (one port, per Section 3.1's assumption)."""

    def __init__(
        self,
        engine: Engine,
        lid: LID,
        num_vls: int,
        vl_buffer_packets: int,
        processing_delay_ns: float,
        credit_return_delay_ns: float,
        metrics: MetricsCollector | None = None,
        warmup_ps: int = 0,
        trap_min_interval_us: float = 20.0,
        registry: CounterRegistry | None = None,
        tracer: Tracer | None = None,
        packet_ids: PacketIds | None = None,
    ) -> None:
        self.engine = engine
        self.lid = lid
        #: id source shared with the rest of the fabric (see PacketIds).
        self.packet_ids = packet_ids if packet_ids is not None else PacketIds()
        self.registry = registry if registry is not None else CounterRegistry()
        self.tracer = tracer
        # Bound once: no per-emission branch on the untraced hot path
        # (see DESIGN.md §3f).
        self._trace = tracer.record if tracer is not None else null_trace
        self._trace_name = f"hca{int(lid)}"
        self.num_vls = num_vls
        self.processing_delay_ps = round(processing_delay_ns * PS_PER_NS)
        self.credit_return_delay_ps = round(credit_return_delay_ns * PS_PER_NS)
        self.metrics = metrics
        self.warmup_ps = warmup_ps
        # send side: a VL gets its deque at its first packet; until then its
        # slot holds the empty tuple _NO_QUEUE, which reads as an empty queue.
        # Deques, not bounded lists: a best-effort queue grows without bound
        # under DoS, and the injector pops its head.
        self.send_queues: list[deque[DataPacket] | tuple] = [_NO_QUEUE] * num_vls
        self.out_link: Link | None = None
        # receive side
        self.in_link: Link | None = None
        self.rx_capacity = vl_buffer_packets
        self._rx_occupancy = [0] * num_vls
        # security state
        self.keys = KeySet()
        self.qps: dict[QPN, QueuePair] = {}
        self.auth: AuthService | None = None
        self.replay_protection = False
        scope = f"hca.{int(lid)}"
        #: packets that entered a send queue (legitimate submit *or* raw
        #: attacker injection) — the "created" side of the fuzz subsystem's
        #: packet-conservation invariant.  Counted at enqueue time so a
        #: packet stalled in auth.prepare's key-exchange delay is neither
        #: created nor in-flight yet.
        self.submitted = self.registry.counter(f"{scope}.submitted")
        self.pkey_violations = self.registry.counter(f"{scope}.pkey_violations")
        self.qkey_violations = self.registry.counter(f"{scope}.qkey_violations")
        self.auth_failures = self.registry.counter(f"{scope}.auth_failures")
        self.replay_drops = self.registry.counter(f"{scope}.replay_drops")
        self.delivered = self.registry.counter(f"{scope}.delivered")
        self.traps_sent = self.registry.counter(f"{scope}.traps_sent")
        #: called with a TrapMAD to reach the SM (wired by the fabric builder).
        self.trap_sink: Callable[[TrapMAD], None] | None = None
        #: Bloom capability variant: stamps the in-packet membership tag on
        #: legitimate submits (wired by install_enforcement when
        #: ``bloom_inpacket_tag`` is on).  Attacker ``inject_raw`` bypasses
        #: submit() and therefore never earns a tag.
        self.bloom_stamper: Callable[[DataPacket], None] | None = None
        self._trap_min_interval_ps = round(trap_min_interval_us * PS_PER_US)
        self._last_trap_ps = -(10**18)
        #: Figure-1 accounting: time attack packets too (at their drop point).
        self.record_attack_packets = False

    # --- wiring ------------------------------------------------------------

    def attach_out_link(self, link: Link) -> None:
        self.out_link = link
        link.on_free = self._try_inject
        link.on_credit = lambda vl: self._try_inject()

    def attach_in_link(self, link: Link) -> None:
        self.in_link = link

    def add_qp(self, qp: QueuePair) -> None:
        self.qps[qp.qpn] = qp

    # --- send path -----------------------------------------------------------

    def admit(self, packet: DataPacket) -> None:
        """Send-path admission (:meth:`submit` and raw injection): stamp
        ``t_created``, take the fabric's next id, trace ``created``."""
        now = self.engine.now
        packet.t_created = now
        packet.packet_id = packet_id = self.packet_ids.next()
        self._trace(now, "created", self._trace_name, packet_id)

    def submit(self, packet: DataPacket) -> None:
        """Consumer posts a send work request."""
        self.admit(packet)
        if self.bloom_stamper is not None:
            self.bloom_stamper(packet)
        delay = 0
        if self.auth is not None:
            delay = self.auth.prepare(packet, self)
        if delay > 0:
            self.engine.schedule_pooled(delay, self._enqueue, packet)
        else:
            self._enqueue(packet)

    def _enqueue(self, packet: DataPacket) -> None:
        self.submitted.inc()
        vl = packet.lrh.vl
        queue = self.send_queues[vl]
        if queue is _NO_QUEUE:
            queue = self.send_queues[vl] = deque()
        queue.append(packet)
        self._try_inject()

    def queued_tx_count(self) -> int:
        """Packets waiting in this HCA's send queues (all VLs)."""
        return sum(len(q) for q in self.send_queues)

    def rx_in_flight_count(self) -> int:
        """Packets received but still in rx processing (pre-checkpoint)."""
        return sum(self._rx_occupancy)

    def slots_held(self, port: int, vl: int) -> int:
        """Receive slots of *vl* that hold a packet (the HCA has one port)."""
        return self._rx_occupancy[vl]

    def queue_depth(self, traffic_class: TrafficClass) -> int:
        """Send-queue length for a class — realtime sources use this to
        throttle themselves ("does not send any packet when the current
        network status cannot support the ... bandwidth requirement")."""
        return len(self.send_queues[traffic_class.vl])

    def _try_inject(self) -> None:
        link = self.out_link
        if link is None or link.busy or link.failed:
            return
        # Hot path: every link-free and woken credit-return event lands
        # here.  One packet at most: sending makes the link busy.
        queues = self.send_queues
        credits = link.credits
        waiting = 0
        for vl in PRIORITY_VLS:
            q = queues[vl]
            if q:
                if credits[vl] > 0:
                    packet = q.popleft()
                    packet.t_injected = self.engine.now
                    self._trace(self.engine.now, "injected", self._trace_name,
                                packet.packet_id)
                    link.send(packet)
                    return
                waiting |= 1 << vl
        if waiting:
            link.wait_credit(waiting)

    # --- receive path -----------------------------------------------------------

    def receive(self, packet: DataPacket, in_port: int = 0) -> None:
        """Packet fully arrived from the fabric."""
        vl = packet.lrh.vl
        if self._rx_occupancy[vl] >= self.rx_capacity:
            raise RuntimeError(f"HCA {self.lid} VL{vl} rx overflow — credit bug")
        self._rx_occupancy[vl] += 1
        delay = self.processing_delay_ps
        if self.auth is not None:
            delay += self.auth.verify_delay_ps()
        self.engine.schedule_pooled(delay, self._rx_done, packet)

    def _rx_done(self, packet: DataPacket) -> None:
        self._check_and_deliver(packet)
        vl = packet.lrh.vl
        self._rx_occupancy[vl] -= 1
        if self.in_link is not None:
            self.in_link.schedule_credit(self.credit_return_delay_ps, vl)

    def _check_and_deliver(self, packet: DataPacket) -> None:
        # 1. Partition membership (stock IBA check, plus trap on failure).
        if not self.keys.has_matching_pkey(packet.bth.pkey):
            self.pkey_violations.inc()
            self._maybe_trap(packet)
            self._drop("pkey", packet)
            # The flood crossed the whole fabric before dying here — that is
            # the paper's availability complaint.  Figure 1 therefore times
            # attack packets at their discard point.
            if packet.is_attack and self.record_attack_packets:
                self._record_sample(packet)
            return
        # 2. Datagram Q_Key check against the destination QP; connected
        #    service instead checks the packet came from the bound peer
        #    ("two QPs only communicate between each other").
        qp = self.qps.get(packet.bth.dest_qp)
        if packet.service is ServiceType.UNRELIABLE_DATAGRAM:
            if qp is None or not qp.accepts_qkey(packet.qkey):
                self.qkey_violations.inc()
                self._drop("qkey", packet)
                return
        else:  # RELIABLE_CONNECTION
            if (
                qp is None
                or qp.connected_to is None
                or int(qp.connected_to[0]) != packet.lrh.slid
            ):
                self.qkey_violations.inc()
                self._drop("rc_peer", packet)
                return
        # 3. ICRC or authentication-tag verification.
        if self.auth is not None and not self.auth.verify(packet, self):
            self.auth_failures.inc()
            self._drop("auth", packet)
            return
        # 4. Optional replay (nonce) check — Section 7 extension.
        deth = packet.deth
        if self.replay_protection and qp is not None and deth is not None:
            if not qp.check_replay(packet.lrh.slid, deth.src_qp, packet.bth.psn):
                self.replay_drops.inc()
                self._drop("replay", packet)
                return
        self.delivered.inc()
        self._trace(self.engine.now, "delivered", self._trace_name, packet.packet_id)
        if not packet.is_attack or self.record_attack_packets:
            self._record_sample(packet)

    def _record_sample(self, packet: DataPacket) -> None:
        if self.metrics is None or packet.t_created < self.warmup_ps:
            return
        lrh = packet.lrh
        self.metrics.record_delivery(
            LatencySample(
                created=packet.t_created,
                injected=packet.t_injected,
                delivered=self.engine.now,
                traffic_class=class_for_vl(lrh.vl).value,
                source=lrh.slid,
                destination=lrh.dlid,
            )
        )

    def _drop(self, reason: str, packet: DataPacket | None = None) -> None:
        if self.metrics is not None:
            self.metrics.record_drop(reason)
        if packet is not None:
            self._trace(
                self.engine.now, "dropped", self._trace_name,
                packet.packet_id, reason,
            )

    def _maybe_trap(self, packet: DataPacket) -> None:
        """Send a P_Key-violation trap to the SM (rate-limited)."""
        if self.trap_sink is None:
            return
        now = self.engine.now
        if now - self._last_trap_ps < self._trap_min_interval_ps:
            return
        self._last_trap_ps = now
        self.traps_sent.inc()
        if self.tracer is not None:
            # Cold path (rate-limited), and the detail string is expensive
            # to build — keep the explicit branch here.
            self.tracer.record(
                now, "trap_raised", self._trace_name, packet.packet_id,
                f"offender={int(packet.src)} pkey=0x{packet.pkey.value:04x}",
            )
        self.trap_sink(
            TrapMAD(
                reporter=self.lid,
                offender=packet.src,
                bad_pkey=packet.pkey,
                t_created=now,
            )
        )
