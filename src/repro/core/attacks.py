"""Attack models: the DoS flooders of Sections 3 and 7, and packet forgery.

* :class:`RandomPKeyFlooder` — the paper's main availability threat: "an
  attacker on a compromised InfiniBand node can easily trigger a DoS attack
  by flooding packets with random partition keys … Destination nodes will
  block those packets … However, they have already gone through the
  network."  Generates MTU packets back-to-back at full link speed toward
  random destinations, with random *invalid* P_Keys (or a valid one for the
  Section-7 variant that defeats any ingress filter).
* :class:`SMTrapFlooder` — Section 7's "DoS attack on the SM by dumping
  management messages and trap messages".
* :func:`forge_packet` — craft a packet using captured plaintext keys only
  (valid CRC, no MAC secret): the Table 3 attacker.  Used by
  :mod:`repro.core.threats` to show stock IBA accepting it and the
  ICRC-as-MAC fabric rejecting it with probability ≈ 1 - 2^-30.
"""

from __future__ import annotations

import random

from repro.iba import crc as ibacrc
from repro.iba.hca import HCA
from repro.iba.keys import PKey, QKey
from repro.iba.packet import DataPacket, TrapMAD
from repro.iba.qp import QueuePair
from repro.iba.types import LID, QPN, ServiceType, TrafficClass
from repro.sim.counters import CounterRegistry
from repro.sim.engine import Engine, PS_PER_US
from repro.sim.traffic import make_ud_packet


def random_invalid_pkey(rng: random.Random, valid_indices: set[int]) -> PKey:
    """A uniformly random P_Key whose index is not in *valid_indices*."""
    while True:
        idx = rng.randrange(1, 0x7FFF)  # avoid 0 and the default partition
        if idx not in valid_indices:
            member = rng.randrange(2)
            return PKey(idx | (PKey.FULL_MEMBER_BIT if member else 0))


class RandomPKeyFlooder:
    """Full-line-rate flooder active during the given attack windows."""

    def __init__(
        self,
        engine: Engine,
        hca: HCA,
        qp: QueuePair,
        target_lids: list[LID],
        valid_indices: set[int],
        mtu_bytes: int,
        byte_time_ps: int,
        rng: random.Random,
        windows: list[tuple[int, int]],
        classes: tuple[str, ...] = ("realtime", "best_effort"),
        valid_pkey: PKey | None = None,
        backlog: int = 32,
        dest_strategy: str = "spray",
        registry: CounterRegistry | None = None,
        ramp_from_ps: int = 0,
        ramp_ps: int = 0,
    ) -> None:
        if not target_lids:
            raise ValueError("flooder needs targets")
        self.engine = engine
        self.hca = hca
        self.qp = qp
        self.targets = [t for t in target_lids if int(t) != int(hca.lid)]
        self.valid_indices = valid_indices
        self.mtu_bytes = mtu_bytes
        self.rng = rng
        self.windows = windows
        self.classes = [TrafficClass(c) for c in classes]
        self.valid_pkey = valid_pkey  #: Section-7 variant: flood with this valid key.
        from repro.iba.packet import LOCAL_UD_OVERHEAD

        self.tick_ps = (mtu_bytes + LOCAL_UD_OVERHEAD) * byte_time_ps
        #: how many frames the flooder keeps staged per class so its link is
        #: driven at 100% whenever the fabric grants credits.
        self.backlog = backlog
        if dest_strategy not in ("spray", "victim"):
            raise ValueError("dest_strategy is 'spray' or 'victim'")
        #: 'spray' = new random destination per packet (Figure 1);
        #: 'victim' = one random node hammered for a whole attack window
        #: ("allow the attacker to choose random nodes to attack").
        self.dest_strategy = dest_strategy
        self._window_victim = self.targets[0]
        self.registry = registry if registry is not None else CounterRegistry()
        self.generated = self.registry.counter(f"attacker.{int(hca.lid)}.generated")
        self._class_rr = 0
        #: Coordinated ramp: before ``ramp_from_ps`` the flooder idles; over
        #: the next ``ramp_ps`` its rate climbs linearly to full line rate
        #: (gap stretching).  ``ramp_ps = 0`` keeps the legacy square-wave
        #: on/off behaviour.
        self.ramp_from_ps = max(0, int(ramp_from_ps))
        self.ramp_ps = max(0, int(ramp_ps))

    def _rate_fraction(self) -> float:
        """Fraction of line rate the ramp allows right now (0..1]."""
        if self.ramp_ps <= 0:
            return 1.0
        elapsed = self.engine.now - self.ramp_from_ps
        if elapsed >= self.ramp_ps:
            return 1.0
        # floor at 5% so the tick chain keeps advancing during the ramp-in
        return max(elapsed / self.ramp_ps, 0.05)

    def start(self) -> None:
        for start, end in self.windows:
            self.engine.schedule_at(max(start, 0), self._begin_window, end)

    def _begin_window(self, window_end: int) -> None:
        self._window_victim = self.rng.choice(self.targets)
        self._tick(window_end)

    def _tick(self, window_end: int) -> None:
        if self.engine.now >= window_end:
            return
        if self.engine.now < self.ramp_from_ps:
            # coordinated ramp hasn't begun: stay silent until it does
            self.engine.schedule_at(self.ramp_from_ps, self._tick, window_end)
            return
        # Emit at line rate, but never let the local queue grow beyond a
        # couple of frames — a NIC can't transmit faster than the wire.
        tclass = self.classes[self._class_rr % len(self.classes)]
        self._class_rr += 1
        if self.hca.queue_depth(tclass) < self.backlog:
            if self.dest_strategy == "victim":
                dst = self._window_victim
            else:
                dst = self.rng.choice(self.targets)
            pkey = self.valid_pkey or random_invalid_pkey(self.rng, self.valid_indices)
            pkt = make_ud_packet(
                self.hca, self.qp, dst, QPN(1), QKey(self.rng.randrange(1, 2**31)),
                pkey, tclass, self.mtu_bytes, is_attack=True,
            )
            pkt.bth.reserved_auth = 0
            self.hca.submit(pkt)
            self.generated.inc()
        gap = self.tick_ps // len(self.classes)
        frac = self._rate_fraction()
        if frac < 1.0:
            gap = round(gap / frac)
        self.engine.schedule_pooled(gap, self._tick, window_end)


class SMTrapFlooder:
    """Floods the Subnet Manager's trap queue with bogus violation notices."""

    def __init__(
        self,
        engine: Engine,
        sm,
        reporter: LID,
        rate_per_us: float,
        duration_us: float,
        rng: random.Random,
        registry: CounterRegistry | None = None,
    ) -> None:
        self.engine = engine
        self.sm = sm
        self.reporter = reporter
        self.gap_ps = round(PS_PER_US / rate_per_us)
        self.stop_at = round(duration_us * PS_PER_US)
        self.rng = rng
        self.registry = registry if registry is not None else CounterRegistry()
        self.sent = self.registry.counter(f"attacker.{int(reporter)}.traps_sent")

    def start(self) -> None:
        self.engine.schedule_pooled(self.gap_ps, self._tick)

    def _tick(self) -> None:
        if self.engine.now >= self.stop_at:
            return
        self.sm.submit_trap(
            TrapMAD(
                reporter=self.reporter,
                offender=LID(self.rng.randrange(1, 0xFF)),
                bad_pkey=PKey(self.rng.randrange(1, 0x7FFF)),
                t_created=self.engine.now,
            )
        )
        self.sent.inc()
        self.engine.schedule_pooled(self.gap_ps, self._tick)


def forge_packet(
    attacker: HCA,
    attacker_qp: QueuePair,
    dst_lid: LID,
    dst_qpn: QPN,
    captured_pkey: PKey,
    captured_qkey: QKey | None,
    mtu_bytes: int,
    guessed_tag: int | None = None,
    auth_fn_id: int = 0,
) -> DataPacket:
    """Craft the Table 3 attack packet from captured plaintext keys.

    The forger can always compute a correct CRC-32 (it is keyless), so the
    packet is perfectly valid to stock IBA.  Against the MAC fabric it can
    only write a *guessed* 32-bit tag (``guessed_tag``) and set the auth
    selector — succeeding with probability ~2^-30.
    """
    pkt = make_ud_packet(
        attacker, attacker_qp, dst_lid, dst_qpn,
        captured_qkey or QKey(0xDEADBEEF), captured_pkey,
        TrafficClass.BEST_EFFORT, mtu_bytes, is_attack=True,
    )
    if guessed_tag is None:
        pkt.bth.reserved_auth = 0
        pkt.icrc = ibacrc.icrc(pkt)  # VCRC unchecked in-fabric (see auth.py)
    else:
        pkt.bth.reserved_auth = auth_fn_id
        pkt.icrc = guessed_tag & 0xFFFFFFFF
    return pkt


def inject_raw(hca: HCA, packet: DataPacket) -> None:
    """Push a pre-built (possibly forged) packet into an HCA send queue,
    bypassing the node's legitimate AuthService — the attacker controls its
    own NIC.  The packet is admitted like any other (fresh id, ``created``
    event), so a replayed copy is a packet of its own."""
    hca.admit(packet)
    hca._enqueue(packet)


def make_attack_windows(
    sim_time_ps: int,
    duty_cycle: float,
    window_ps: int,
    rng: random.Random,
    start_ps: int = 0,
) -> list[tuple[int, int]]:
    """Attack on/off schedule with the requested duty cycle.

    duty 1.0 → one window covering [start, end of run] (Figure 1).
    Otherwise the span after ``start_ps`` is divided into periods of
    window/duty and each period contains one attack window at a random
    offset (Figure 5's "probability of DoS attack … 1%").  ``start_ps``
    delays the whole schedule — the mid-run "attack begins at t" scenario;
    the rng draw sequence for ``start_ps = 0`` is unchanged.
    """
    if duty_cycle <= 0:
        return []
    start_ps = max(0, int(start_ps))
    if start_ps >= sim_time_ps:
        return []
    if duty_cycle >= 1.0:
        return [(start_ps, sim_time_ps)]
    period = round(window_ps / duty_cycle)
    windows = []
    t = start_ps
    while t + window_ps <= sim_time_ps:
        offset = rng.randrange(max(1, period - window_ps))
        start = t + offset
        end = min(start + window_ps, sim_time_ps)
        if start < sim_time_ps:
            windows.append((start, end))
        t += period
    return windows
