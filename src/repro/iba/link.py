"""Unidirectional physical link with credit-based flow control.

IBA flow control is credit-based per VL: a transmitter may only start a
packet when the receiver's input buffer for that VL has advertised space.
This is why the paper measures *queuing time at the HCA* rather than
in-network loss — "the IBA network accepts a new packet only when there is
available buffer", so congestion (and DoS pressure) backs up all the way to
the source instead of dropping packets mid-fabric.

A :class:`Link` owns:

* the serialization resource (one packet on the wire at a time, timed from
  ``wire_length`` bytes at the configured byte time);
* the per-VL credit counters mirroring the receiver's buffer space;
* callbacks the owning sender registers to be re-armed when the link frees
  or a credit comes back.

Credit returns are lazy (DESIGN.md §3k).  :meth:`Link.schedule_credit`
reserves the queue key an eager return event would have had, and
:attr:`Link.credits` counts every reserved return whose key the clock has
passed.  A return becomes a real event only when the sender is waiting for
it: its last pass ended with a packet waiting on that VL, a free wire and
no credit (:meth:`Link.wait_credit`).
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Callable, Protocol

from repro.iba.packet import DataPacket
from repro.sim.counters import CounterRegistry
from repro.sim.engine import Engine, PS_PER_NS
from repro.sim.trace import Tracer, null_trace

#: Shared ``(vl,)`` argument tuples of credit returns, one per VL.
_VL_ARGS = tuple((vl,) for vl in range(16))


class Receiver(Protocol):
    """Anything a link can terminate at (switch or HCA)."""

    def receive(self, packet: DataPacket, in_port: int) -> None: ...


class Link:
    """One direction of a physical IBA link.

    ``credits[vl]`` mirrors free packet slots in the receiver's VL buffer at
    the far end.  ``send`` consumes one credit and occupies the wire;
    the receiver calls :meth:`schedule_credit` when it drains the slot.
    """

    __slots__ = (
        "engine",
        "name",
        "byte_time_ps",
        "wire_delay_ps",
        "dst",
        "dst_port",
        "_credits",
        "_deferred",
        "_starved",
        "busy",
        "on_free",
        "on_credit",
        "packets_sent",
        "bytes_sent",
        "failed",
        "tap",
        "_trace",
        "_in_transit",
    )

    def __init__(
        self,
        engine: Engine,
        name: str,
        byte_time_ps: int,
        dst: Receiver,
        dst_port: int,
        num_vls: int,
        credits_per_vl: int,
        wire_delay_ns: float = 10.0,
        registry: CounterRegistry | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        self.engine = engine
        self.name = name
        self.byte_time_ps = byte_time_ps
        self.wire_delay_ps = round(wire_delay_ns * PS_PER_NS)
        self.dst = dst
        self.dst_port = dst_port
        self._credits = [credits_per_vl] * num_vls
        #: reserved credit returns not yet counted, sorted by queue key:
        #: ``engine.reserve`` placeholders, or the queued wake entry once
        #: woken (None until the first return).
        self._deferred: list[tuple] | None = None
        #: bitmask of the VLs whose packets wait for a credit at the
        #: sender, set by :meth:`wait_credit`, cleared by :meth:`send`.
        self._starved = 0
        self.busy = False
        #: sender callback: wire became free.
        self.on_free: Callable[[], None] | None = None
        #: sender callback: a credit for some VL returned.
        self.on_credit: Callable[[int], None] | None = None
        # Bound once here so the untraced hot path pays a no-op call, not a
        # per-call branch (see DESIGN.md §3f).
        self._trace = tracer.record if tracer is not None else null_trace
        if registry is None:
            registry = CounterRegistry()
        self.packets_sent = registry.counter(f"link.{name}.packets_sent")
        self.bytes_sent = registry.counter(f"link.{name}.bytes_sent")
        #: a failed link accepts no new packets (fault injection).
        self.failed = False
        #: passive eavesdropper hook: called with each packet at send time
        #: ("a packet can be captured on the link" — paper Section 4.1).
        self.tap: Callable[[DataPacket], None] | None = None
        # packets currently on this link (serializing or in wire flight);
        # mechanism state like credits, exposed read-only via in_transit.
        self._in_transit = 0

    @property
    def in_transit(self) -> int:
        """Packets currently on this link (serializing or in wire flight) —
        part of the fabric-wide in-flight accounting the fuzz subsystem's
        packet-conservation oracle sums over (see Fabric.in_flight_count)."""
        return self._in_transit

    @property
    def credits(self) -> list[int]:
        """Per-VL credits, counting every deferred return whose key the
        clock has passed (see :attr:`Engine.cut`)."""
        d = self._deferred
        if d and d[0] < self.engine.cut:
            cut = self.engine.cut
            credits = self._credits
            n = 0
            for entry in d:
                if not entry < cut:
                    break
                credits[entry[4][0]] += 1
                n += 1
            del d[:n]
        return self._credits

    def pending_returns(self, vl: int) -> int:
        """Credit returns on *vl* scheduled but not yet in :attr:`credits`
        (read :attr:`credits` first, which counts the passed ones)."""
        return sum(1 for entry in self._deferred or () if entry[4][0] == vl)

    def can_send(self, vl: int) -> bool:
        return not self.failed and not self.busy and self.credits[vl] > 0

    def fail(self) -> None:
        """Take the link down.  The frame currently on the wire completes
        (it has already left the transmitter); everything behind it waits
        until :meth:`restore`."""
        self.failed = True
        self._trace(self.engine.now, "link_down", self.name)

    def restore(self) -> None:
        self.failed = False
        self._trace(self.engine.now, "link_up", self.name)
        if self.on_credit is not None:
            self.on_credit(0)  # re-arm the sender's scheduler
        if self.on_free is not None and not self.busy:
            self.on_free()

    def serialization_ps(self, packet: DataPacket) -> int:
        """Time *packet* occupies the wire.  The per-hop code (``send``,
        the switch pump's credit delay) computes this product inline."""
        return packet.wire_length * self.byte_time_ps

    def send(self, packet: DataPacket) -> None:
        """Begin transmitting *packet*.  Caller must have checked can_send."""
        vl = packet.lrh.vl
        if self.failed:
            raise RuntimeError(f"link {self.name} is down")
        if self.busy:
            raise RuntimeError(f"link {self.name} busy")
        credits = self._credits
        if credits[vl] <= 0 and self.credits[vl] <= 0:
            raise RuntimeError(f"link {self.name} has no VL{vl} credit")
        if self.tap is not None:
            self.tap(packet)
        credits[vl] -= 1
        self.busy = True
        self._starved = 0
        self._in_transit += 1
        self.packets_sent.inc()
        length = packet.wire_length
        self.bytes_sent.inc(length)
        self.engine.schedule_pooled(length * self.byte_time_ps, self._complete, packet)

    def _complete(self, packet: DataPacket) -> None:
        self.busy = False
        # Store-and-forward: the packet is fully at the far end now (+wire).
        self.engine.schedule_pooled(self.wire_delay_ps, self._arrive, packet)
        if self.on_free is not None:
            self.on_free()

    def _arrive(self, packet: DataPacket) -> None:
        """Hand the packet to the receiver; it is no longer on the link."""
        self._in_transit -= 1
        self.dst.receive(packet, self.dst_port)

    def return_credit(self, vl: int) -> None:
        """One VL credit is back now; re-arm the sender."""
        self._credits[vl] += 1
        if self.on_credit is not None:
            self.on_credit(vl)

    def schedule_credit(self, delay: int, vl: int) -> None:
        """Return one *vl* credit *delay* picoseconds from now.

        The return reserves its queue key and is counted by :attr:`credits`
        once the clock passes it.  It is queued as an event only if the
        sender waits on *vl* and no earlier return on *vl* is queued."""
        engine = self.engine
        entry = engine.reserve(delay, _VL_ARGS[vl])
        d = self._deferred
        if d is None:
            d = self._deferred = []
        if not d or d[-1] < entry:
            i = len(d)
            d.append(entry)
        else:
            i = bisect_left(d, entry)
            d.insert(i, entry)
        if self._starved >> vl & 1:
            for j in range(i):
                if d[j][4][0] == vl:
                    return  # an earlier return on vl is queued already
            d[i] = engine.fire_reserved(entry, self._credit_arrives)

    def wait_credit(self, vls: int) -> None:
        """The sender ended a pass with packets waiting on the VLs of
        bitmask *vls*, a free wire and no credit on them: queue the
        earliest deferred return on each of those VLs as an event."""
        self._starved = vls
        d = self._deferred
        if not d or not vls:
            return
        for i, entry in enumerate(d):
            bit = 1 << entry[4][0]
            if vls & bit:
                vls ^= bit
                if entry[3] is None:
                    d[i] = self.engine.fire_reserved(entry, self._credit_arrives)
                if not vls:
                    return

    def _credit_arrives(self, vl: int) -> None:
        # A woken return firing at its reserved key: it leaves the deferred
        # list first, so `credits` cannot count it a second time.
        self._deferred.remove(self.engine.cut)
        self.return_credit(vl)
