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
"""

from __future__ import annotations

from typing import Callable, Protocol

from repro.iba.packet import DataPacket
from repro.sim.counters import CounterRegistry
from repro.sim.engine import Engine, PS_PER_NS
from repro.sim.trace import Tracer, null_trace


class Receiver(Protocol):
    """Anything a link can terminate at (switch or HCA)."""

    def receive(self, packet: DataPacket, in_port: int) -> None: ...


class Link:
    """One direction of a physical IBA link.

    ``credits[vl]`` mirrors free packet slots in the receiver's VL buffer at
    the far end.  ``send`` consumes one credit and occupies the wire;
    the receiver calls :meth:`return_credit` when it drains the slot.
    """

    __slots__ = (
        "engine",
        "name",
        "byte_time_ps",
        "wire_delay_ps",
        "dst",
        "dst_port",
        "credits",
        "busy",
        "on_free",
        "on_credit",
        "packets_sent",
        "bytes_sent",
        "failed",
        "tap",
        "registry",
        "tracer",
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
        self.credits = [credits_per_vl] * num_vls
        self.busy = False
        #: sender callback: wire became free.
        self.on_free: Callable[[], None] | None = None
        #: sender callback: a credit for some VL returned.
        self.on_credit: Callable[[int], None] | None = None
        self.registry = registry if registry is not None else CounterRegistry()
        self.tracer = tracer
        # Bound once here so the untraced hot path pays a no-op call, not a
        # per-call branch (see DESIGN.md §3f).
        self._trace = tracer.record if tracer is not None else null_trace
        self.packets_sent = self.registry.counter(f"link.{name}.packets_sent")
        self.bytes_sent = self.registry.counter(f"link.{name}.bytes_sent")
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
        return packet.wire_length * self.byte_time_ps

    def send(self, packet: DataPacket) -> None:
        """Begin transmitting *packet*.  Caller must have checked can_send."""
        vl = packet.vl
        if self.failed:
            raise RuntimeError(f"link {self.name} is down")
        if self.busy:
            raise RuntimeError(f"link {self.name} busy")
        if self.credits[vl] <= 0:
            raise RuntimeError(f"link {self.name} has no VL{vl} credit")
        if self.tap is not None:
            self.tap(packet)
        self.credits[vl] -= 1
        self.busy = True
        self._in_transit += 1
        self.packets_sent.inc()
        self.bytes_sent.inc(packet.wire_length)
        ser = self.serialization_ps(packet)
        self.engine.schedule_pooled(ser, self._complete, packet)

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
        """Receiver drained one VL slot; re-arm the sender."""
        self.credits[vl] += 1
        if self.on_credit is not None:
            self.on_credit(vl)

    def schedule_credit(self, delay: int, vl: int) -> None:
        """Schedule ``return_credit(vl)`` *delay* picoseconds from now."""
        self.engine.schedule_pooled(delay, self._credit_arrives, vl)

    def _credit_arrives(self, vl: int) -> None:
        # The scheduled callback is this module's own method rather than
        # the bound return_credit, so tools that wrap return_credit at class
        # level (perfbench's per-layer spans) still count one call per
        # credit and charge the event to this module.
        self.return_credit(vl)
