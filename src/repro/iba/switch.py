"""InfiniBand switch with optional per-port partition enforcement.

The data path is an input-queued, store-and-forward crossbar:

1. A packet fully arrives at an input port (the upstream link consumed a
   credit for the slot it now occupies).
2. The routing/enforcement pipeline runs: fixed routing delay, plus — when a
   partition-enforcement policy is attached to the input port — the P_Key
   table lookup stall the paper analyses in Table 2.  The policy may drop
   the packet (invalid P_Key), which is the whole point of Section 3.
3. Surviving packets become *ready* and compete for their output port under
   VL arbitration (realtime VLs strictly above best-effort).
4. Forwarding a packet frees its input slot; the credit flows back upstream
   after the credit-return delay.

Routing is a linear forwarding table: ``route_table`` is one
``bytearray`` indexed by destination LID, one output-port byte per LID,
with :data:`NO_ROUTE` where the switch has no route.  A DLID at or past
the table's end (a fuzz mutation, a forged header) is unroutable like any
other missing entry.

Enforcement policies are injected (``set_port_filter``), keeping this
module substrate-only; the DPT/IF/SIF policies live in
:mod:`repro.core.enforcement`.
"""

from __future__ import annotations

from typing import Protocol

from repro.iba.arbiter import PRIORITY_VLS, VLArbiter
from repro.iba.buffers import InputBuffer
from repro.iba.link import Link
from repro.iba.packet import DataPacket
from repro.sim.counters import CounterRegistry
from repro.sim.engine import Engine, PS_PER_NS
from repro.sim.trace import Tracer, null_trace

#: Port index that faces the attached HCA on every switch.
HCA_PORT = 0

#: The arbitrated VLs (realtime, best-effort) and their bits in a VL mask.
_HIGH, _LOW = PRIORITY_VLS
_HIGH_BIT, _LOW_BIT = 1 << _HIGH, 1 << _LOW

#: Route-table byte meaning "no route to this LID".  It is also why a
#: switch has at most 254 ports: port 255 would read as no route.
NO_ROUTE = 0xFF


class PortFilter(Protocol):
    """Partition-enforcement hook attached to a switch input port.

    ``process`` returns ``(accept, extra_delay_ns)``: whether the packet may
    continue, and how long the enforcement lookup stalled the pipeline
    (0.0 when the filter is disabled — SIF's idle state costs nothing).
    """

    def process(self, packet: DataPacket, now_ps: int) -> tuple[bool, float]: ...


class Switch:
    """One switch: 5 ports on the paper's mesh, k on a k-ary fat tree."""

    def __init__(
        self,
        engine: Engine,
        name: str,
        num_ports: int,
        num_vls: int,
        vl_buffer_packets: int,
        routing_delay_ns: float,
        credit_return_delay_ns: float,
        arbiter_high_limit: int | None = None,
        registry: CounterRegistry | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        if num_ports >= NO_ROUTE:
            raise ValueError(
                f"switch {name!r}: num_ports={num_ports}, but ports must be "
                f"below {NO_ROUTE} (the route table's no-route byte)"
            )
        self.engine = engine
        self.name = name
        self.num_ports = num_ports
        self.num_vls = num_vls
        self.routing_delay_ps = round(routing_delay_ns * PS_PER_NS)
        self.credit_return_delay_ps = round(credit_return_delay_ns * PS_PER_NS)
        self.inputs = [InputBuffer(num_vls, vl_buffer_packets) for _ in range(num_ports)]
        #: out_links[p] — link leaving port p (None if port unwired).
        self.out_links: list[Link | None] = [None] * num_ports
        #: in_links[p] — upstream link feeding port p (for credit returns).
        self.in_links: list[Link | None] = [None] * num_ports
        self.filters: list[PortFilter | None] = [None] * num_ports
        #: route_table[dest LID] = output port, NO_ROUTE for none.
        self.route_table = bytearray()
        self.arbiter = VLArbiter(num_vls, high_limit=arbiter_high_limit)
        # Arbitration index: _head_ready[out_port][vl] is a bitmask of the
        # input ports whose FIFO *head* is ready for that (port, VL).  Most
        # pump wakeups on a big switch find nothing to grant and skip on a
        # zero mask; the arbiter finds its round-robin winner in the mask.
        # It must always equal count_head_ready() (the fuzz
        # ``ready_index`` oracle).
        self._head_ready = [[0] * num_vls for _ in range(num_ports)]
        #: packets (identity keys, insertion order) still in the routing/
        #: enforcement pipeline stage.  A crashed switch leaks these too —
        #: they are physically in the input buffer even before make_ready.
        self._in_pipeline: dict[DataPacket, None] = {}
        # statistics (registry-owned; see repro.sim.counters)
        self.registry = registry if registry is not None else CounterRegistry()
        self.tracer = tracer
        # Trace emission is a call through _trace — bound once here to the
        # real recorder or a no-op — with the per-port detail strings
        # precomputed, so the untraced hot path neither branches nor
        # formats (see DESIGN.md §3f).
        self._trace = tracer.record if tracer is not None else null_trace
        self._port_detail = [f"port {p}" for p in range(num_ports)]
        self.forwarded = self.registry.counter(f"switch.{name}.forwarded")
        self.filtered_drops = self.registry.counter(f"switch.{name}.filtered_drops")
        self.unroutable_drops = self.registry.counter(f"switch.{name}.unroutable_drops")
        self.lookup_stalls_ns = self.registry.gauge(f"switch.{name}.lookup_stalls_ns")

    # --- wiring -----------------------------------------------------------

    def attach_out_link(self, port: int, link: Link) -> None:
        self.out_links[port] = link
        link.on_free = lambda p=port: self._pump(p)
        link.on_credit = lambda vl, p=port: self._pump(p)

    def attach_in_link(self, port: int, link: Link) -> None:
        self.in_links[port] = link

    def set_port_filter(self, port: int, policy: PortFilter | None) -> None:
        self.filters[port] = policy

    # --- routing -----------------------------------------------------------

    def route(self, lid: int) -> int | None:
        """Output port toward *lid*, or None when the table has no route."""
        table = self.route_table
        port = table[lid] if 0 <= lid < len(table) else NO_ROUTE
        return None if port == NO_ROUTE else port

    def set_route(self, lid: int, port: int) -> None:
        """Route *lid* out of *port*, growing the table to reach *lid*."""
        if lid < 0 or not 0 <= port < self.num_ports:
            raise ValueError(f"switch {self.name!r}: no route {lid} -> port {port}")
        table = self.route_table
        if lid >= len(table):
            table.extend(bytes([NO_ROUTE]) * (lid + 1 - len(table)))
        table[lid] = port

    # --- data path ---------------------------------------------------------

    def receive(self, packet: DataPacket, in_port: int) -> None:
        """Packet fully arrived at *in_port* (store-and-forward)."""
        self.inputs[in_port].begin_processing(packet.lrh.vl)
        self._in_pipeline[packet] = None
        self._trace(
            self.engine.now, "switch_rx", self.name, packet.packet_id,
            self._port_detail[in_port],
        )
        extra_ns = 0.0
        accept = True
        policy = self.filters[in_port]
        if policy is not None:
            accept, extra_ns = policy.process(packet, self.engine.now)
            self.lookup_stalls_ns.add(extra_ns)
        delay = self.routing_delay_ps + round(extra_ns * PS_PER_NS)
        self.engine.schedule_pooled(delay, self._pipeline_done, packet, in_port, accept)

    def slots_held(self, port: int, vl: int) -> int:
        """Input slots of *port*'s *vl* that hold a packet (in the pipeline
        or ready): credits its upstream link does not have."""
        return self.inputs[port].fifos[vl].occupancy

    def pipeline_packets(self) -> list[DataPacket]:
        """Packets currently in the routing/enforcement pipeline stage."""
        return list(self._in_pipeline)

    def buffered_packet_count(self) -> int:
        """Packets physically inside this switch: pipeline stage plus every
        input FIFO's ready entries.  (A forwarded packet leaves the count the
        instant it starts on the outgoing link, even though its input slot's
        credit is still travelling back upstream.)"""
        ready = sum(
            len(fifo.ready) for buf in self.inputs for fifo in buf.fifos
        )
        return ready + len(self._in_pipeline)

    def _pipeline_done(self, packet: DataPacket, in_port: int, accept: bool) -> None:
        self._in_pipeline.pop(packet, None)
        lrh = packet.lrh
        vl = lrh.vl
        if not accept:
            self.filtered_drops.inc()
            self._trace(
                self.engine.now, "filtered", self.name, packet.packet_id,
                self._port_detail[in_port],
            )
            self._release_slot(in_port, vl)
            return
        out_port = self.route(lrh.dlid)
        if out_port is None or self.out_links[out_port] is None:
            self.unroutable_drops.inc()
            self._trace(
                self.engine.now, "unroutable", self.name, packet.packet_id,
                self._port_detail[in_port],
            )
            self._release_slot(in_port, vl)
            return
        buf = self.inputs[in_port]
        buf.make_ready(packet, out_port)
        if len(buf.fifos[vl].ready) == 1:  # became its FIFO's head
            self._head_ready[out_port][vl] |= 1 << in_port
        self._pump(out_port)

    def reroute_buffered(self) -> int:
        """Re-resolve the output port of every *ready* buffered packet
        against the (possibly just-reprogrammed) route table.

        Part of the SM's fault resweep: without it, a packet already
        assigned to a now-dead output link would block its VL FIFO forever.
        Packets whose destination no longer routes are discarded (counted
        as unroutable) and their credits returned.  Returns the number of
        packets dropped.
        """
        dropped = 0
        for in_port, buffer in enumerate(self.inputs):
            upstream = self.in_links[in_port]
            for vl, fifo in enumerate(buffer.fifos):
                if not fifo.ready:
                    continue  # nothing to re-resolve; IDLE_FIFO must stay unwritten
                kept = []
                for entry in fifo.ready:
                    new_port = self.route(entry.packet.lrh.dlid)
                    link = self.out_links[new_port] if new_port is not None else None
                    if link is None or link.failed:
                        self.unroutable_drops.inc()
                        dropped += 1
                        if upstream is not None:
                            upstream.schedule_credit(self.credit_return_delay_ps, vl)
                        continue
                    entry.out_port = new_port
                    kept.append(entry)
                fifo.ready.clear()
                fifo.ready.extend(kept)
        self._head_ready = self.count_head_ready()
        for port in range(self.num_ports):
            self._pump(port)
        return dropped

    def count_head_ready(self) -> list[list[int]]:
        """The arbitration index recounted from the input FIFOs, without
        touching the maintained one: per port, per VL, the bitmask of
        input ports whose head wants that port."""
        head_ready = [[0] * self.num_vls for _ in range(self.num_ports)]
        for in_port, buf in enumerate(self.inputs):
            for vl, fifo in enumerate(buf.fifos):
                if fifo.ready:
                    head_ready[fifo.ready[0].out_port][vl] |= 1 << in_port
        return head_ready

    def _release_slot(self, in_port: int, vl: int, processing: bool = True) -> None:
        """Free an input slot and send the credit back upstream."""
        if processing:
            self.inputs[in_port].drop_processing(vl)
        upstream = self.in_links[in_port]
        if upstream is not None:
            upstream.schedule_credit(self.credit_return_delay_ps, vl)

    def _pump(self, port: int) -> None:
        """Crossbar scheduling pass starting at output *port*.

        A grant makes the port's link busy, so a port grants at most once
        per pass.  Forwarding a packet can expose a new FIFO head destined
        to a *different* output port; the pass then moves on to that port,
        so each wakeup is O(grants) instead of a rescan of every port (the
        event loop's hottest path, per profiling).  A port that cannot
        grant for want of credit tells its link which VLs wait
        (:meth:`Link.wait_credit`), so the next credit back wakes it.
        """
        head_ready = self._head_ready
        inputs = self.inputs
        while True:
            heads = head_ready[port]
            if not (heads[_HIGH] or heads[_LOW]):
                return  # no FIFO head wants this port — nothing to grant
            link = self.out_links[port]
            if link is None or link.busy or link.failed:
                return
            choice = self.arbiter.pick(port, inputs, link.credits, heads)
            if choice is None:
                link.wait_credit((_HIGH_BIT if heads[_HIGH] else 0)
                                 | (_LOW_BIT if heads[_LOW] else 0))
                return
            in_port, entry = choice
            packet = entry.packet
            vl = packet.lrh.vl
            buf = inputs[in_port]
            buf.pop_head(vl)
            ready = buf.fifos[vl].ready
            bit = 1 << in_port
            heads[vl] ^= bit
            next_port = port
            if ready:
                next_port = ready[0].out_port
                head_ready[next_port][vl] |= bit
            link.send(packet)
            self.forwarded.inc()
            self._trace(
                self.engine.now, "forwarded", self.name,
                packet.packet_id, self._port_detail[port],
            )
            # The input slot stays occupied until the outgoing
            # transmission completes; only then does the credit travel
            # back upstream.
            upstream = self.in_links[in_port]
            if upstream is not None:
                upstream.schedule_credit(
                    packet.wire_length * link.byte_time_ps
                    + self.credit_return_delay_ps,
                    vl,
                )
            if next_port == port:
                return  # nothing uncovered, or its port is busy now
            port = next_port
