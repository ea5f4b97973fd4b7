"""Fault injection — link failures and switch crashes with key leakage.

Two of the paper's motivating sentences become executable here:

* "a packet can be captured on the link" — :meth:`FaultInjector.tap_link`
  gives an eavesdropper copies of everything crossing a link, including
  the plaintext P_Keys/Q_Keys in the headers (feeding the Table 3 attacks);
* "it is possible that a switch crashes and leaks Keys" —
  :meth:`FaultInjector.crash_switch` takes a switch down (all its links
  fail; traffic through it stalls at the sources, demonstrating the
  credit-based backpressure once more) and returns the key material an
  attacker could scrape from its state.

Failures are scheduleable at absolute simulation times and reversible,
so tests can assert both degraded and recovered behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.iba.keys import PKey, QKey
from repro.iba.link import Link
from repro.iba.packet import DataPacket
from repro.iba.topology import Fabric


@dataclass(frozen=True)
class LeakedKeys:
    """What a crashed/scraped switch gives the attacker: every plaintext
    key its filter tables and in-flight packets held."""

    switch: str
    pkeys: frozenset[PKey]
    qkeys: frozenset[QKey]


@dataclass
class FaultInjector:
    """Schedules and tracks faults on one fabric."""

    fabric: Fabric
    failed_links: list[Link] = field(default_factory=list)
    crashed: list[str] = field(default_factory=list)
    #: link name -> one capture list per registered eavesdropper.
    _tap_lists: dict[str, list[list[DataPacket]]] = field(default_factory=dict)

    # -- link faults --------------------------------------------------------

    def fail_link(self, link: Link, at_ps: int | None = None) -> None:
        """Take *link* down now or at *at_ps*."""

        def do_fail():
            link.fail()
            self.failed_links.append(link)

        if at_ps is None:
            do_fail()
        else:
            self.fabric.engine.schedule_at(at_ps, do_fail)

    def restore_link(self, link: Link, at_ps: int | None = None) -> None:
        def do_restore():
            link.restore()
            if link in self.failed_links:
                self.failed_links.remove(link)

        if at_ps is None:
            do_restore()
        else:
            self.fabric.engine.schedule_at(at_ps, do_restore)

    # -- switch crash -------------------------------------------------------

    def crash_switch(self, coords: tuple[int, int], at_ps: int | None = None,
                     on_leak: Callable[[LeakedKeys], None] | None = None) -> None:
        """Crash the switch at *coords*: every attached link (both
        directions) fails, and the keys scrapeable from its state leak."""
        switch = self.fabric.switches[coords]

        def do_crash():
            pkeys: set[PKey] = set()
            qkeys: set[QKey] = set()
            for port in range(switch.num_ports):
                for link in (switch.out_links[port], switch.in_links[port]):
                    if link is not None and not link.failed:
                        link.fail()
                        self.failed_links.append(link)
                # scrape buffered packets' plaintext keys
                for fifo in switch.inputs[port].fifos:
                    for entry in fifo.ready:
                        pkeys.add(entry.packet.pkey)
                        if entry.packet.qkey is not None:
                            qkeys.add(entry.packet.qkey)
                # scrape filter tables (valid P_Key indices are keys too)
                filt = switch.filters[port]
                for idx in getattr(filt, "partition_table", ()):
                    pkeys.add(PKey(idx | PKey.FULL_MEMBER_BIT))
            # packets still in the routing/enforcement pipeline stage are
            # physically in the input buffers too — they leak just the same
            for packet in switch.pipeline_packets():
                pkeys.add(packet.pkey)
                if packet.qkey is not None:
                    qkeys.add(packet.qkey)
            self.crashed.append(switch.name)
            if on_leak is not None:
                on_leak(LeakedKeys(switch.name, frozenset(pkeys), frozenset(qkeys)))

        if at_ps is None:
            do_crash()
        else:
            self.fabric.engine.schedule_at(at_ps, do_crash)

    def restore_switch(self, coords: tuple[int, int], at_ps: int | None = None) -> None:
        """Reverse :meth:`crash_switch`: bring every attached link (both
        directions) back up, now or at *at_ps*.

        Each link's :meth:`~repro.iba.link.Link.restore` re-arms its sender,
        so traffic stalled behind the crash starts draining immediately; the
        leaked keys stay leaked (a reboot does not un-disclose a secret).
        """
        switch = self.fabric.switches[coords]

        def do_restore():
            for port in range(switch.num_ports):
                for link in (switch.out_links[port], switch.in_links[port]):
                    if link is not None and link.failed:
                        link.restore()
                        if link in self.failed_links:
                            self.failed_links.remove(link)
            if switch.name in self.crashed:
                self.crashed.remove(switch.name)

        if at_ps is None:
            do_restore()
        else:
            self.fabric.engine.schedule_at(at_ps, do_restore)

    # -- wire taps ----------------------------------------------------------

    def tap_link(self, link: Link) -> list[DataPacket]:
        """Attach a passive eavesdropper to *link*; returns the (live) list
        of captured packets.  "A packet can be captured on the link".

        Multiple eavesdroppers may tap the same link — each call returns an
        independent capture list and every registered tap sees every packet
        (a second tap no longer silently replaces the first).
        """
        captured: list[DataPacket] = []
        listeners = self._tap_lists.setdefault(link.name, [])
        listeners.append(captured)
        if len(listeners) == 1:
            # first tap on this link: install the fan-out dispatcher once
            def dispatch(packet: DataPacket, _listeners=listeners) -> None:
                for sink in _listeners:
                    sink.append(packet)

            link.tap = dispatch
        return captured

    @property
    def taps(self) -> dict[str, list[DataPacket]]:
        """Merged view of every tap's captures per link (capture order)."""
        merged: dict[str, list[DataPacket]] = {}
        for name, listeners in self._tap_lists.items():
            if len(listeners) == 1:
                merged[name] = listeners[0]
            else:
                # all listeners see the same packets; the first is canonical
                merged[name] = list(listeners[0]) if listeners else []
        return merged

    def captured_keys(self, link_name: str) -> tuple[set[PKey], set[QKey]]:
        """Plaintext keys readable from a tap's captures — exactly what
        Table 3's attacker starts from.  Unions over *all* eavesdroppers
        registered on the link."""
        pkeys: set[PKey] = set()
        qkeys: set[QKey] = set()
        for captured in self._tap_lists.get(link_name, []):
            for pkt in captured:
                pkeys.add(pkt.pkey)
                if pkt.qkey is not None:
                    qkeys.add(pkt.qkey)
        return pkeys, qkeys
