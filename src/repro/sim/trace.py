"""Structured trace export — the fabric's lifecycle event bus.

A :class:`Tracer` is wired into the fabric at build time
(``build_experiment(cfg, tracer=...)`` / ``run_simulation(cfg,
tracer=...)``) and receives lifecycle events natively from every
component in the data and control paths:

====================  ======================================================
packet lifecycle      ``created``, ``injected``, ``switch_rx``,
                      ``forwarded``, ``filtered``, ``unroutable``,
                      ``delivered``, ``dropped``
security control      ``trap_raised`` (HCA → SM P_Key-violation trap),
                      ``sif_registered`` (SM registered a P_Key at the
                      ingress filter), ``sif_activated``,
                      ``sif_deactivated`` (idle age-out); the Bloom
                      filter emits the same three as ``bloom_*``
faults                ``link_down``, ``link_up``
====================  ======================================================

Packet ids are per-run labels (:class:`~repro.iba.packet.PacketIds`): the
run's first admitted packet is 1, on every run of the same input.
Control-plane events carry ``packet_id = -1``; everything has an integer
picosecond timestamp.  ``max_events`` turns the tracer into a bounded
ring buffer (oldest events evicted) so long production-scale runs can
keep tracing on with O(1) memory.  :meth:`Tracer.to_jsonl` /
:meth:`Tracer.jsonl_lines` export the buffer as JSON Lines — one event
object per line — for offline analysis and the ``repro-sim trace`` CLI.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field
from typing import IO, Iterator

from repro.sim.engine import PS_PER_US

#: packet_id used by events that are not about one packet (SIF state
#: changes, link faults).
NO_PACKET = -1


def null_trace(
    time_ps: int,
    kind: str,
    where: str,
    packet_id: int = NO_PACKET,
    detail: str = "",
) -> None:
    """Signature-compatible no-op for :meth:`Tracer.record`.

    Hot-path components bind ``self._trace`` once at construction — to
    ``tracer.record`` when tracing is on, to this function when it is off —
    so the untraced fast path pays one no-op call instead of a branch per
    emission site (the zero-cost-observability contract; see
    DESIGN.md §3f and ``tools/check_observability.py``).
    """


@dataclass(frozen=True)
class TraceEvent:
    time_ps: int
    kind: str  #: see the taxonomy table in the module docstring
    where: str  #: component instance, e.g. ``hca3``, ``s1x0``, ``s1x0.p0``
    packet_id: int = NO_PACKET
    detail: str = ""

    @property
    def time_us(self) -> float:
        return self.time_ps / PS_PER_US

    def to_json(self) -> str:
        """One JSON Lines record: the wire shape plus ``time_us``."""
        record = {"time_ps": self.time_ps, "time_us": self.time_us}
        return json.dumps({**record, **trace_event_dict(self)}, separators=(",", ":"))


def trace_event_dict(event: TraceEvent) -> dict:
    """One trace event as a JSON-ready dict (the wire shape every
    endpoint that exports trace events shares)."""
    return {
        "time_ps": event.time_ps,
        "kind": event.kind,
        "where": event.where,
        "packet_id": event.packet_id,
        "detail": event.detail,
    }


@dataclass
class Tracer:
    """Accumulates :class:`TraceEvent` records (list or bounded ring)."""

    events: "list[TraceEvent] | deque[TraceEvent]" = field(default_factory=list)
    #: ring-buffer capacity; None = unbounded list.
    max_events: int | None = None
    #: total events offered to record() (admitted or evicted) — lets a
    #: ring-mode consumer detect truncation.
    seen: int = 0

    def __post_init__(self) -> None:
        if self.max_events is not None and not isinstance(self.events, deque):
            self.events = deque(self.events, maxlen=self.max_events)

    def record(
        self,
        time_ps: int,
        kind: str,
        where: str,
        packet_id: int = NO_PACKET,
        detail: str = "",
    ) -> None:
        self.seen += 1
        self.events.append(TraceEvent(time_ps, kind, where, packet_id, detail))

    @property
    def truncated(self) -> bool:
        """True when ring mode has evicted at least one event."""
        return len(self.events) < self.seen

    def for_packet(self, packet_id: int) -> list[TraceEvent]:
        return [e for e in self.events if e.packet_id == packet_id]

    def of_kind(self, *kinds: str) -> list[TraceEvent]:
        return [e for e in self.events if e.kind in kinds]

    def kinds(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for e in self.events:
            out[e.kind] = out.get(e.kind, 0) + 1
        return out

    # -- export ------------------------------------------------------------

    def jsonl_lines(self) -> Iterator[str]:
        """The buffer as JSON Lines (insertion order = time order)."""
        for e in self.events:
            yield e.to_json()

    def to_jsonl(self, out: "str | IO[str]") -> int:
        """Write the buffer to *out* (a path or an open text file).
        Returns the number of events written."""
        n = 0
        if isinstance(out, str):
            with open(out, "w", encoding="utf-8") as f:
                return self.to_jsonl(f)
        for line in self.jsonl_lines():
            out.write(line + "\n")
            n += 1
        return n

