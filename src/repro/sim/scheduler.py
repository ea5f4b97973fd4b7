"""Pluggable event schedulers — binary heap oracle vs calendar queue.

The engine orders events by ``(time, priority, seq)`` and must do so
**bit-identically** regardless of the queue structure underneath: DoS
experiments schedule thousands of same-instant events whose relative
order is observable through counters and traces.  This module provides
two interchangeable implementations of that total order:

``heap``
    A binary heap (``heapq``), kept as the queue-ordering *oracle*.
    O(log n) per operation, n = pending events — at fat-tree scale the
    heap itself dominates the event loop.

``wheel``
    A calendar queue (single-level time wheel over absolute slot
    numbers).  Events hash into buckets of ``2**SLOT_BITS`` picoseconds
    by plain integer shift; buckets are unsorted until the clock
    reaches them, then sorted once and drained in order.  A small heap
    of *active slot numbers* (ints) replaces the heap of events, so
    push is O(1) amortized and pop touches a log-sized structure only
    once per bucket instead of once per event.  Events that land in the
    bucket currently being drained are inserted in order with
    ``bisect.insort`` past the drain point — this is what makes the pop
    sequence exactly the heap's, including same-instant ties.

Mode selection mirrors :mod:`repro.datapath`: :func:`set_scheduler`
switches the family used by newly built engines, :func:`get_scheduler`
reports it, and the ``REPRO_SCHEDULER`` environment variable
(``wheel`` | ``heap``) picks the initial mode at import; the default is
``wheel``.  An :class:`~repro.sim.engine.Engine` samples the mode at
construction, so a mode flip never mutates a live run.  The mode picks
the queue and nothing else: event pooling and the rest of the engine
run identically under both, so the ``heap`` leg of the differential
fuzz harness and CI checks queue ordering alone.
"""

from __future__ import annotations

import heapq
import os
from bisect import insort
from typing import Any

#: A queue entry: (time, priority, seq, Event).  Ordered by C-level tuple
#: comparison; seq is unique so the Event object is never compared.
Entry = tuple[int, int, int, Any]

MODES = ("wheel", "heap")

#: Bucket width exponent: 2**13 ps = 8.192 ns per slot.  Chosen against the
#: paper's timing constants (byte time 3200 ps, credit return 40 ns, wire
#: 10 ns): most same-instant bursts share a slot while distinct delays spread
#: across slots, which benchmarked fastest at 20k-100k pending events.
SLOT_BITS = 13


class HeapScheduler:
    """The oracle: one binary heap of entries."""

    __slots__ = ("_q",)

    def __init__(self, now: int = 0) -> None:
        self._q: list[Entry] = []

    def __len__(self) -> int:
        return len(self._q)

    def push(self, entry: Entry) -> None:
        heapq.heappush(self._q, entry)

    def peek(self) -> Entry | None:
        """Next live entry without consuming it (cancelled entries are
        discarded as they surface).  ``pop_head`` consumes it in O(log n)."""
        q = self._q
        while q:
            entry = q[0]
            if entry[3].cancelled:
                heapq.heappop(q)
                continue
            return entry
        return None

    def pop_head(self) -> None:
        """Consume the entry the immediately preceding :meth:`peek` returned."""
        heapq.heappop(self._q)

    def drain(self, engine, until: int | None, max_events: int | None) -> bool:
        """Fire events in order until the queue empties, *until* passes, or
        *max_events* have run.  Returns True when the budget cut the drain
        short with a live entry still queued.

        One inline heap pop per event; pooled events go back on the
        engine's free list after firing, as under the wheel.
        """
        q = self._q
        heappop = heapq.heappop
        pool = engine._pool
        count = 0
        budget = -1 if max_events is None else max_events
        while q:
            entry = q[0]
            ev = entry[3]
            if ev.cancelled:
                heappop(q)
                continue
            if count == budget:
                return True
            t = entry[0]
            if until is not None and t > until:
                return False
            heappop(q)
            engine._now = t
            ev.fn(*ev.args)
            engine._processed += 1
            count += 1
            if ev.pooled:
                ev.fn = None
                ev.args = ()
                pool.append(ev)
        return False


class WheelScheduler:
    """Calendar queue over absolute slot numbers ``time >> SLOT_BITS``.

    Invariants:

    * ``_cur`` is the slot currently being drained; ``_head`` is its
      entry list, sorted, with ``_hi`` entries already consumed.
    * ``_slots`` maps every *future* active slot number to its unsorted
      entry list; ``_slot_heap`` is a min-heap of exactly those keys.
    * Pushes never land before ``now`` (the engine validates), so a push
      targets ``_cur`` — inserted in sorted position past the drain
      point — or a future slot's unsorted list, except after a drain or
      :meth:`peek` stopped short: both open the next bucket before
      checking it, so ``_cur`` may lie past ``now``.  A push into a slot
      before ``_cur`` then reopens the wheel there (:meth:`_reopen`).
    """

    __slots__ = ("_slots", "_slot_heap", "_head", "_hi", "_cur", "_size")

    def __init__(self, now: int = 0) -> None:
        self._slots: dict[int, list[Entry]] = {}
        self._slot_heap: list[int] = []
        self._head: list[Entry] = []
        self._hi = 0
        self._cur = now >> SLOT_BITS
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def push(self, entry: Entry) -> None:
        slot = entry[0] >> SLOT_BITS
        if slot == self._cur:
            # Lands in the bucket being drained: keep it ordered relative to
            # the not-yet-consumed tail.  lo=_hi is correct because the entry
            # cannot sort before anything already consumed (time >= now and
            # its seq is the largest yet issued).
            insort(self._head, entry, lo=self._hi)
        else:
            bucket = self._slots.get(slot)
            if bucket is None:
                if slot < self._cur:
                    self._reopen(slot, entry)
                else:
                    self._slots[slot] = [entry]
                    heapq.heappush(self._slot_heap, slot)
            else:
                bucket.append(entry)
        self._size += 1

    def _reopen(self, slot: int, entry: Entry) -> None:
        """Make *slot*, earlier than the open bucket, the current one.

        Only reached after the clock stopped short of the open bucket: its
        unconsumed tail goes back to ``_slots`` (every key there is past
        ``_cur``, so none can hold *slot*) and *entry* opens the new bucket.
        """
        tail = self._head[self._hi:]
        if tail:
            self._slots[self._cur] = tail
            heapq.heappush(self._slot_heap, self._cur)
        self._head = [entry]
        self._hi = 0
        self._cur = slot

    def peek(self) -> Entry | None:
        hi = self._hi
        head = self._head
        size = self._size
        while True:
            while hi < len(head):
                entry = head[hi]
                if entry[3].cancelled:
                    hi += 1
                    size -= 1
                    continue
                self._hi = hi
                self._size = size
                return entry
            if not self._slot_heap:
                self._hi = hi
                self._size = size
                return None
            slot = heapq.heappop(self._slot_heap)
            bucket = self._slots.pop(slot)
            if len(bucket) > 1:
                bucket.sort()
            self._head = head = bucket
            self._hi = hi = 0
            self._cur = slot

    def pop_head(self) -> None:
        """Consume the entry the immediately preceding :meth:`peek` returned."""
        self._hi += 1
        self._size -= 1

    def drain(self, engine, until: int | None, max_events: int | None) -> bool:
        """Fire events in order (see :meth:`HeapScheduler.drain` contract).

        The peek/pop pair is fused into one loop over the current bucket
        with the cursor held in a local.  ``self._hi``/``self._size`` are
        written back *before* every callback — a callback may push into the
        bucket being drained, and :meth:`push` positions that insort at
        ``lo=self._hi`` — and on every exit path.
        """
        slots = self._slots
        slot_heap = self._slot_heap
        heappop = heapq.heappop
        pool = engine._pool
        head = self._head
        hi = self._hi
        count = 0
        budget = -1 if max_events is None else max_events
        while True:
            if hi >= len(head):
                if not slot_heap:
                    self._hi = hi
                    return False
                slot = heappop(slot_heap)
                bucket = slots.pop(slot)
                if len(bucket) > 1:
                    bucket.sort()
                self._head = head = bucket
                self._hi = hi = 0
                self._cur = slot
                continue
            entry = head[hi]
            ev = entry[3]
            if ev.cancelled:
                hi += 1
                self._size -= 1
                continue
            if count == budget:
                self._hi = hi
                return True
            t = entry[0]
            if until is not None and t > until:
                self._hi = hi
                return False
            hi += 1
            self._hi = hi
            self._size -= 1
            engine._now = t
            ev.fn(*ev.args)
            engine._processed += 1
            count += 1
            if ev.pooled:
                ev.fn = None
                ev.args = ()
                pool.append(ev)
            if head is not self._head or hi != self._hi:
                # a callback re-entered run()/step() or pushed into the
                # current bucket behind the cursor — resynchronize
                head = self._head
                hi = self._hi


_SCHEDULERS = {"heap": HeapScheduler, "wheel": WheelScheduler}

_mode = "wheel"


def set_scheduler(mode: str) -> None:
    """Select the scheduler family for engines built from now on.

    ``"wheel"`` — the calendar queue.  ``"heap"`` — the binary heap
    (the queue-ordering oracle).  Simulation results are identical in
    both modes; only wall-clock changes.
    """
    global _mode
    if mode not in MODES:
        raise ValueError(f"unknown scheduler mode {mode!r}; choose from {MODES}")
    _mode = mode


def get_scheduler() -> str:
    """Current mode — what the next ``Engine()`` will be built with."""
    return _mode


def make_scheduler(mode: str, now: int = 0) -> HeapScheduler | WheelScheduler:
    """Instantiate the queue structure for *mode* (engine internal)."""
    try:
        cls = _SCHEDULERS[mode]
    except KeyError:
        raise ValueError(f"unknown scheduler mode {mode!r}; choose from {MODES}") from None
    return cls(now)


_env_mode = os.environ.get("REPRO_SCHEDULER")
if _env_mode:
    set_scheduler(_env_mode)
