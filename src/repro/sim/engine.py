"""Event-driven simulation core.

Events are ordered by (time, priority, sequence).  Time is an **integer
picosecond** count: at the paper's 2.5 Gbps link rate one byte takes exactly
3200 ps, so integer time keeps every latency exact and every run
bit-reproducible — no floating-point ties, no platform-dependent ordering.

The sequence number breaks ties deterministically in scheduling order, which
matters because DoS experiments schedule thousands of same-instant events
(credit returns, arbitration passes) whose relative order must not depend on
queue internals.

The queue is one binary heap (``heapq``) of ``(time, priority, seq, fn,
args)`` entries.  A fire-and-forget event (:meth:`Engine.schedule_pooled`)
is just that tuple; a cancellable one (:meth:`Engine.schedule`) stores its
:class:`Event` handle in the ``fn`` slot and ``None`` as ``args``.

A caller can also :meth:`~Engine.reserve` a key without an event: it takes
the sequence number an event scheduled now would take, and the caller
decides later whether anything fires there (:meth:`~Engine.fire_reserved`).
:attr:`Engine.cut` tells it whether the clock has passed that key.  Links
return flow-control credits this way (DESIGN.md §3k).
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, Iterator

#: Picoseconds per microsecond — metrics convert through this.
PS_PER_US = 1_000_000
#: Picoseconds per nanosecond.
PS_PER_NS = 1_000

#: ``run()`` without ``until`` stops at no time.
_NO_LIMIT = 1 << 80


class Event:
    """Handle of one cancellable scheduled callback."""

    __slots__ = ("time", "priority", "seq", "fn", "args", "cancelled")

    def __init__(self, time: int, priority: int, seq: int,
                 fn: Callable[..., None], args: tuple[Any, ...] = ()) -> None:
        self.time = time
        self.priority = priority
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False

    def cancel(self) -> None:
        """Mark the event dead; the engine skips it when popped."""
        self.cancelled = True


class Engine:
    """Discrete-event engine with an integer picosecond clock.

    >>> eng = Engine()
    >>> hits = []
    >>> _ = eng.schedule(100, hits.append, "b")
    >>> _ = eng.schedule(50, hits.append, "a")
    >>> eng.run()
    >>> hits
    ['a', 'b']
    """

    __slots__ = ("_q", "_now", "_seq", "_processed", "_horizon", "cut")

    def __init__(self) -> None:
        #: the event queue: a heap of (time, priority, seq, fn, args) entries.
        self._q: list[tuple] = []
        self._now = 0
        self._seq = 0
        self._processed = 0
        #: latest time of any reserved key.
        self._horizon = 0
        #: The queue key the clock has passed: the entry of the event now
        #: firing (or fired last), or ``(now, 0, next seq)`` once a run has
        #: drained its queue or reached its ``until``.  A reserved key
        #: ``k`` is behind the clock when ``k < cut``.
        self.cut: tuple = (0, 0, 0)

    @property
    def now(self) -> int:
        """Current simulation time in picoseconds."""
        return self._now

    @property
    def now_us(self) -> float:
        """Current simulation time in microseconds (for reporting only)."""
        return self._now / PS_PER_US

    @property
    def events_processed(self) -> int:
        return self._processed

    @property
    def pending_count(self) -> int:
        """Entries currently queued (live + not-yet-discarded cancelled)."""
        return len(self._q)

    def schedule(self, delay: int, fn: Callable[..., None], *args: Any, priority: int = 0) -> Event:
        """Schedule *fn(*args)* to run *delay* picoseconds from now."""
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        return self._push_handle(self._now + int(delay), priority, fn, args)

    def schedule_at(self, time: int, fn: Callable[..., None], *args: Any, priority: int = 0) -> Event:
        """Schedule *fn(*args)* at absolute *time* picoseconds."""
        if time < self._now:
            raise ValueError(f"cannot schedule at {time} < now {self._now}")
        return self._push_handle(int(time), priority, fn, args)

    def _push_handle(self, time: int, priority: int, fn: Callable[..., None],
                     args: tuple[Any, ...]) -> Event:
        seq = self._seq
        self._seq = seq + 1
        ev = Event(time, priority, seq, fn, args)
        heappush(self._q, (time, priority, seq, ev, None))
        return ev

    def schedule_pooled(self, delay: int, fn: Callable[..., None], *args: Any,
                        priority: int = 0) -> None:
        """Fire-and-forget :meth:`schedule`: no handle is returned, so the
        event can never be cancelled, and its queue entry is the plain
        ``(time, priority, seq, fn, args)`` tuple.

        Ordering is identical to :meth:`schedule` — the event still
        consumes one sequence number at schedule time."""
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        seq = self._seq
        self._seq = seq + 1
        heappush(self._q, (self._now + int(delay), priority, seq, fn, args))

    def reserve(self, delay: int, args: tuple[Any, ...]) -> tuple:
        """Take the priority-0 key an event scheduled *delay* ps from now
        would get, without queueing anything.

        Returns the placeholder entry ``(time, 0, seq, None, args)``.  It
        orders exactly like the event would, so the caller can compare it
        with :attr:`cut`, or queue a callback at it with
        :meth:`fire_reserved`.  A drained :meth:`run` still ends at the
        latest reserved time."""
        if delay < 0:
            raise ValueError(f"cannot reserve into the past (delay={delay})")
        time = self._now + delay
        seq = self._seq
        self._seq = seq + 1
        if time > self._horizon:
            self._horizon = time
        return (time, 0, seq, None, args)

    def fire_reserved(self, entry: tuple, fn: Callable[..., None]) -> tuple:
        """Queue *fn* at the reserved key of placeholder *entry*, called
        with its args; returns the queued entry.  The key must still be
        ahead of :attr:`cut`."""
        fired = (entry[0], 0, entry[2], fn, entry[4])
        heappush(self._q, fired)
        return fired

    def _head(self) -> tuple | None:
        """The next live entry, discarding cancelled ones as they surface."""
        q = self._q
        while q:
            entry = q[0]
            if entry[4] is not None or not entry[3].cancelled:
                return entry
            heappop(q)
        return None

    def peek_time(self) -> int | None:
        """Time of the next live event, or None if the queue is drained."""
        head = self._head()
        return head[0] if head is not None else None

    def queued(self) -> Iterator[tuple[int, Callable[..., None], tuple[Any, ...]]]:
        """``(time, fn, args)`` of every live queued event, in no order."""
        for time, _, _, fn, args in self._q:
            if args is None:
                if fn.cancelled:
                    continue
                fn, args = fn.fn, fn.args
            yield time, fn, args

    def step(self) -> bool:
        """Run the next event.  Returns False when no events remain."""
        head = self._head()
        if head is None:
            return False
        heappop(self._q)
        time, _, _, fn, args = head
        if args is None:
            fn, args = fn.fn, fn.args
        self._now = time
        self.cut = head
        fn(*args)
        self._processed += 1
        return True

    def run(self, until: int | None = None, max_events: int | None = None) -> None:
        """Run events until the queue empties, *until* (ps) passes, or
        *max_events* have fired — whichever comes first.

        ``until`` is inclusive of events stamped exactly at that time.  The
        clock advances to ``until`` afterwards so follow-on scheduling is
        well-defined — *unless* ``max_events`` cut the run short while work
        stamped at or before ``until`` is still pending.  In that case the
        clock stays at the last processed event, so another ``run(until=...)``
        call resumes exactly where the budget ran out instead of silently
        skipping over the unprocessed events' timestamps.  A run without
        ``until`` that drains the queue ends at the latest reserved key's
        time if that is later than its last event.

        Cancelled entries are discarded as they surface and never count
        against *max_events*.
        """
        q = self._q
        stop = _NO_LIMIT if until is None else until
        count = 0
        budget = -1 if max_events is None else max_events
        while q:
            entry = q[0]
            time, _, _, fn, args = entry
            if args is None:
                if fn.cancelled:
                    heappop(q)
                    continue
                fn, args = fn.fn, fn.args
            if count == budget:
                if time <= stop:
                    return  # pending work the clock must not jump
                break
            if time > stop:
                break
            heappop(q)
            self._now = time
            self.cut = entry
            fn(*args)
            self._processed += 1
            count += 1
        if until is None:
            if self._horizon > self._now:  # the queue drained
                self._now = self._horizon
        elif self._now < until:
            self._now = until
        self.cut = (self._now, 0, self._seq)
