"""Event-driven simulation core.

Events are ordered by (time, priority, sequence).  Time is an **integer
picosecond** count: at the paper's 2.5 Gbps link rate one byte takes exactly
3200 ps, so integer time keeps every latency exact and every run
bit-reproducible — no floating-point ties, no platform-dependent ordering.

The sequence number breaks ties deterministically in scheduling order, which
matters because DoS experiments schedule thousands of same-instant events
(credit returns, arbitration passes) whose relative order must not depend on
queue internals.

The queue structure itself is pluggable (:mod:`repro.sim.scheduler`): a
binary heap kept as the oracle, or a calendar queue for fat-tree-scale runs.
Both produce the identical (time, priority, seq) pop order; an engine
samples the module-level mode at construction.  Under either queue the
engine recycles fire-and-forget events through a free list
(:meth:`Engine.schedule_pooled`) so the steady-state hot path allocates
nothing per event.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.sim.scheduler import get_scheduler, make_scheduler

#: Picoseconds per microsecond — metrics convert through this.
PS_PER_US = 1_000_000
#: Picoseconds per nanosecond.
PS_PER_NS = 1_000


class Event:
    """One scheduled callback.  Ordered by (time, priority, seq).

    Queue entries are ``(time, priority, seq, event)`` tuples, so ordering
    is resolved by C-level tuple comparison (seq is unique, the event
    object itself is never compared) — profiling showed dataclass-generated
    ``__lt__`` dominating the event loop otherwise.

    ``pooled`` marks events owned by the engine's free list: they were
    scheduled fire-and-forget (no handle escaped, so nothing can cancel
    them) and are recycled after firing.
    """

    __slots__ = ("time", "priority", "seq", "fn", "args", "cancelled", "pooled")

    def __init__(self, time: int, priority: int, seq: int,
                 fn: Callable[..., None], args: tuple[Any, ...] = ()) -> None:
        self.time = time
        self.priority = priority
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False
        self.pooled = False

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

    __slots__ = ("_sched", "_push", "_now", "_seq", "_processed", "_pool",
                 "scheduler_mode")

    def __init__(self, scheduler: str | None = None) -> None:
        #: which queue family this engine runs on (fixed at construction).
        self.scheduler_mode = scheduler if scheduler is not None else get_scheduler()
        self._sched = make_scheduler(self.scheduler_mode)
        self._push = self._sched.push  # bound once; schedule paths are hot
        self._now = 0
        self._seq = 0
        self._processed = 0
        #: free list of recycled fire-and-forget events.
        self._pool: list[Event] = []

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
        return len(self._sched)

    def schedule(self, delay: int, fn: Callable[..., None], *args: Any, priority: int = 0) -> Event:
        """Schedule *fn(*args)* to run *delay* picoseconds from now."""
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        time = self._now + int(delay)
        seq = self._seq
        self._seq = seq + 1
        ev = Event(time, priority, seq, fn, args)
        self._push((time, priority, seq, ev))
        return ev

    def schedule_at(self, time: int, fn: Callable[..., None], *args: Any, priority: int = 0) -> Event:
        """Schedule *fn(*args)* at absolute *time* picoseconds."""
        if time < self._now:
            raise ValueError(f"cannot schedule at {time} < now {self._now}")
        time = int(time)
        seq = self._seq
        self._seq = seq + 1
        ev = Event(time, priority, seq, fn, args)
        self._push((time, priority, seq, ev))
        return ev

    def schedule_pooled(self, delay: int, fn: Callable[..., None], *args: Any,
                        priority: int = 0) -> None:
        """Fire-and-forget :meth:`schedule`: no handle is returned, so the
        event can never be cancelled and the engine recycles the record
        through its free list.

        Ordering is identical to :meth:`schedule` — the event still
        consumes one sequence number at schedule time."""
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        time = self._now + int(delay)
        seq = self._seq
        self._seq = seq + 1
        pool = self._pool
        if pool:
            ev = pool.pop()
            ev.time = time
            ev.priority = priority
            ev.seq = seq
            ev.fn = fn
            ev.args = args
        else:
            ev = Event(time, priority, seq, fn, args)
            ev.pooled = True
        self._push((time, priority, seq, ev))

    def peek_time(self) -> int | None:
        """Time of the next live event, or None if the queue is drained."""
        head = self._sched.peek()
        return head[0] if head is not None else None

    def step(self) -> bool:
        """Run the next event.  Returns False when no events remain."""
        sched = self._sched
        head = sched.peek()
        if head is None:
            return False
        sched.pop_head()
        ev = head[3]
        self._now = head[0]
        ev.fn(*ev.args)
        self._processed += 1
        if ev.pooled:
            ev.fn = None  # type: ignore[assignment]
            ev.args = ()
            self._pool.append(ev)
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
        skipping over the unprocessed events' timestamps.
        """
        # The loop itself lives on the scheduler (``drain``) so each queue
        # family runs its own fused peek/pop hot path — the heap pops
        # inline, the wheel walks its current bucket with a local cursor.
        # Cancelled entries are discarded as they surface and never count
        # against *max_events*; pooled events go back on the engine's free
        # list after firing.
        budget_hit = self._sched.drain(self, until, max_events)
        if until is not None and self._now < until:
            if budget_hit:
                nxt = self.peek_time()
                if nxt is not None and nxt <= until:
                    return  # pending work before `until` — clock must not jump it
            self._now = until
