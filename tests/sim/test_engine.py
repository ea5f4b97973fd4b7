"""Discrete-event engine: ordering, determinism, cancellation, run bounds.

The randomized tests drive the same seeded workload through the engine and
through :class:`ModelQueue`, a brute-force model of its queue order, and
require identical firing logs.
"""

import random

import pytest

from repro.sim.engine import Engine, PS_PER_US


class TestScheduling:
    def test_time_order(self):
        eng = Engine()
        hits = []
        eng.schedule(300, hits.append, "c")
        eng.schedule(100, hits.append, "a")
        eng.schedule(200, hits.append, "b")
        eng.run()
        assert hits == ["a", "b", "c"]

    def test_fifo_ties(self):
        """Same-time events fire in scheduling order — load-bearing for
        reproducibility under heavy same-instant credit traffic."""
        eng = Engine()
        hits = []
        for i in range(10):
            eng.schedule(50, hits.append, i)
        eng.run()
        assert hits == list(range(10))

    def test_priority_breaks_ties_before_seq(self):
        eng = Engine()
        hits = []
        eng.schedule(50, hits.append, "later", priority=1)
        eng.schedule(50, hits.append, "sooner", priority=0)
        eng.run()
        assert hits == ["sooner", "later"]

    def test_clock_advances_to_event_time(self):
        eng = Engine()
        seen = []
        eng.schedule(123, lambda: seen.append(eng.now))
        eng.run()
        assert seen == [123]
        assert eng.now == 123

    def test_negative_delay_rejected(self):
        eng = Engine()
        with pytest.raises(ValueError):
            eng.schedule(-1, lambda: None)

    def test_schedule_at_past_rejected(self):
        eng = Engine()
        eng.schedule(100, lambda: None)
        eng.run()
        with pytest.raises(ValueError):
            eng.schedule_at(50, lambda: None)

    def test_nested_scheduling(self):
        eng = Engine()
        hits = []

        def outer():
            hits.append(("outer", eng.now))
            eng.schedule(10, inner)

        def inner():
            hits.append(("inner", eng.now))

        eng.schedule(5, outer)
        eng.run()
        assert hits == [("outer", 5), ("inner", 15)]

    def test_callback_push_into_current_instant(self):
        """An event scheduled at delay 0 from inside a callback fires
        before events stamped later."""
        eng = Engine()
        log = []

        def outer():
            log.append("outer")
            eng.schedule(0, log.append, "inner")

        eng.schedule(50, outer)
        eng.schedule(51, log.append, "later")
        eng.run()
        assert log == ["outer", "inner", "later"]

    def test_same_instant_ties_keep_order_across_schedule_and_schedule_at(self):
        eng = Engine()
        log = []
        eng.run(until=40)
        for i in range(6):
            if i % 2:
                eng.schedule_at(100, log.append, i)
            else:
                eng.schedule(60, log.append, i)
        eng.run()
        assert log == list(range(6))

    def test_priority_then_seq_orders_mixed_ties(self):
        eng = Engine()
        log = []
        prios = (2, 0, 1, 0, 2, 1)
        for i, prio in enumerate(prios):
            eng.schedule(100, log.append, i, priority=prio)
        eng.run()
        assert log == sorted(range(6), key=lambda i: (prios[i], i))

    def test_far_apart_times_pop_in_time_order(self):
        eng = Engine()
        log = []
        times = [9 << 13, 2 << 13, 123, (7 << 13) + 5, 0, (1 << 22) + 17]
        for t in times:
            eng.schedule_at(t, log.append, t)
        eng.run()
        assert log == sorted(times)


class TestRunControl:
    def test_run_until_inclusive(self):
        eng = Engine()
        hits = []
        eng.schedule(100, hits.append, 1)
        eng.schedule(200, hits.append, 2)
        eng.schedule(201, hits.append, 3)
        eng.run(until=200)
        assert hits == [1, 2]
        assert eng.now == 200

    def test_run_until_advances_clock_when_idle(self):
        eng = Engine()
        eng.run(until=5000)
        assert eng.now == 5000

    def test_remaining_events_fire_on_next_run(self):
        eng = Engine()
        hits = []
        eng.schedule(300, hits.append, "late")
        eng.run(until=100)
        assert hits == []
        eng.run()
        assert hits == ["late"]

    def test_max_events(self):
        eng = Engine()
        hits = []
        for i in range(10):
            eng.schedule(i + 1, hits.append, i)
        eng.run(max_events=3)
        assert hits == [0, 1, 2]

    def test_budget_stops_among_same_instant_events(self):
        eng = Engine()
        log = []
        for i in range(5):
            eng.schedule(100, log.append, i)
        eng.run(max_events=2)
        assert log == [0, 1]
        assert eng.pending_count == 3
        eng.run()
        assert log == [0, 1, 2, 3, 4]

    def test_step_returns_false_when_empty(self):
        assert Engine().step() is False

    def test_until_between_two_events_stops_clock_at_until(self):
        eng = Engine()
        log = []
        eng.schedule(10, log.append, "early")
        eng.schedule(20, log.append, "late")
        eng.run(until=15)
        assert log == ["early"]
        assert eng.now == 15
        eng.run()
        assert log == ["early", "late"]

    def test_until_equal_to_only_event_fires_it(self):
        eng = Engine()
        log = []
        eng.schedule(100, log.append, "edge")
        eng.run(until=100)
        assert log == ["edge"]

    def test_run_on_empty_queue_processes_nothing(self):
        eng = Engine()
        eng.run(until=500)
        assert eng.now == 500
        assert eng.events_processed == 0

    def test_budget_cut_before_until_then_resume_reaches_until(self):
        """A budget cut with work pending at or before `until` holds the
        clock at the last processed event; the resumed run ends at `until`."""
        eng = Engine()
        log = []
        for t in (10, 20, 30):
            eng.schedule_at(t, log.append, t)
        eng.run(until=100, max_events=2)
        assert log == [10, 20]
        assert eng.now == 20
        eng.run(until=100)
        assert log == [10, 20, 30]
        assert eng.now == 100

    def test_events_processed_counter(self):
        eng = Engine()
        for i in range(5):
            eng.schedule(i + 1, lambda: None)
        eng.run()
        assert eng.events_processed == 5


class TestCancellation:
    def test_cancelled_event_skipped(self):
        eng = Engine()
        hits = []
        ev = eng.schedule(100, hits.append, "cancelled")
        eng.schedule(200, hits.append, "kept")
        ev.cancel()
        eng.run()
        assert hits == ["kept"]

    def test_peek_skips_cancelled(self):
        eng = Engine()
        ev = eng.schedule(100, lambda: None)
        eng.schedule(200, lambda: None)
        ev.cancel()
        assert eng.peek_time() == 200

    def test_cancel_from_earlier_callback_skips_victim(self):
        eng = Engine()
        log = []
        victim = eng.schedule(100, log.append, "victim")
        eng.schedule(99, victim.cancel)
        eng.schedule(101, log.append, "after")
        eng.run()
        assert log == ["after"]

    def test_cancelled_between_live_events_does_not_consume_budget(self):
        eng = Engine()
        log = []
        eng.schedule(10, log.append, "a")
        dead = eng.schedule(20, log.append, "dead")
        eng.schedule(30, log.append, "b")
        dead.cancel()
        eng.run(max_events=2)
        assert log == ["a", "b"]

    def test_cancelled_not_counted_in_events_processed(self):
        eng = Engine()
        eng.schedule(10, lambda: None).cancel()
        eng.schedule(20, lambda: None)
        eng.run()
        assert eng.events_processed == 1


class TestUnits:
    def test_now_us(self):
        eng = Engine()
        eng.schedule(int(2.5 * PS_PER_US), lambda: None)
        eng.run()
        assert eng.now_us == pytest.approx(2.5)


class TestCancellationHeavyRun:
    """Regression for the single-heap-inspection run() loop: with many
    cancelled entries — cancelled before the run and from inside callbacks,
    amid heavy ties and mixed priorities — run() must fire exactly the live
    events, in exactly the order the step()-loop semantics define, and
    cancelled pops must never count against max_events."""

    def _drive(self, runner):
        eng = Engine()
        hits = []
        events = []

        def fire(i):
            hits.append(i)
            if i == 4:  # in-run cancellation of later pending events
                for j in (40, 41, 47, 55):
                    events[j].cancel()

        for i in range(60):
            # (i % 7) * 100 → ~9 events per timestamp; priority cycles 0..2
            events.append(eng.schedule((i % 7) * 100, fire, i, priority=i % 3))
        for i in range(0, 60, 3):  # pre-run cancellation of every third event
            events[i].cancel()
        runner(eng)
        return hits, eng

    def test_run_matches_step_loop_event_order(self):
        hits_run, eng_run = self._drive(lambda e: e.run())
        hits_step, eng_step = self._drive(lambda e: [None for _ in iter(e.step, False)])
        assert hits_run == hits_step
        assert len(hits_run) > 30  # the schedule really was cancellation-heavy
        assert eng_run.now == eng_step.now
        assert eng_run.events_processed == eng_step.events_processed

    def test_cancelled_in_run_never_fire(self):
        hits, _ = self._drive(lambda e: e.run())
        for j in (40, 41, 47, 55):
            assert j not in hits
        for i in range(0, 60, 3):
            assert i not in hits

    def test_cancelled_events_do_not_consume_max_events(self):
        eng = Engine()
        hits = []
        events = [eng.schedule((i + 1) * 10, hits.append, i) for i in range(6)]
        for i in range(3):
            events[i].cancel()
        eng.run(max_events=2)
        assert hits == [3, 4]  # budget spent only on live events
        assert eng.events_processed == 2

    def test_leading_cancelled_beyond_until_do_not_block_clock_jump(self):
        eng = Engine()
        ev = eng.schedule(5000, lambda: None)
        ev.cancel()
        eng.run(until=100)
        assert eng.now == 100

    def test_cancellation_preserves_tie_order_of_survivors(self):
        eng = Engine()
        hits = []
        events = [eng.schedule(50, hits.append, i) for i in range(8)]
        events[0].cancel()
        events[3].cancel()
        events[7].cancel()
        eng.run()
        assert hits == [1, 2, 4, 5, 6]  # FIFO among same-time survivors


class TestRunBudgetClockSemantics:
    """max_events vs until: the clock only jumps to `until` when nothing
    stamped at or before `until` is left unprocessed."""

    def test_budget_cut_with_pending_work_keeps_clock(self):
        eng = Engine()
        hits = []
        for i in range(10):
            eng.schedule((i + 1) * 100, hits.append, i)
        eng.run(until=2000, max_events=3)
        assert hits == [0, 1, 2]
        # events at 400..1000 <= until are still pending: no clock jump
        assert eng.now == 300
        assert eng.peek_time() == 400

    def test_budget_cut_resumes_where_it_stopped(self):
        eng = Engine()
        hits = []
        for i in range(5):
            eng.schedule((i + 1) * 100, hits.append, i)
        eng.run(until=1000, max_events=2)
        eng.run(until=1000)  # finish the same horizon
        assert hits == [0, 1, 2, 3, 4]
        assert eng.now == 1000

    def test_budget_hit_with_only_later_events_advances_clock(self):
        eng = Engine()
        hits = []
        eng.schedule(100, hits.append, "a")
        eng.schedule(5000, hits.append, "late")
        eng.run(until=2000, max_events=1)
        assert hits == ["a"]
        # the only pending event is beyond `until`: docstring semantics hold
        assert eng.now == 2000

    def test_budget_exactly_drains_queue_below_until(self):
        eng = Engine()
        hits = []
        eng.schedule(100, hits.append, "a")
        eng.schedule(200, hits.append, "b")
        eng.run(until=9000, max_events=2)
        assert hits == ["a", "b"]
        assert eng.now == 9000

    def test_budget_without_until_keeps_clock_at_last_event(self):
        eng = Engine()
        for i in range(4):
            eng.schedule((i + 1) * 10, lambda: None)
        eng.run(max_events=2)
        assert eng.now == 20


class TestEventPooling:
    def test_pooled_ordering_matches_schedule(self):
        """schedule_pooled consumes a seq like schedule — interleaving the
        two must preserve FIFO among same-instant events."""
        eng = Engine()
        log = []
        eng.schedule(100, log.append, 0)
        eng.schedule_pooled(100, log.append, 1)
        eng.schedule(100, log.append, 2)
        eng.schedule_pooled(100, log.append, 3)
        eng.run()
        assert log == [0, 1, 2, 3]


class ModelQueue:
    """Brute-force model of :class:`Engine`'s queue: a plain list of live
    ``(time, priority, seq, fn, args)`` entries, sorted at every pop, with
    cancelled entries removed at once.  Same clock rules as
    :meth:`Engine.run`."""

    def __init__(self) -> None:
        self.now = 0
        self.events_processed = 0
        self._seq = 0
        self._live: list[tuple] = []

    def schedule_at(self, time, fn, *args, priority=0):
        entry = (time, priority, self._seq, fn, args)
        self._seq += 1
        self._live.append(entry)
        return _ModelHandle(self._live, entry)

    def schedule(self, delay, fn, *args, priority=0):
        return self.schedule_at(self.now + delay, fn, *args, priority=priority)

    schedule_pooled = schedule

    def peek_time(self):
        return min(self._live)[0] if self._live else None

    def run(self, until=None, max_events=None):
        fired = 0
        while self._live:
            self._live.sort()
            time, _, _, fn, args = self._live[0]
            if fired == max_events:
                if until is not None and time <= until:
                    return  # the clock must not jump pending work
                break
            if until is not None and time > until:
                break
            del self._live[0]
            self.now = time
            fn(*args)
            self.events_processed += 1
            fired += 1
        if until is not None and self.now < until:
            self.now = until


class _ModelHandle:
    def __init__(self, live, entry) -> None:
        self._live = live
        self._entry = entry

    def cancel(self) -> None:
        if self._entry in self._live:
            self._live.remove(self._entry)


#: Delay mix: same-instant ties, short and medium offsets, and far enough
#: out that many events are pending at once.
DELAYS = (0, 0, 1, 7, 8191, 8192, 8193, 40_960, 40_000, 1 << 20, (1 << 22) + 17)


def chaos_log(eng, seed, chunked=False, initial=40, budget=600):
    """Drive a seeded self-rescheduling workload with cancellations
    through *eng*; return the firing log, event count and final clock.

    Callbacks draw from the shared RNG at fire time, so a single
    out-of-order pop desynchronizes the log.  *chunked* runs it in
    ``run(until=...)``, ``run(max_events=...)`` and combined slices,
    scheduling from outside between them (as the sharded engine delivers
    cross-shard messages).
    """
    rng = random.Random(seed)
    log = []
    handles = []
    remaining = [budget]
    ids = iter(range(10**6))

    def fire(tag):
        log.append((eng.now, tag))
        for _ in range(rng.randrange(0, 3)):
            if remaining[0] <= 0:
                break
            remaining[0] -= 1
            delay = rng.choice(DELAYS)
            prio = rng.choice((0, 0, 0, 1))
            tag2 = f"e{next(ids)}"
            if rng.random() < 0.25:
                handles.append(eng.schedule(delay, fire, tag2, priority=prio))
            else:
                eng.schedule_pooled(delay, fire, tag2, priority=prio)
        if handles and rng.random() < 0.3:
            handles.pop(rng.randrange(len(handles))).cancel()

    for i in range(initial):
        remaining[0] -= 1
        eng.schedule(rng.choice(DELAYS), fire, f"s{i}")
    horizon = 0
    while chunked and eng.peek_time() is not None:
        horizon = max(horizon, eng.now) + rng.choice(DELAYS) + 1
        kind = rng.randrange(3)  # until only, budget only, or both
        eng.run(until=None if kind == 1 else horizon,
                max_events=None if kind == 0 else rng.randrange(1, 17))
        if remaining[0] > 0:
            remaining[0] -= 1
            eng.schedule_at(eng.now + rng.choice(DELAYS), fire, f"x{len(log)}")
    eng.run()
    return log, eng.events_processed, eng.now


@pytest.mark.parametrize("seed", [0, 1, 7, 42, 1234])
def test_queue_matches_model_chaos(seed):
    log, processed, now = chaos_log(Engine(), seed)
    assert log, "workload must actually fire events"
    assert (log, processed, now) == chaos_log(ModelQueue(), seed)


@pytest.mark.parametrize("seed", [3, 99])
def test_queue_matches_model_under_chunked_runs(seed):
    log, processed, now = chaos_log(Engine(), seed, chunked=True)
    assert len(log) > 100
    assert (log, processed, now) == chaos_log(ModelQueue(), seed, chunked=True)


class TestReservedKeys:
    """``reserve`` takes the key an event scheduled now would get; ``cut``
    says whether the clock has passed it."""

    def test_reserve_consumes_a_seq_and_orders_like_an_event(self):
        eng = Engine()
        log = []
        eng.schedule(100, log.append, "before")
        entry = eng.reserve(100, ("reserved",))
        eng.schedule(100, log.append, "after")
        assert eng.pending_count == 2
        eng.fire_reserved(entry, log.append)
        eng.run()
        assert log == ["before", "reserved", "after"]

    def test_cut_is_the_event_now_firing(self):
        eng = Engine()
        entry = eng.reserve(100, ())
        seen = []
        eng.schedule(100, lambda: seen.append(entry < eng.cut))
        eng.schedule(99, lambda: seen.append(entry < eng.cut))
        eng.run()
        assert seen == [False, True]

    def test_drained_run_ends_at_the_latest_reserved_time(self):
        eng = Engine()
        entry = eng.reserve(5000, ())
        eng.schedule(100, lambda: None)
        eng.run()
        assert eng.now == 5000
        assert entry < eng.cut
        assert not eng.reserve(0, ()) < eng.cut  # reserved after the run

    def test_run_until_passes_keys_up_to_until_inclusive(self):
        eng = Engine()
        at, after = eng.reserve(300, ()), eng.reserve(301, ())
        eng.run(until=300)
        assert eng.now == 300
        assert at < eng.cut and not after < eng.cut

    def test_budget_cut_keeps_cut_at_the_last_fired_event(self):
        eng = Engine()
        eng.schedule(10, lambda: None)
        entry = eng.reserve(15, ())
        eng.schedule(20, lambda: None)
        eng.run(until=100, max_events=1)
        assert eng.now == 10
        assert not entry < eng.cut
