"""The pluggable scheduler: wheel-vs-heap ordering equivalence.

The calendar queue must pop in the identical ``(time, priority, seq)``
order as the binary-heap oracle — including same-instant ties,
cancellations inside the bucket being drained, far-future events that
span many slots, and events landing exactly on slot boundaries.  The
randomized tests run the *same* seeded chaos workload through both
modes and require bit-identical firing logs.
"""

import random

import pytest

from repro.sim.engine import Engine
from repro.sim.scheduler import (
    MODES,
    SLOT_BITS,
    get_scheduler,
    make_scheduler,
    set_scheduler,
)

SLOT_PS = 1 << SLOT_BITS

#: Delay mix exercising every wheel path: same-instant (current-bucket
#: insort), sub-slot, exact slot boundary, a few slots out, and far
#: enough to guarantee distinct heap entries in the slot heap.
DELAYS = (0, 0, 1, 7, SLOT_PS - 1, SLOT_PS, SLOT_PS + 1,
          5 * SLOT_PS, 40_000, 1 << 20, (1 << 22) + 17)


def chaos_log(mode, seed, initial=40, budget=600):
    """Run a seeded self-rescheduling workload; return the firing log.

    Callbacks draw from the shared RNG at fire time, so any ordering
    divergence between modes immediately desynchronizes the logs — the
    comparison is therefore sensitive to a single out-of-order pop.
    """
    rng = random.Random(seed)
    eng = Engine(scheduler=mode)
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
        # cancel a random still-pending cancellable event now and then —
        # some of these are mid-bucket behind the wheel's drain cursor
        if handles and rng.random() < 0.3:
            handles.pop(rng.randrange(len(handles))).cancel()

    for i in range(initial):
        remaining[0] -= 1
        eng.schedule(rng.choice(DELAYS), fire, f"s{i}")
    eng.run()
    return log, eng


@pytest.mark.parametrize("seed", [0, 1, 7, 42, 1234])
def test_wheel_matches_heap_chaos(seed):
    wheel_log, wheel_eng = chaos_log("wheel", seed)
    heap_log, heap_eng = chaos_log("heap", seed)
    assert wheel_log == heap_log
    assert wheel_log, "workload must actually fire events"
    assert wheel_eng.events_processed == heap_eng.events_processed
    assert wheel_eng.now == heap_eng.now


def fat_tree_outcome(mode):
    """A k=4 fat-tree DoS (2 flooders, 80 % best-effort load, 32-packet VL
    buffers) run under *mode*: everything the run observably produced.

    The end-to-end check that the calendar queue pops a loaded fabric's
    events in the heap oracle's order.
    """
    from repro.sim.config import SimConfig
    from repro.sim.runner import run_simulation

    cfg = SimConfig(topology="fat_tree", fat_tree_k=4, num_attackers=2,
                    best_effort_load=0.8, vl_buffer_packets=32,
                    sim_time_us=100.0, warmup_us=5.0, keep_samples=False)
    prev = get_scheduler()
    try:
        set_scheduler(mode)
        report = run_simulation(cfg)
    finally:
        set_scheduler(prev)
    return (report.counters, report.drops, report.delivered,
            report.events_processed)


def test_wheel_matches_heap_on_fat_tree():
    wheel = fat_tree_outcome("wheel")
    assert wheel == fat_tree_outcome("heap")
    _, drops, delivered, _ = wheel
    assert delivered and drops, "workload must deliver and drop packets"


@pytest.mark.parametrize("seed", [3, 99])
def test_wheel_matches_heap_under_chunked_runs(seed):
    """Alternating run(until=...) and run(max_events=...) slices, with
    events scheduled from outside between them at any time from now on
    (as the sharded engine delivers cross-shard messages), must fire the
    same log under both queues."""
    def chunked(mode):
        rng = random.Random(seed)
        eng = Engine(scheduler=mode)
        log = []

        def fire(tag):
            log.append((eng.now, tag))
            if len(log) < 400:
                eng.schedule_pooled(rng.choice(DELAYS), fire, f"c{len(log)}")

        for i in range(20):
            eng.schedule(rng.choice(DELAYS), fire, f"s{i}")
        horizon = 0
        while eng.pending_count:
            if rng.random() < 0.5:
                horizon = max(horizon, eng.now) + rng.choice(DELAYS) + 1
                eng.run(until=horizon)
                if len(log) < 400:
                    eng.schedule_at(eng.now + rng.choice(DELAYS), fire, f"x{len(log)}")
            else:
                eng.run(max_events=rng.randrange(1, 17))
        return log, eng.events_processed

    wheel = chunked("wheel")
    heap = chunked("heap")
    assert wheel == heap


class TestOrdering:
    @pytest.mark.parametrize("mode", MODES)
    def test_same_instant_ties_fire_in_schedule_order(self, mode):
        eng = Engine(scheduler=mode)
        log = []
        for i in range(10):
            eng.schedule(100, log.append, i)
        eng.run()
        assert log == list(range(10))

    @pytest.mark.parametrize("mode", MODES)
    def test_priority_breaks_same_time_ties(self, mode):
        eng = Engine(scheduler=mode)
        log = []
        eng.schedule(100, log.append, "late", priority=1)
        eng.schedule(100, log.append, "early", priority=0)
        eng.run()
        assert log == ["early", "late"]

    @pytest.mark.parametrize("mode", MODES)
    def test_far_future_slots_pop_in_time_order(self, mode):
        eng = Engine(scheduler=mode)
        log = []
        times = [9 * SLOT_PS, 2 * SLOT_PS, 123, 7 * SLOT_PS + 5, 0]
        for t in times:
            eng.schedule_at(t, log.append, t)
        eng.run()
        assert log == sorted(times)

    @pytest.mark.parametrize("mode", MODES)
    def test_callback_push_into_current_instant(self, mode):
        """An event scheduled at delay 0 from inside a callback lands in
        the bucket being drained and must fire before later times."""
        eng = Engine(scheduler=mode)
        log = []

        def outer():
            log.append("outer")
            eng.schedule(0, log.append, "inner")

        eng.schedule(50, outer)
        eng.schedule(51, log.append, "later")
        eng.run()
        assert log == ["outer", "inner", "later"]


class TestCancellation:
    @pytest.mark.parametrize("mode", MODES)
    def test_cancelled_mid_bucket_is_skipped(self, mode):
        """Cancel a same-slot event from an earlier callback: the wheel has
        already sorted the victim into the bucket being drained."""
        eng = Engine(scheduler=mode)
        log = []
        victim = eng.schedule(100, log.append, "victim")
        eng.schedule(99, lambda: victim.cancel())
        eng.schedule(101, log.append, "after")
        eng.run()
        assert log == ["after"]

    @pytest.mark.parametrize("mode", MODES)
    def test_cancelled_does_not_consume_budget(self, mode):
        eng = Engine(scheduler=mode)
        log = []
        eng.schedule(10, log.append, "a")
        dead = eng.schedule(20, log.append, "dead")
        eng.schedule(30, log.append, "b")
        dead.cancel()
        eng.run(max_events=2)
        assert log == ["a", "b"]

    @pytest.mark.parametrize("mode", MODES)
    def test_cancelled_not_counted_in_events_processed(self, mode):
        eng = Engine(scheduler=mode)
        dead = eng.schedule(10, lambda: None)
        dead.cancel()
        eng.schedule(20, lambda: None)
        eng.run()
        assert eng.events_processed == 1


class TestDrainEdges:
    @pytest.mark.parametrize("mode", MODES)
    def test_budget_stops_mid_bucket(self, mode):
        eng = Engine(scheduler=mode)
        log = []
        for i in range(5):
            eng.schedule(100, log.append, i)  # all one bucket
        eng.run(max_events=2)
        assert log == [0, 1]
        assert eng.pending_count == 3
        eng.run()
        assert log == [0, 1, 2, 3, 4]

    @pytest.mark.parametrize("mode", MODES)
    def test_until_cuts_mid_bucket(self, mode):
        eng = Engine(scheduler=mode)
        log = []
        eng.schedule(10, log.append, "early")   # same slot as `late`
        eng.schedule(20, log.append, "late")
        eng.run(until=15)
        assert log == ["early"]
        assert eng.now == 15
        eng.run()
        assert log == ["early", "late"]

    @pytest.mark.parametrize("mode", MODES)
    def test_until_is_inclusive(self, mode):
        eng = Engine(scheduler=mode)
        log = []
        eng.schedule(100, log.append, "edge")
        eng.run(until=100)
        assert log == ["edge"]

    @pytest.mark.parametrize("mode", MODES)
    def test_budget_hit_before_until_holds_clock(self, mode):
        """When max_events cuts the run with work still pending at or
        before `until`, the clock must stay at the last processed event
        so a resumed run does not jump the unprocessed timestamps."""
        eng = Engine(scheduler=mode)
        log = []
        for t in (10, 20, 30):
            eng.schedule_at(t, log.append, t)
        eng.run(until=100, max_events=2)
        assert log == [10, 20]
        assert eng.now == 20
        eng.run(until=100)
        assert log == [10, 20, 30]
        assert eng.now == 100

    @pytest.mark.parametrize("mode", MODES)
    def test_push_before_bucket_opened_by_stopped_run(self, mode):
        """run(until=...) stopping short of a far event leaves the wheel's
        bucket for that event open; an event scheduled after that into an
        earlier slot must still fire first (the wheel used to file it
        behind the open bucket and run the clock backwards)."""
        eng = Engine(scheduler=mode)
        log = []
        eng.schedule_at(100_000, log.append, 100_000)
        eng.run(until=10)
        eng.schedule_at(50, log.append, 50)
        assert eng.peek_time() == 50
        eng.run()
        assert log == [50, 100_000]

    @pytest.mark.parametrize("mode", MODES)
    def test_push_before_bucket_opened_by_peek(self, mode):
        """The same after peek_time() opened the far bucket; the events
        left in it must still fire after the early one, in order."""
        eng = Engine(scheduler=mode)
        log = []
        for tag in ("a", "b"):
            eng.schedule_at(9 * SLOT_PS, log.append, tag)
        assert eng.peek_time() == 9 * SLOT_PS
        eng.schedule_at(2 * SLOT_PS, log.append, "early")
        eng.schedule_at(9 * SLOT_PS, log.append, "c")
        assert eng.peek_time() == 2 * SLOT_PS
        eng.run()
        assert log == ["early", "a", "b", "c"]

    @pytest.mark.parametrize("mode", MODES)
    def test_run_on_empty_queue_advances_to_until(self, mode):
        eng = Engine(scheduler=mode)
        eng.run(until=500)
        assert eng.now == 500
        assert eng.events_processed == 0


class TestEventPooling:
    @pytest.mark.parametrize("mode", MODES)
    def test_recycles_pooled_events(self, mode):
        eng = Engine(scheduler=mode)
        eng.schedule_pooled(10, lambda: None)
        eng.run()
        assert len(eng._pool) == 1
        recycled = eng._pool[0]
        assert recycled.pooled and recycled.fn is None and recycled.args == ()
        eng.schedule_pooled(10, lambda: None)
        assert not eng._pool, "free list entry must be reused"
        eng.run()
        assert eng._pool[0] is recycled

    def test_pooled_ordering_matches_schedule(self):
        """schedule_pooled consumes a seq like schedule — interleaving the
        two must preserve FIFO among same-instant events."""
        for mode in MODES:
            eng = Engine(scheduler=mode)
            log = []
            eng.schedule(100, log.append, 0)
            eng.schedule_pooled(100, log.append, 1)
            eng.schedule(100, log.append, 2)
            eng.schedule_pooled(100, log.append, 3)
            eng.run()
            assert log == [0, 1, 2, 3], mode

    @pytest.mark.parametrize("mode", MODES)
    def test_step_recycles_pooled_events_too(self, mode):
        eng = Engine(scheduler=mode)
        eng.schedule_pooled(10, lambda: None)
        assert eng.step() is True
        assert len(eng._pool) == 1


class TestModeSelection:
    def test_set_scheduler_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown scheduler mode"):
            set_scheduler("btree")

    def test_make_scheduler_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown scheduler mode"):
            make_scheduler("btree")

    def test_engine_samples_mode_at_construction(self):
        prev = get_scheduler()
        try:
            set_scheduler("wheel")
            eng = Engine()
            set_scheduler("heap")
            assert eng.scheduler_mode == "wheel"
            assert Engine().scheduler_mode == "heap"
        finally:
            set_scheduler(prev)

    def test_explicit_mode_overrides_global(self):
        prev = get_scheduler()
        try:
            set_scheduler("heap")
            assert Engine(scheduler="wheel").scheduler_mode == "wheel"
        finally:
            set_scheduler(prev)
