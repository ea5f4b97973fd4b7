"""Counter registry: int emulation, namespacing, globbing, snapshots."""

import pickle

import pytest

from repro.sim.counters import Counter, CounterRegistry


class TestCounter:
    def test_starts_at_zero_and_increments(self):
        c = Counter("x")
        assert c == 0 and not c
        c.inc()
        c.inc(3)
        assert c == 4

    def test_add_alias_and_floats(self):
        c = Counter("stalls")
        c.add(2.5)
        c.add(0.5)
        assert c == 3.0
        assert float(c) == 3.0

    def test_reset(self):
        c = Counter("x")
        c.inc(7)
        c.reset()
        assert c == 0

    def test_int_emulation_read_sites(self):
        """The exact read idioms the migrated call sites rely on."""
        a, b = Counter("a", 2), Counter("b", 3)
        assert sum([a, b]) == 5  # sum(sw.forwarded for ...)
        assert a < b and b > a and a <= 2 and b >= 3
        assert a != b and a == Counter("other", 2)
        assert int(b) == 3 and bool(a) and a + 1 == 3 and 1 + a == 3
        assert b - a == 1 and 10 - b == 7
        assert a * 2 == 4 and b / 2 == 1.5
        assert f"{a}" == "2" and f"{b:04d}" == "0003"
        assert list(range(a)) == [0, 1]  # __index__

    def test_identity_hash_despite_value_equality(self):
        a, b = Counter("a", 1), Counter("b", 1)
        assert a == b and hash(a) != hash(b)

    def test_repr_names_the_counter(self):
        assert "hca.1.delivered" in repr(Counter("hca.1.delivered", 9))


class TestCounterRegistry:
    def test_counter_is_create_or_fetch(self):
        reg = CounterRegistry()
        a = reg.counter("x.y")
        a.inc(5)
        assert reg.counter("x.y") is a
        assert reg.counter("x.y") == 5

    def test_gauge_alias(self):
        reg = CounterRegistry()
        assert reg.gauge("g") is reg.counter("g")

    def test_get_missing_is_zero(self):
        assert CounterRegistry().get("no.such") == 0

    def test_contains_len_names(self):
        reg = CounterRegistry()
        reg.counter("b")
        reg.counter("a")
        assert "a" in reg and "z" not in reg
        assert len(reg) == 2
        assert reg.names() == ["a", "b"]

    def test_total_globs(self):
        reg = CounterRegistry()
        reg.counter("switch.sw(0,0).forwarded").inc(2)
        reg.counter("switch.sw(1,0).forwarded").inc(3)
        reg.counter("switch.sw(0,0).filtered_drops").inc(9)
        assert reg.total("switch.*.forwarded") == 5
        assert reg.total("switch.sw(0,0).*") == 11
        assert reg.total("hca.*") == 0

    def test_snapshot_is_plain_and_picklable(self):
        reg = CounterRegistry()
        reg.counter("hca.1.delivered").inc(4)
        reg.gauge("switch.s.lookup_stalls_ns").add(1.5)
        snap = reg.snapshot()
        assert snap == {"hca.1.delivered": 4, "switch.s.lookup_stalls_ns": 1.5}
        assert all(type(v) in (int, float) for v in snap.values())
        assert pickle.loads(pickle.dumps(snap)) == snap
        # later mutation must not retroactively change the snapshot
        reg.counter("hca.1.delivered").inc()
        assert snap["hca.1.delivered"] == 4

    def test_snapshot_pattern(self):
        reg = CounterRegistry()
        reg.counter("a.x").inc()
        reg.counter("b.x").inc()
        assert set(reg.snapshot("a.*")) == {"a.x"}

    def test_mutation_must_use_inc_not_augmented_assign(self):
        """+= on the value works, but += on an attribute holding the
        Counter would rebind it — documented by Counter.__add__ returning
        a plain number, not a Counter."""
        reg = CounterRegistry()
        c = reg.counter("x")
        rebound = c + 1
        assert not isinstance(rebound, Counter)


def test_counters_are_on_whatever_the_environment(monkeypatch):
    """Regression: ``REPRO_OBSERVABILITY=off`` used to zero every counter,
    so Table 2's measured lookups read 0/0/0.  Counters are always on now,
    and the variable no longer selects anything."""
    from repro.experiments.table2_overhead import measured_lookups
    from repro.sim.config import EnforcementMode, SimConfig
    from repro.sim.runner import run_simulation

    monkeypatch.setenv("REPRO_OBSERVABILITY", "off")
    counts = measured_lookups(sim_time_us=300)
    assert counts["dpt"] > counts["if"] > 0
    report = run_simulation(SimConfig(
        sim_time_us=60.0, warmup_us=0.0, seed=1, enforcement=EnforcementMode.DPT,
    ))
    assert report.switch_lookups > 0


@pytest.mark.parametrize("shards, expected", [
    ([{"drops": 3}, {"drops": 4}], {"drops": 7}),
    ([{"drops": 3}, {"drops": 4.5}, {"drops": 0.25}], {"drops": 7.75}),
    ([{"x": 5}, {}], {"x": 5}),
    ([{"mine": 1}, {"theirs": 2}], {"mine": 1, "theirs": 2}),
    ([{"z.late": 1, "a.early": 2}, {"m.mid": 3, "a.early": 1}],
     {"a.early": 3, "m.mid": 3, "z.late": 1}),
    ([{"shared": 1, "only.0": 0}, {"shared": 10, "only.1": 1},
      {"shared": 100, "only.2": 2}],
     {"only.0": 0, "only.1": 1, "only.2": 2, "shared": 111}),
], ids=["ints", "floats", "empty_shard", "one_shard_names", "sorted", "three_shards"])
def test_shard_counter_fold(shards, expected):
    """The sharded report's counters: same-name values sum, a name only one
    shard has is kept, the result is name-sorted, and folding in shard
    order is deterministic."""
    from repro.sim.shard import fold_counters

    folded = fold_counters(shards)
    assert folded == expected
    assert list(folded) == sorted(folded)
    assert fold_counters(shards) == folded
