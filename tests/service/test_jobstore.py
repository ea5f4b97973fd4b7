"""Content addressing, deterministic reports and traces, and the one
result store the service shares with sweeps."""

import dataclasses
import json
import threading

from repro.fuzz.generators import Scenario
from repro.service.jobstore import JobStore, scenario_key
from repro.service.workers import execute_job
from repro.sim.sweep import RunCache, Sweep, config_key, report_payload

from tests.service.conftest import fake_runner, tiny_scenario_dict


def scenario(**kwargs) -> Scenario:
    return Scenario.from_dict(tiny_scenario_dict(**kwargs))


class TestScenarioKey:
    def test_schedule_free_key_is_the_sweep_key(self):
        """The service and the sweep layer share one memo table: a
        schedule-free scenario addresses exactly where ``Sweep`` would."""
        s = scenario(seed=9)
        assert scenario_key(s) == config_key(s.build_config())

    def test_schedules_change_the_key(self):
        plain = scenario(seed=9)
        faulted = Scenario.from_dict(dict(
            tiny_scenario_dict(seed=9),
            link_faults=[{"link": "hca1->sw(0,0)", "fail_us": 5.0}],
        ))
        assert scenario_key(faulted) != scenario_key(plain)
        assert scenario_key(faulted) != config_key(faulted.build_config())

    def test_key_is_stable_and_seed_sensitive(self):
        assert scenario_key(scenario(seed=3)) == scenario_key(scenario(seed=3))
        assert scenario_key(scenario(seed=3)) != scenario_key(scenario(seed=4))

    def test_name_does_not_change_a_schedule_free_key(self):
        # names are labels; the simulation is a function of the config only
        assert scenario_key(scenario(name="a")) == scenario_key(scenario(name="b"))


class TestReportPayload:
    def test_excludes_host_dependent_fields(self):
        result = fake_runner(tiny_scenario_dict())
        payload = report_payload(result.report)
        assert "wall_seconds" not in json.dumps(payload)

    def test_byte_identical_across_wall_clock_differences(self):
        """Two runs of the same scenario differ only in wall_seconds —
        their report payloads must serialize to identical bytes."""
        a = fake_runner(tiny_scenario_dict()).report
        b = dataclasses.replace(a, wall_seconds=a.wall_seconds * 100)
        dump = lambda r: json.dumps(report_payload(r), sort_keys=True)  # noqa: E731
        assert dump(a) == dump(b)


class TestDeterministicTrace:
    """``execute_job``'s trace is a function of the scenario too, whatever
    the worker ran before or runs beside it."""

    def test_repeat_job_returns_the_same_trace(self):
        body = tiny_scenario_dict()
        first = execute_job(body)
        assert first.trace and execute_job(body).trace == first.trace

    def test_concurrent_jobs_number_their_packets_from_one(self):
        body = tiny_scenario_dict(sim_time_us=100.0)
        results = []
        threads = [
            threading.Thread(target=lambda: results.append(execute_job(body)))
            for _ in range(2)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        a, b = (r.trace for r in results)
        created = [e["packet_id"] for e in a if e["kind"] == "created"]
        assert a == b
        assert created == list(range(1, len(created) + 1))


class TestSharedRunCache:
    def test_round_trip(self, tmp_path):
        cache = RunCache(tmp_path)
        s = scenario(seed=5)
        key = scenario_key(s)
        assert cache.get(key) is None
        result = fake_runner(s.to_dict())
        cache.put(key, result)
        loaded = cache.get(key)
        assert loaded is not None
        assert loaded.report.delivered == result.report.delivered
        assert loaded.trace == result.trace
        assert list(tmp_path.iterdir()) == [tmp_path / f"{key}.pkl"]

    def test_sweep_entry_reads_back_without_trace(self, tmp_path):
        """Sweeps warm API traffic: a sweep's entry answers the schedule-free
        scenario of that config, with no trace to serve."""
        s = scenario(seed=6)
        config = s.build_config()
        Sweep(config, {}, seeds=(config.seed,)).run(cache=tmp_path)
        loaded = RunCache(tmp_path).get(scenario_key(s))
        assert loaded is not None
        assert loaded.report.config == config
        assert loaded.trace is None

    def test_schedule_free_put_feeds_the_sweep_cache(self, tmp_path):
        """API traffic warms the sweep memo table: after a service run, a
        sweep of the same config is a hit."""
        s = scenario(seed=7)
        result = fake_runner(s.to_dict())
        RunCache(tmp_path).put(scenario_key(s), result)
        config = result.report.config
        sweep = Sweep(config, {}, seeds=(config.seed,))
        (point,) = sweep.run(cache=tmp_path)
        assert sweep.stats.cache_hits == 1
        assert sweep.stats.simulated == 0
        assert point.reports[0].delivered == result.report.delivered

    def test_scheduled_put_does_not_pollute_sweep_entries(self, tmp_path):
        faulted = Scenario.from_dict(dict(
            tiny_scenario_dict(seed=7),
            link_faults=[{"link": "hca1->sw(0,0)", "fail_us": 5.0}],
        ))
        result = fake_runner(faulted.to_dict())
        RunCache(tmp_path).put(scenario_key(faulted), result)
        # the faulted run must NOT satisfy a plain sweep of that config
        assert RunCache(tmp_path).get(config_key(result.report.config)) is None

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        s = scenario(seed=8)
        key = scenario_key(s)
        (tmp_path / f"{key}.pkl").write_bytes(b"not a pickle")
        assert RunCache(tmp_path).get(key) is None


class TestConcurrentCacheAccess:
    def test_racing_writers_never_produce_a_torn_read(self, tmp_path):
        """Two writers hammer the same key while a reader polls it: every
        successful read is a complete entry (tmp-file + rename contract)."""
        cache = RunCache(tmp_path)
        s = scenario(seed=11)
        key = scenario_key(s)
        result = fake_runner(s.to_dict())
        stop = threading.Event()
        torn = []

        def writer():
            while not stop.is_set():
                cache.put(key, result)

        def reader():
            while not stop.is_set():
                loaded = RunCache(tmp_path).get(key)
                if loaded is not None and loaded.report.delivered != 7:
                    torn.append(loaded)

        threads = [threading.Thread(target=writer) for _ in range(2)]
        threads.append(threading.Thread(target=reader))
        for t in threads:
            t.start()
        threading.Event().wait(0.5)
        stop.set()
        for t in threads:
            t.join(timeout=5)
        assert torn == []
        final = cache.get(key)
        assert final is not None
        assert final.report.delivered == 7


class TestJobStore:
    def test_coalescing_index_lifecycle(self):
        store = JobStore()
        s = scenario()
        job = store.create("c1", s, "key-1")
        assert store.inflight_for("key-1") is job
        store.mark_running(job)
        assert store.inflight_for("key-1") is job
        store.mark_done(job, fake_runner(s.to_dict()))
        assert store.inflight_for("key-1") is None
        assert store.counts()["done"] == 1

    def test_status_reports_when_a_worker_took_the_job(self):
        store = JobStore()
        s = scenario()
        job = store.create("c1", s, "key-4")
        assert "started_s" not in job.status_payload()
        store.mark_running(job)
        store.mark_done(job, fake_runner(s.to_dict()))
        payload = job.status_payload()
        assert payload["created_s"] <= payload["started_s"] <= payload["finished_s"]

    def test_failed_jobs_leave_the_inflight_index(self):
        store = JobStore()
        job = store.create("c1", scenario(), "key-2")
        store.mark_failed(job, "boom")
        assert store.inflight_for("key-2") is None
        assert job.error == "boom"
        assert store.counts()["failed"] == 1

    def test_create_done_records_a_cache_hit(self):
        store = JobStore()
        s = scenario()
        job = store.create_done("c1", s, "key-3", fake_runner(s.to_dict()))
        assert job.cache_hit
        assert job.state.value == "done"
        # a cache-hit job never occupies the inflight index
        assert store.inflight_for("key-3") is None

    def test_job_ids_are_unique_and_ordered(self):
        store = JobStore()
        ids = [store.create("c", scenario(), f"k{i}").job_id for i in range(5)]
        assert len(set(ids)) == 5
        assert ids == sorted(ids)  # zero-padded sequence prefix
