"""Delta debugging: the shrinker strips everything the failure doesn't
need, survives structurally-broken candidates, and — with a deliberately
broken oracle — emits a minimized repro that still fails on replay."""

from dataclasses import replace

from repro.fuzz import corpus, oracles
from repro.fuzz.oracles import Violation, run_scenario
from repro.fuzz.shrink import _MIN_SIM_TIME_US, shrink, shrink_failure

from tests.fuzz.conftest import busy_scenario, small_scenario


def always_broken(run):
    """Oracle fixture that fails on every run (the 'seeded violation')."""
    return [Violation("broken", run.leg, "deliberately broken oracle")]


class TestStructuralShrinking:
    """Predicates over the scenario alone — no simulation, pure mechanics."""

    def test_always_true_predicate_strips_everything(self):
        big = replace(
            busy_scenario(),
            config={**busy_scenario().config, "mesh_width": 3,
                    "mesh_height": 3, "num_attackers": 2,
                    "sim_time_us": 160.0},
        )
        small = shrink(big, lambda s: True)
        assert small.tampers == ()
        assert small.injections == ()
        assert small.link_faults == ()
        assert small.switch_crashes == ()
        assert small.config["mesh_width"] == 2
        assert small.config["mesh_height"] == 2
        assert small.config["num_attackers"] == 0
        assert small.config["sim_time_us"] >= _MIN_SIM_TIME_US

    def test_needed_entries_are_kept(self):
        scenario = busy_scenario()
        kept = shrink(
            scenario, lambda s: len(s.tampers) == 1 and len(s.injections) == 1
        )
        assert kept.tampers == scenario.tampers
        assert kept.injections == scenario.injections
        assert kept.link_faults == ()  # fault wasn't needed, so it went

    def test_erroring_predicate_counts_as_failure_gone(self):
        scenario = busy_scenario()

        def fragile(candidate):
            if not candidate.tampers:
                raise RuntimeError("candidate is structurally broken")
            return True

        assert shrink(scenario, fragile).tampers == scenario.tampers

    def test_horizon_never_drops_below_floor(self):
        scenario = small_scenario(sim_time_us=200.0)
        small = shrink(scenario, lambda s: True)
        assert _MIN_SIM_TIME_US <= small.config["sim_time_us"] < 200.0


class TestBrokenOracleEndToEnd:
    def test_minimized_repro_still_fails_on_replay(self, monkeypatch, tmp_path):
        monkeypatch.setitem(oracles.ORACLES, "broken", always_broken)
        scenario = busy_scenario()
        assert not run_scenario(scenario).ok

        minimized = shrink_failure(scenario, "broken")
        # everything irrelevant to the (unconditional) failure is gone
        assert minimized.tampers == ()
        assert minimized.injections == ()
        assert minimized.link_faults == ()
        assert minimized.config["sim_time_us"] < scenario.config["sim_time_us"]

        # round-trip through a corpus repro file and replay: still fails
        result = run_scenario(minimized)
        assert any(v.oracle == "broken" for v in result.violations)
        path = corpus.save_entry(
            str(tmp_path), corpus.entry_from_result(result)
        )
        entry = corpus.load_entry(path)
        assert entry["oracle"] == "broken"
        replayed = run_scenario(corpus.scenario_of(entry))
        assert any(v.oracle == "broken" for v in replayed.violations)
