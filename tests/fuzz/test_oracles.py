"""The invariant oracles: clean runs pass, seeded corruption is caught,
and every violation names the leg it ran on."""

from repro.fuzz.oracles import (
    ORACLES,
    Violation,
    check_auth_soundness,
    check_conservation,
    check_counter_trace,
    check_credit_conservation,
    check_ready_index,
    check_run,
    check_sif_legality,
    execute_scenario,
    run_scenario,
)
from repro.sim.trace import TraceEvent

from tests.fuzz.conftest import busy_scenario, small_scenario


class TestCleanRuns:
    def test_clean_scenario_passes_every_oracle(self):
        run = execute_scenario(small_scenario())
        assert check_run(run) == []
        assert run.report.delivered > 0  # the run actually did something

    def test_busy_scenario_passes_and_exercises_the_attack_surface(self):
        result = run_scenario(busy_scenario())
        assert result.ok, "\n".join(str(v) for v in result.violations)
        assert result.fast.tampered_ids
        assert result.fast.injected_ids

    def test_oracle_catalogue_is_complete(self):
        assert set(ORACLES) == {
            "conservation", "counter_trace", "sif_legality", "auth_soundness",
            "ready_index", "credit_conservation",
        }


class TestSeededViolations:
    """Each oracle must fire when its invariant is deliberately broken."""

    def test_conservation_catches_counter_drift(self):
        run = execute_scenario(small_scenario())
        run.report.counters["hca.1.submitted"] += 3
        (violation,) = check_conservation(run)
        assert violation.oracle == "conservation"
        assert "submitted" in violation.message

    def test_counter_trace_catches_missing_delivery_event(self):
        run = execute_scenario(small_scenario())
        run.tracer.events.remove(run.tracer.of_kind("delivered")[0])
        violations = check_counter_trace(run)
        assert any("delivered" in v.message for v in violations)

    def test_counter_trace_catches_unbalanced_link_up(self):
        run = execute_scenario(small_scenario())
        run.tracer.events.append(
            TraceEvent(time_ps=1, kind="link_up", where="sw(0,0)->sw(1,0)")
        )
        violations = check_counter_trace(run)
        assert any("link_up" in v.message for v in violations)

    def test_sif_legality_rejects_activation_without_enforcement(self):
        run = execute_scenario(small_scenario())
        run.tracer.events.append(
            TraceEvent(time_ps=1, kind="sif_activated", where="sw(0,0).p0")
        )
        (violation,) = check_sif_legality(run)
        assert violation.oracle == "sif_legality"

    def test_sif_legality_rejects_activation_before_first_trap(self):
        run = execute_scenario(
            small_scenario(enforcement="sif", num_attackers=1,
                           num_partitions=2),
        )
        run.tracer.events.append(
            TraceEvent(time_ps=0, kind="sif_activated", where="sw(0,0).p0")
        )
        violations = check_sif_legality(run)
        assert any("no prior trap" in v.message for v in violations)

    def test_ready_index_catches_corrupted_count(self):
        run = execute_scenario(small_scenario())
        assert check_ready_index(run) == []
        sw = run.fabric.all_switches()[0]
        sw._head_ready[1][0] += 1
        (violation,) = check_ready_index(run)
        assert violation.oracle == "ready_index"
        assert sw.name in violation.message

    @staticmethod
    def link_with_deferred_return(run):
        """A link whose credit return was still deferred at the horizon."""
        assert check_credit_conservation(run) == []
        for link in run.fabric.all_links():
            link.credits  # count the returns the clock has passed
            if link._deferred:
                return link
        raise AssertionError("no credit return in flight at the horizon")

    def test_credit_conservation_catches_a_dropped_return(self):
        run = execute_scenario(small_scenario())
        link = self.link_with_deferred_return(run)
        link._deferred.pop()
        (violation,) = check_credit_conservation(run)
        assert violation.oracle == "credit_conservation"
        assert link.name in violation.message

    def test_credit_conservation_catches_a_return_counted_twice(self):
        run = execute_scenario(small_scenario())
        link = self.link_with_deferred_return(run)
        link._deferred.insert(0, link._deferred[0])
        (violation,) = check_credit_conservation(run)
        assert violation.oracle == "credit_conservation"
        assert link.name in violation.message

    def test_auth_soundness_catches_tampered_delivery(self):
        run = execute_scenario(small_scenario())
        run.tampered_ids.add(run.tracer.of_kind("delivered")[0].packet_id)
        (violation,) = check_auth_soundness(run)
        assert violation.oracle == "auth_soundness"
        assert "tampered" in violation.message


class TestLegLabels:
    def test_every_leg_is_named(self):
        result = run_scenario(small_scenario(enforcement="sif", num_attackers=1))
        legs = {name: getattr(result, name).leg for name in
                ("fast", "bloom_shadow")}
        assert legs == {name: name for name in legs}

    def test_shadow_only_violation_is_labelled_bloom_shadow(self, monkeypatch):
        """A violation only the shadow leg produces names that leg, in the
        printed form and in the corpus entry."""
        from repro.fuzz.corpus import entry_from_result

        def shadow_only(run):
            if not run.bloom_shadows:
                return []
            return [Violation("conservation", run.leg, "shadow leg only")]

        monkeypatch.setitem(ORACLES, "shadow_only", shadow_only)
        result = run_scenario(small_scenario(enforcement="sif", num_attackers=1))
        assert [str(v) for v in result.violations] == [
            "[bloom_shadow:conservation] shadow leg only"
        ]
        assert entry_from_result(result)["violations"][0]["mode"] == "bloom_shadow"
