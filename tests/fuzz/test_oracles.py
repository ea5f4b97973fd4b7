"""The invariant oracles: clean runs pass, seeded corruption is caught,
and the differential oracle sees through to real fast-vs-reference drift."""

from repro.fuzz.oracles import (
    ORACLES,
    check_auth_soundness,
    check_conservation,
    check_counter_trace,
    check_differential,
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
        run = execute_scenario(small_scenario(), "reference")
        assert check_run(run) == []
        assert run.report.delivered > 0  # the run actually did something

    def test_busy_scenario_passes_and_exercises_the_attack_surface(self):
        result = run_scenario(busy_scenario())
        assert result.ok, "\n".join(str(v) for v in result.violations)
        assert result.reference.tampered_ids
        assert result.reference.injected_ids

    def test_oracle_catalogue_is_complete(self):
        assert set(ORACLES) == {
            "conservation", "counter_trace", "sif_legality", "auth_soundness",
            "ready_index",
        }


class TestSeededViolations:
    """Each oracle must fire when its invariant is deliberately broken."""

    def test_conservation_catches_counter_drift(self):
        run = execute_scenario(small_scenario(), "reference")
        run.report.counters["hca.1.submitted"] += 3
        (violation,) = check_conservation(run)
        assert violation.oracle == "conservation"
        assert "submitted" in violation.message

    def test_counter_trace_catches_missing_delivery_event(self):
        run = execute_scenario(small_scenario(), "reference")
        run.tracer.events.remove(run.tracer.of_kind("delivered")[0])
        violations = check_counter_trace(run)
        assert any("delivered" in v.message for v in violations)

    def test_counter_trace_catches_unbalanced_link_up(self):
        run = execute_scenario(small_scenario(), "reference")
        run.tracer.events.append(
            TraceEvent(time_ps=1, kind="link_up", where="sw(0,0)->sw(1,0)")
        )
        violations = check_counter_trace(run)
        assert any("link_up" in v.message for v in violations)

    def test_sif_legality_rejects_activation_without_enforcement(self):
        run = execute_scenario(small_scenario(), "reference")
        run.tracer.events.append(
            TraceEvent(time_ps=1, kind="sif_activated", where="sw(0,0).p0")
        )
        (violation,) = check_sif_legality(run)
        assert violation.oracle == "sif_legality"

    def test_sif_legality_rejects_activation_before_first_trap(self):
        run = execute_scenario(
            small_scenario(enforcement="sif", num_attackers=1,
                           num_partitions=2), "reference",
        )
        run.tracer.events.append(
            TraceEvent(time_ps=0, kind="sif_activated", where="sw(0,0).p0")
        )
        violations = check_sif_legality(run)
        assert any("no prior trap" in v.message for v in violations)

    def test_ready_index_catches_corrupted_count(self):
        run = execute_scenario(small_scenario(), "reference")
        assert check_ready_index(run) == []
        sw = run.fabric.all_switches()[0]
        sw._head_ready[1][0] += 1
        (violation,) = check_ready_index(run)
        assert violation.oracle == "ready_index"
        assert sw.name in violation.message

    def test_auth_soundness_catches_tampered_delivery(self):
        run = execute_scenario(small_scenario(), "reference")
        run.tampered_ids.add(run.tracer.of_kind("delivered")[0].packet_id)
        (violation,) = check_auth_soundness(run)
        assert violation.oracle == "auth_soundness"
        assert "tampered" in violation.message


class TestDifferentialOracle:
    def test_identical_runs_have_no_diff(self):
        scenario = small_scenario()
        reference = execute_scenario(scenario, "reference")
        fast = execute_scenario(scenario, "fast")
        assert check_differential(fast, reference) == []

    def test_counter_drift_is_reported(self):
        scenario = small_scenario()
        reference = execute_scenario(scenario, "reference")
        fast = execute_scenario(scenario, "fast")
        fast.report.counters["hca.1.delivered"] += 1
        violations = check_differential(fast, reference)
        assert any("counters differ" in v.message for v in violations)

    def test_trace_drift_is_reported_with_divergence_point(self):
        scenario = small_scenario()
        reference = execute_scenario(scenario, "reference")
        fast = execute_scenario(scenario, "fast")
        fast.tracer.events.pop()
        violations = check_differential(fast, reference)
        assert any("traces differ" in v.message for v in violations)

    def test_packet_ids_compared_relative_to_run_base(self):
        # the two runs allocate disjoint global packet-id ranges; the
        # normalization must hide that or every scenario would "diverge"
        scenario = small_scenario()
        reference = execute_scenario(scenario, "reference")
        fast = execute_scenario(scenario, "fast")
        assert fast.base_seq != reference.base_seq
        assert check_differential(fast, reference) == []


class TestModeHygiene:
    def test_execute_scenario_restores_datapath_mode(self):
        from repro.datapath import get_datapath

        before = get_datapath()
        other = "fast" if before != "fast" else "reference"
        execute_scenario(small_scenario(), other)
        assert get_datapath() == before
