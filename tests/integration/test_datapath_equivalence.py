"""Fast vs reference datapath: the optimization must be invisible to the
simulation — identical counters, identical stats, identical trace streams.

``RunModes(datapath=...)`` turns every fast-path cache on or off at once
(serialization caches, prefix-folded CRCs, MAC tag memo, Bloom probe
memo).  These tests run the same seeded scenarios under both datapaths and
diff everything observable.  Packet ids are per-run labels, so the two
runs' trace events compare as recorded.
"""

from repro.datapath import get_datapath
from repro.sim.config import RunModes
from repro.sim.runner import run_simulation
from repro.sim.sweep import report_payload
from repro.sim.trace import Tracer


def run_traced(cfg, mode):
    tracer = Tracer()
    during = []  # the datapath the run really held
    report = run_simulation(
        cfg, tracer=tracer, modes=RunModes(datapath=mode),
        setup=lambda engine, fabric: during.append(get_datapath()),
    )
    assert during == [mode]
    return report, tracer


class TestFig1DoSEquivalence:
    def _cfg(self):
        from repro.experiments.fig1_dos import fig1_config

        return fig1_config("best_effort", 1, 200.0)

    def test_counters_and_trace_bit_identical(self):
        ref_report, ref_tracer = run_traced(self._cfg(), "reference")
        fast_report, fast_tracer = run_traced(self._cfg(), "fast")
        assert report_payload(ref_report) == report_payload(fast_report)
        assert ref_tracer.events == fast_tracer.events

    def test_fig1_run_exercises_both_paths(self):
        """Guard against a silently dead reference leg: the scenario floods
        and delivers packets, so ICRC stamp/verify really runs in both."""
        report, tracer = run_traced(self._cfg(), "fast")
        assert report.delivered > 0
        assert "created" in tracer.kinds()


class TestMacAuthEquivalence:
    def _cfg(self):
        from repro.sim.config import AuthMode, KeyMgmtMode, SimConfig

        return SimConfig(
            sim_time_us=150.0,
            seed=11,
            num_attackers=1,
            best_effort_load=0.3,
            auth=AuthMode.UMAC,
            keymgmt=KeyMgmtMode.PARTITION,
        )

    def test_mac_tag_memo_does_not_change_outcomes(self):
        ref_report, ref_tracer = run_traced(self._cfg(), "reference")
        fast_report, fast_tracer = run_traced(self._cfg(), "fast")
        assert report_payload(ref_report) == report_payload(fast_report)
        assert ref_tracer.events == fast_tracer.events

    def test_mac_run_actually_tags(self):
        report, _ = run_traced(self._cfg(), "fast")
        assert report.counters.get("auth.tags_generated", 0) > 0
