"""Shape invariants of every reproduced table/figure, on scaled-down runs.

These are the claims the paper's evaluation makes, asserted as code:
Figure 1's queuing explosion with flat latency, Figure 5's enforcement
orderings, Figure 6's marginal auth overhead, Tables 2/4 exactness.
"""

import pytest

from repro.experiments.fig1_dos import fig1_config, run_fig1
from repro.experiments.fig5_enforcement import fig5_config, run_fig5_excluding_attack
from repro.experiments.fig6_auth import fig6_config, run_fig6
from repro.experiments.pooling import pooled_delay
from repro.sim.config import EnforcementMode
from repro.sim.runner import run_simulation
from repro.sim.sweep import SweepPoint


class TestFig1Shape:
    """Queuing time explodes; network latency degrades only marginally;
    best-effort suffers more than realtime."""

    @pytest.fixture(scope="class")
    def panels(self):
        kw = dict(attacker_counts=(0, 2, 4), sim_time_us=800.0, seed=3)
        return {
            "realtime": run_fig1("realtime", **kw),
            "best_effort": run_fig1("best_effort", **kw),
        }

    def test_queuing_grows_strongly(self, panels):
        for panel, points in panels.items():
            assert points[-1].queuing_us > max(5.0, 4 * (points[0].queuing_us + 0.5)), panel

    def test_queuing_monotone_nondecreasing_roughly(self, panels):
        for points in panels.values():
            assert points[0].queuing_us <= points[1].queuing_us <= points[-1].queuing_us * 1.5

    def test_network_latency_marginal(self, panels):
        """Latency growth must be small relative to the queuing explosion."""
        for panel, points in panels.items():
            lat_growth = points[-1].network_us - points[0].network_us
            queue_growth = points[-1].queuing_us - points[0].queuing_us
            assert lat_growth < queue_growth, panel
            assert points[-1].network_us < 2 * points[0].network_us, panel

    def test_best_effort_hit_harder(self, panels):
        be = panels["best_effort"][-1].queuing_us
        rt = panels["realtime"][-1].queuing_us
        assert be > rt

    def test_config_panels_validated(self):
        with pytest.raises(ValueError):
            fig1_config("management", 1)


class TestFig5Shape:
    @pytest.fixture(scope="class")
    def bars(self):
        out = {}
        for mode in EnforcementMode:
            cfg = fig5_config(mode, 0.5, sim_time_us=2500.0, seed=11, attack_window_us=20.0)
            report = run_simulation(cfg)
            out[mode] = (report, pooled_delay(SweepPoint({}, (11,), (report,))))
        return out

    def test_filtering_blocks_attack(self, bars):
        for mode in (EnforcementMode.DPT, EnforcementMode.IF):
            assert bars[mode][0].switch_filtered > 0
            assert bars[mode][0].drops.get("pkey", 0) == 0
        assert bars[EnforcementMode.NONE][0].switch_filtered == 0

    def test_dpt_latency_above_if(self, bars):
        """Per-hop lookups cost more than one ingress lookup."""
        dpt_n = bars[EnforcementMode.DPT][1].network_us
        if_n = bars[EnforcementMode.IF][1].network_us
        assert dpt_n > if_n

    def test_sif_activated_by_traps(self, bars):
        assert bars[EnforcementMode.SIF][0].sif_activations >= 1
        assert bars[EnforcementMode.SIF][0].traps_processed > 0

    def test_sif_beats_if_excluding_attack_period(self):
        """The paper's 14.19 µs (IF) vs 13.65 µs (SIF) aside: outside attack
        windows SIF pays no lookups, IF always does."""
        if_q, if_n = run_fig5_excluding_attack(
            EnforcementMode.IF, 0.40, sim_time_us=2500.0, attack_window_us=20.0
        )
        sif_q, sif_n = run_fig5_excluding_attack(
            EnforcementMode.SIF, 0.40, sim_time_us=2500.0, attack_window_us=20.0
        )
        assert sif_q + sif_n < if_q + if_n


class TestFig6Shape:
    @pytest.fixture(scope="class")
    def points(self):
        return run_fig6(input_loads=(0.4, 0.6), sim_time_us=800.0, seed=17)

    def test_overhead_is_marginal(self, points):
        """With-Key total delay within a few percent of No-Key at each load."""
        by_load = {}
        for p in points:
            by_load.setdefault(p.input_load, {})[p.with_key] = p
        for load, pair in by_load.items():
            no, yes = pair[False], pair[True]
            no_total = no.queuing_us + no.network_us
            yes_total = yes.queuing_us + yes.network_us
            assert yes_total < no_total * 1.15 + 1.0, f"load {load}"

    def test_keyed_runs_exchange_keys(self, points):
        assert all(p.key_exchanges > 0 for p in points if p.with_key)
        assert all(p.key_exchanges == 0 for p in points if not p.with_key)

    def test_delay_rises_with_load(self, points):
        lo = [p for p in points if p.input_load == 0.4 and p.with_key][0]
        hi = [p for p in points if p.input_load == 0.6 and p.with_key][0]
        assert hi.queuing_us + hi.network_us > lo.queuing_us + lo.network_us

    def test_partition_level_has_no_exchanges(self):
        pts = run_fig6(input_loads=(0.4,), sim_time_us=400.0, keymgmt="partition")
        keyed = [p for p in pts if p.with_key][0]
        assert keyed.key_exchanges == 0  # distributed with partition setup


class TestTables:
    def test_table2_rows_printable(self):
        from repro.experiments.table2_overhead import format_table2, run_table2

        text = format_table2(run_table2())
        assert "DPT" in text and "SIF" in text and "lookups/packet" in text

    def test_table4_matches_paper(self):
        from repro.experiments.table4_macs import run_table4

        rows = {r.algorithm: r for r in run_table4(measure=False)}
        assert rows["CRC"].gbps_at_350mhz == pytest.approx(11.2, abs=0.01)
        assert rows["HMAC-SHA1"].gbps_at_350mhz == pytest.approx(0.22, abs=0.005)
        assert rows["HMAC-MD5"].gbps_at_350mhz == pytest.approx(0.53, abs=0.005)
        assert rows["UMAC-2/4"].gbps_at_350mhz == pytest.approx(4.0, abs=0.01)

    def test_table3_runs(self):
        from repro.core.threats import run_threat_matrix

        matrix = run_threat_matrix()
        assert all(o.succeeded_stock for o in matrix)
        assert not any(o.succeeded_qp_auth for o in matrix)
