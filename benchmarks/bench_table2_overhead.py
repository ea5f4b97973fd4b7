"""Table 2 — partition enforcement overhead (analytical + measured).

Prints the paper's formulas evaluated for the testbed and a large subnet,
plus the live simulator's lookup counters confirming the per-packet column's
ordering.  Benchmarks the model evaluation and the SIF filter hot path.
"""

from repro.core import SIFPortFilter
from repro.core.overhead import EnforcementOverheadModel, f_linear
from repro.experiments.table2_overhead import format_table2, measured_lookups, run_table2
from repro.iba.keys import PKey
from repro.sim.engine import Engine

from benchmarks.conftest import emit
from tests.conftest import make_packet


def test_table2_analytical(benchmark):
    cases = benchmark(run_table2)
    emit("")
    emit(format_table2(cases))
    testbed = cases[0]
    rows = {r.scheme: r for r in testbed.rows}
    assert rows["DPT"].memory_per_switch == 16
    assert rows["IF"].memory_per_switch == 1
    assert rows["SIF"].lookups_per_packet < rows["IF"].lookups_per_packet


def test_table2_measured_lookups(benchmark):
    counts = benchmark.pedantic(
        lambda: measured_lookups(sim_time_us=600.0), rounds=1, iterations=1
    )
    emit("")
    emit("Table 2 (measured) — switch lookups during identical 600 us runs")
    for mode, n in counts.items():
        emit(f"  {mode:<4} {n:>8} lookups")
    assert counts["dpt"] > counts["if"] > counts["sif"]


def test_sif_filter_hot_path(benchmark):
    """Per-packet cost of the SIF check itself (enabled, blacklist mode)."""
    engine = Engine()
    filt = SIFPortFilter(engine, {1, 2, 3, 4}, lookup_ns=5.0, idle_timeout_us=1e9)
    filt.register_invalid(PKey(0x7999), 0)
    pkt = make_packet(pkey=PKey(0x8001))
    result = benchmark(lambda: filt.process(pkt, 0))
    assert result[0] is True
