"""Experiment presets — one module per paper table/figure.

Each module exposes a ``run_*`` function returning plain data (rows/series)
plus a ``format_*`` helper that prints the same rows the paper reports.
Benchmarks under ``benchmarks/`` and the examples call these; tests assert
the paper's shape invariants on scaled-down variants.
"""

from repro.experiments.fig1_dos import Fig1Point, run_fig1, format_fig1
from repro.experiments.table2_overhead import run_table2, format_table2
from repro.experiments.table4_macs import run_table4, format_table4
from repro.experiments.fig5_enforcement import Fig5Bar, run_fig5, format_fig5
from repro.experiments.fig6_auth import Fig6Point, run_fig6, format_fig6
from repro.experiments.pooling import PooledDelay, attack_p99_us, pooled_delay
from repro.experiments.bakeoff4 import (
    Bakeoff4Row,
    BloomFpRow,
    run_bakeoff4,
    format_bakeoff4,
    run_bloom_fp_sweep,
    format_bloom_fp_sweep,
)

__all__ = [
    "Bakeoff4Row",
    "BloomFpRow",
    "run_bakeoff4",
    "format_bakeoff4",
    "run_bloom_fp_sweep",
    "format_bloom_fp_sweep",
    "Fig1Point",
    "run_fig1",
    "format_fig1",
    "run_table2",
    "format_table2",
    "run_table4",
    "format_table4",
    "Fig5Bar",
    "run_fig5",
    "format_fig5",
    "Fig6Point",
    "run_fig6",
    "format_fig6",
    "PooledDelay",
    "pooled_delay",
    "attack_p99_us",
]
