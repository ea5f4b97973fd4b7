"""Four-way enforcement bake-off — DPT vs IF vs SIF vs Bloom, by memory.

Figure 5 compares the paper's three filtering designs on latency alone; this
experiment re-runs that comparison with the fourth design (trap-activated
Bloom filters, :class:`repro.core.enforcement.BloomPortFilter`) in the line-up
and puts **per-port memory footprint on the x-axis**.  The paper's Table 2
argues the designs apart by state size; here the same argument is made with
simulated numbers:

* DPT holds the whole subnet's P_Key table at every port — n·p entries.
* IF holds one node's table — p entries.
* SIF holds p entries plus an Invalid_P_Key_Table that grows with the attack
  (worst case another p entries, at which point it flips to whitelist mode).
* Bloom holds p entries plus a **fixed** m-bit array, no matter how many
  distinct P_Keys the attacker sprays.  The price is false-positive drops,
  counted separately (``filter.*.false_positive_drops``) and reported per bar.

Each memory figure is annotated with the SRAM access time its capacity
implies (:func:`repro.analysis.sram.sram_access_time_ns`) — the same CACTI
scaling argument the paper uses in Section 6.

A second sweep (:func:`run_bloom_fp_sweep`) holds the scenario fixed and
walks the Bloom array size along a target false-positive-rate axis
(:func:`repro.sim.sweep.bloom_fp_axis`), exposing the memory-vs-collateral
trade directly.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass

from repro.analysis.sram import sram_access_time_ns
from repro.core.overhead import bloom_table_bytes, pkey_table_bytes
from repro.experiments.fig5_enforcement import LOAD_SCALE, fig5_config
from repro.experiments.pooling import attack_p99_us, pooled_delay
from repro.sim.config import EnforcementMode, SimConfig
from repro.sim.runner import SimReport
from repro.sim.sweep import RunCache, Sweep, SweepProgress, bloom_fp_axis

#: the four filtering designs, cheapest table last.
MODES4 = (
    EnforcementMode.DPT,
    EnforcementMode.IF,
    EnforcementMode.SIF,
    EnforcementMode.BLOOM,
)
#: default loads — the figure's low-load and high-load regimes.
INPUT_LOADS4 = (0.40, 0.70)


@dataclass(frozen=True)
class Bakeoff4Row:
    """One bar: mode × input load, with its modeled per-port state size."""

    mode: str
    input_load: float
    queuing_us: float
    network_us: float
    queuing_std_us: float
    network_std_us: float
    filtered_at_switches: int
    activations: int
    false_positive_drops: int
    memory_bytes: int
    sram_access_ns: float
    total_ci_half_us: float = 0.0
    p99_attack_us: float = 0.0
    n_seeds: int = 1

    @property
    def total_us(self) -> float:
        return self.queuing_us + self.network_us


def bakeoff4_config(
    mode: EnforcementMode,
    input_load: float,
    sim_time_us: float = 8000.0,
    seed: int = 11,
    bloom_bits: int = 1024,
    bloom_hashes: int = 4,
    attack_window_us: float = 100.0,
) -> SimConfig:
    """The Figure-5 DoS scenario with the Bloom knobs threaded through.

    ``bloom_bits``/``bloom_hashes`` are set on every mode's config (they are
    inert outside bloom mode) so the four runs differ in exactly one axis.
    """
    return fig5_config(mode, input_load, sim_time_us, seed, attack_window_us).replace(
        bloom_bits=bloom_bits, bloom_hashes=bloom_hashes
    )


def memory_bytes_per_port(mode: EnforcementMode, config: SimConfig) -> int:
    """Worst-case filtering state held at one ingress port (Table 2 rows,
    in bytes: one exact P_Key entry = 16 bits).

    SIF is charged its whitelist-flip bound — the Invalid_P_Key_Table stops
    growing at partition-table parity, so worst case is 2p entries.  Bloom is
    charged p entries plus the fixed bit array; crucially that figure does
    **not** depend on the attack at all.
    """
    n, p = config.num_nodes, config.num_partitions
    if mode is EnforcementMode.DPT:
        return pkey_table_bytes(n * p)
    if mode is EnforcementMode.IF:
        return pkey_table_bytes(p)
    if mode is EnforcementMode.SIF:
        return pkey_table_bytes(2 * p)
    if mode is EnforcementMode.BLOOM:
        return pkey_table_bytes(p) + bloom_table_bytes(config.bloom_bits)
    raise ValueError(f"no filtering state to size for mode {mode.value!r}")


def _fp_drops(report: SimReport) -> int:
    return int(report.counter_total("filter.*.false_positive_drops"))


def bakeoff4_sweep(
    input_loads: tuple[float, ...] = INPUT_LOADS4,
    modes: tuple[EnforcementMode, ...] = MODES4,
    sim_time_us: float = 8000.0,
    seeds: tuple[int, ...] = (11, 12),
    bloom_bits: int = 1024,
    bloom_hashes: int = 4,
    attack_window_us: float = 100.0,
) -> Sweep:
    """The bake-off as a :class:`Sweep` grid (load-major, mode-minor —
    ``best_effort_load`` sorts before ``enforcement``)."""
    base = bakeoff4_config(
        modes[0], input_loads[0], sim_time_us, bloom_bits=bloom_bits,
        bloom_hashes=bloom_hashes, attack_window_us=attack_window_us,
    )
    grid = {
        "best_effort_load": [load * LOAD_SCALE for load in input_loads],
        "enforcement": list(modes),
    }
    return Sweep(base, grid, seeds=tuple(seeds))


def run_bakeoff4(
    input_loads: tuple[float, ...] = INPUT_LOADS4,
    modes: tuple[EnforcementMode, ...] = MODES4,
    sim_time_us: float = 8000.0,
    seeds: tuple[int, ...] = (11, 12),
    bloom_bits: int = 1024,
    bloom_hashes: int = 4,
    attack_window_us: float = 100.0,
    workers: int = 1,
    cache: RunCache | str | os.PathLike | bool | None = None,
    progress: SweepProgress | None = None,
) -> list[Bakeoff4Row]:
    """Run the four-way comparison; one row per mode × load, seed-averaged."""
    sweep = bakeoff4_sweep(
        input_loads, modes, sim_time_us, seeds, bloom_bits, bloom_hashes,
        attack_window_us,
    )
    points = sweep.run(progress, workers=workers, cache=cache)
    rows = []
    for (load, mode), point in zip(itertools.product(input_loads, modes), points):
        d = pooled_delay(point)
        memory = memory_bytes_per_port(mode, sweep.base)
        rows.append(
            Bakeoff4Row(
                mode=mode.value,
                input_load=load,
                queuing_us=d.queuing_us,
                network_us=d.network_us,
                queuing_std_us=d.queuing_std_us,
                network_std_us=d.network_std_us,
                filtered_at_switches=sum(r.switch_filtered for r in point.reports),
                activations=sum(r.sif_activations for r in point.reports),
                false_positive_drops=sum(_fp_drops(r) for r in point.reports),
                memory_bytes=memory,
                sram_access_ns=sram_access_time_ns(memory / 1024.0),
                total_ci_half_us=d.total_ci_half_us,
                p99_attack_us=attack_p99_us(point),
                n_seeds=d.n_seeds,
            )
        )
    return rows


@dataclass(frozen=True)
class BloomFpRow:
    """One point of the fp-rate axis: array size vs collateral damage."""

    target_fp_rate: float
    bloom_bits: int
    memory_bytes: int
    queuing_us: float
    network_us: float
    filtered_at_switches: int
    false_positive_drops: int

    @property
    def total_us(self) -> float:
        return self.queuing_us + self.network_us


def run_bloom_fp_sweep(
    fp_rates: tuple[float, ...] = (0.5, 0.2, 0.05, 0.01),
    input_load: float = 0.40,
    sim_time_us: float = 8000.0,
    seeds: tuple[int, ...] = (11, 12),
    bloom_hashes: int = 4,
    expected_entries: int | None = None,
    attack_window_us: float = 100.0,
    workers: int = 1,
    cache: RunCache | str | os.PathLike | bool | None = None,
    progress: SweepProgress | None = None,
) -> list[BloomFpRow]:
    """Sweep the Bloom array size along a target false-positive-rate axis.

    The array is sized for ``expected_entries`` registered P_Keys (default:
    the scenario's partition count, the whitelist-flip bound) at each target
    rate; distinct targets whose byte-rounded sizes collapse are deduplicated
    by :func:`bloom_fp_axis`, so the returned rows can be fewer than the
    requested rates — each row reports the rate its actual size targets.
    """
    base = bakeoff4_config(
        EnforcementMode.BLOOM, input_load, sim_time_us,
        bloom_hashes=bloom_hashes, attack_window_us=attack_window_us,
    )
    entries = base.num_partitions if expected_entries is None else expected_entries
    axis = bloom_fp_axis(fp_rates, entries, num_hashes=bloom_hashes)
    sweep = Sweep(base, axis, seeds=tuple(seeds))
    points = sweep.run(progress, workers=workers, cache=cache)
    target_of = {
        bits: min(fp for fp in fp_rates if bits_matches(bits, fp, entries, bloom_hashes))
        for bits in axis["bloom_bits"]
    }
    rows = []
    for point in points:
        d = pooled_delay(point)
        bits = int(point.overrides["bloom_bits"])
        rows.append(
            BloomFpRow(
                target_fp_rate=target_of.get(bits, min(fp_rates)),
                bloom_bits=bits,
                memory_bytes=bloom_table_bytes(bits),
                queuing_us=d.queuing_us,
                network_us=d.network_us,
                filtered_at_switches=sum(r.switch_filtered for r in point.reports),
                false_positive_drops=sum(_fp_drops(r) for r in point.reports),
            )
        )
    return rows


def bits_matches(bits: int, fp_rate: float, entries: int, num_hashes: int) -> bool:
    """True when *bits* is the size :func:`bloom_fp_axis` picks for this
    target rate — used to label deduplicated sweep points."""
    from repro.core.bloom import bits_for_fp_rate

    return bits == bits_for_fp_rate(entries, fp_rate, num_hashes)


def format_bakeoff4(rows: list[Bakeoff4Row]) -> str:
    from repro.analysis.charts import memory_footprint_chart

    n_seeds = max((r.n_seeds for r in rows), default=1)
    lines = [
        "Four-way bake-off — DPT / IF / SIF / Bloom (4 attackers, 1% duty)"
        + (f" — pooled over {n_seeds} seeds" if n_seeds > 1 else ""),
        f"{'load':>5} {'mode':>6} {'mem/port':>9} {'access':>8} {'queuing':>9} "
        f"{'network':>9} {'total':>9} {'±95%':>7} {'p99atk':>8} "
        f"{'sw drops':>9} {'fp drops':>9}",
    ]
    for r in rows:
        lines.append(
            f"{r.input_load:>5.0%} {r.mode:>6} {r.memory_bytes:>8}B "
            f"{r.sram_access_ns:>6.2f}ns {r.queuing_us:>9.2f} {r.network_us:>9.2f} "
            f"{r.total_us:>9.2f} {r.total_ci_half_us:>7.2f} {r.p99_attack_us:>8.2f} "
            f"{r.filtered_at_switches:>9} {r.false_positive_drops:>9}"
        )
    loads = sorted({r.input_load for r in rows})
    for load in loads:
        chart_rows = [
            (r.mode, r.memory_bytes, r.total_us, r.sram_access_ns)
            for r in rows
            if r.input_load == load
        ]
        lines.append("")
        lines.append(
            memory_footprint_chart(
                chart_rows,
                title=f"latency by per-port memory footprint @ {load:.0%} load",
            )
        )
    return "\n".join(lines)


def format_bloom_fp_sweep(rows: list[BloomFpRow]) -> str:
    lines = [
        "Bloom fp-rate axis — array size vs collateral false-positive drops",
        f"{'target fp':>9} {'bits':>6} {'bytes':>6} {'total us':>9} "
        f"{'sw drops':>9} {'fp drops':>9}",
    ]
    for r in rows:
        lines.append(
            f"{r.target_fp_rate:>9.2%} {r.bloom_bits:>6} {r.memory_bytes:>6} "
            f"{r.total_us:>9.2f} {r.filtered_at_switches:>9} "
            f"{r.false_positive_drops:>9}"
        )
    return "\n".join(lines)
