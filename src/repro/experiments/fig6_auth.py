"""Figure 6 — message-authentication overhead with key initialization.

Compares "No Key" (stock ICRC) against "With Key" (UMAC tags under QP-level
key management) at 40–70 % input load, reporting queuing and network delay
separately, as the paper's grouped bars do.

The With-Key costs modelled (Section 6):

* one round-trip delay before the first packet of every communicating QP
  pair (the Q_Key/secret-key exchange — "we add one round trip time delay
  for each pair of communicating QPs");
* one pipeline stage per message at each end for the MAC
  ("this incurs one additional stage at each end node per message and
  pipelining can make this overhead negligible").

Shape targets: With-Key ≈ No-Key at every load (marginal overhead);
standard deviations low (~4–8) at 40–50 % and rising sharply at 60–70 %.

Partition-level key management is also runnable here
(``keymgmt='partition'``) to show its "virtually zero" distribution
overhead — keys are pre-distributed with the P_Keys at partition setup.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from repro.sim.config import AuthMode, KeyMgmtMode, SimConfig
from repro.sim.sweep import RunCache, Sweep, SweepProgress

from repro.experiments.fig5_enforcement import LOAD_SCALE, INPUT_LOADS


@dataclass(frozen=True)
class Fig6Point:
    """One (load, keyed?) cell of Figure 6.

    Multi-seed runs pool mean/stddev across the concatenated per-delivery
    samples; ``total_ci_half_us`` is the Student-t 95 % half-width on the
    per-seed total-delay means (0 for a single seed).
    """

    input_load: float
    with_key: bool
    queuing_us: float
    network_us: float
    queuing_std_us: float
    network_std_us: float
    key_exchanges: int
    total_ci_half_us: float = 0.0
    n_seeds: int = 1

    @property
    def total_us(self) -> float:
        return self.queuing_us + self.network_us


def fig6_config(
    with_key: bool,
    input_load: float,
    sim_time_us: float = 3000.0,
    seed: int = 17,
    keymgmt: str = "qp",
) -> SimConfig:
    return SimConfig(
        sim_time_us=sim_time_us,
        seed=seed,
        num_attackers=0,
        vl_buffer_packets=4,
        enable_realtime=True,
        realtime_load=0.10,
        enable_best_effort=True,
        best_effort_load=input_load * LOAD_SCALE,
        auth=AuthMode.UMAC if with_key else AuthMode.ICRC,
        keymgmt=(
            (KeyMgmtMode.QP if keymgmt == "qp" else KeyMgmtMode.PARTITION)
            if with_key
            else KeyMgmtMode.NONE
        ),
        keep_samples=True,
    )


def fig6_sweep(
    input_loads: tuple[float, ...] = INPUT_LOADS,
    sim_time_us: float = 3000.0,
    seed: int = 17,
    keymgmt: str = "qp",
    seeds: tuple[int, ...] | None = None,
) -> tuple[Sweep, list[tuple[float, bool]]]:
    """The figure as an explicit-point :class:`Sweep` (``auth`` and
    ``keymgmt`` co-vary, which a cartesian grid cannot express), plus the
    (input_load, with_key) labels in point order.  *seeds*, when given,
    replaces the single-seed ``(seed,)`` replication set."""
    base = fig6_config(False, input_loads[0], sim_time_us, seed, keymgmt)
    overrides = []
    labels = []
    for load in input_loads:
        for with_key in (False, True):
            cfg = fig6_config(with_key, load, sim_time_us, seed, keymgmt)
            overrides.append(
                {
                    "best_effort_load": load * LOAD_SCALE,
                    "auth": cfg.auth,
                    "keymgmt": cfg.keymgmt,
                }
            )
            labels.append((load, with_key))
    return Sweep.from_points(base, overrides, seeds=seeds or (seed,)), labels


def run_fig6(
    input_loads: tuple[float, ...] = INPUT_LOADS,
    sim_time_us: float = 3000.0,
    seed: int = 17,
    keymgmt: str = "qp",
    workers: int = 1,
    cache: RunCache | str | os.PathLike | bool | None = None,
    progress: SweepProgress | None = None,
    seeds: tuple[int, ...] | None = None,
) -> list[Fig6Point]:
    from repro.experiments.pooling import pooled_delay

    sweep, labels = fig6_sweep(input_loads, sim_time_us, seed, keymgmt, seeds)
    results = sweep.run(progress, workers=workers, cache=cache)
    points = []
    for (load, with_key), point in zip(labels, results):
        d = pooled_delay(point)
        points.append(
            Fig6Point(
                input_load=load,
                with_key=with_key,
                queuing_us=d.queuing_us,
                network_us=d.network_us,
                queuing_std_us=d.queuing_std_us,
                network_std_us=d.network_std_us,
                key_exchanges=max(r.key_exchanges for r in point.reports),
                total_ci_half_us=d.total_ci_half_us,
                n_seeds=d.n_seeds,
            )
        )
    return points


def format_fig6(points: list[Fig6Point]) -> str:
    n_seeds = max((p.n_seeds for p in points), default=1)
    lines = [
        "Figure 6 — message authentication overhead with key initialization"
        + (f" — pooled over {n_seeds} seeds" if n_seeds > 1 else ""),
        f"{'load':>5} {'keyed':>6} {'queuing':>9} {'network':>9} "
        f"{'±95%':>7} {'q.std':>7} {'n.std':>7} {'exchanges':>10}",
    ]
    for p in points:
        lines.append(
            f"{p.input_load:>5.0%} {'With' if p.with_key else 'No':>6} "
            f"{p.queuing_us:>9.2f} {p.network_us:>9.2f} "
            f"{p.total_ci_half_us:>7.2f} "
            f"{p.queuing_std_us:>7.2f} {p.network_std_us:>7.2f} {p.key_exchanges:>10}"
        )
    return "\n".join(lines)
