"""Table 4 — time & forgery complexity of the authentication candidates.

Reprints the paper's normalized table (from :mod:`repro.analysis.performance`),
verifies the normalization arithmetic against the cited raw data points, and
measures this repo's own from-scratch Python implementations to confirm the
*ordering* the paper's argument needs (CRC/universal-hash fast, HMACs slow).
The measured column times the pure-Python oracles (``crc32_pure`` and
``hmac`` over ``MD5``/``SHA1``); the C-backed ``crc32``/``hmac_md5``/
``hmac_sha1`` the simulator calls are not what Table 4 compares.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.forgery import forgery_probability
from repro.analysis.performance import (
    TABLE4,
    TABLE4_CLOCK_MHZ,
    gbps_at_clock,
    measure_implementations,
    umac_line_rate_check,
)


@dataclass(frozen=True)
class Table4Row:
    algorithm: str
    cycles_per_byte: float
    gbps_at_350mhz: float
    forgery_probability: float
    measured_python_mbps: float | None = None


def run_table4(measure: bool = True) -> list[Table4Row]:
    measured = measure_implementations() if measure else {}
    alias = {"CRC": "CRC", "HMAC-SHA1": "HMAC-SHA1", "HMAC-MD5": "HMAC-MD5", "UMAC-2/4": "UMAC"}
    rows = []
    for spec in TABLE4:
        rows.append(
            Table4Row(
                algorithm=spec.algorithm,
                cycles_per_byte=spec.cycles_per_byte,
                gbps_at_350mhz=round(gbps_at_clock(spec.cycles_per_byte, TABLE4_CLOCK_MHZ), 2),
                forgery_probability=forgery_probability(
                    spec.algorithm if spec.algorithm != "UMAC-2/4" else "umac"
                ),
                measured_python_mbps=measured.get(alias[spec.algorithm]),
            )
        )
    return rows


def format_table4(rows: list[Table4Row]) -> str:
    lines = [
        "Table 4 — time & forgery complexity (normalized to 350 MHz)",
        f"{'algorithm':<10} {'cycles/byte':>12} {'Gbits/sec':>10} {'forgery':>10} {'py MB/s':>9}",
    ]
    for r in rows:
        forgery = "1" if r.forgery_probability == 1.0 else f"2^{round(__import__('math').log2(r.forgery_probability))}"
        measured = f"{r.measured_python_mbps:9.1f}" if r.measured_python_mbps else "        -"
        lines.append(
            f"{r.algorithm:<10} {r.cycles_per_byte:>12.2f} {r.gbps_at_350mhz:>10.2f} "
            f"{forgery:>10} {measured}"
        )
    achievable, ok = umac_line_rate_check()
    lines.append(
        f"UMAC @200 MHz: {achievable:.2f} Gbps — {'≈ line rate (ok with one pipeline stage)' if ok else 'misses the 1x link rate'}"
    )
    return "\n".join(lines)
