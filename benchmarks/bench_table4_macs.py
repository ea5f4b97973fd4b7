"""Table 4 — time & forgery complexity of the authentication candidates.

Prints the paper's normalized table and pytest-benchmarks each of this
repo's from-scratch implementations on an MTU-sized message, asserting the
grouping the paper's argument needs (CRC/UMAC class ≫ HMACs; MD5 > SHA1).
CRC and the HMACs are timed through their pure-Python oracles
(``crc32_pure``, ``hmac`` over ``MD5``/``SHA1``), not the C-backed
functions the simulator calls.
"""

import pytest

from repro.crypto.crc32 import crc32_pure
from repro.crypto.hmac import hmac
from repro.crypto.md5 import MD5
from repro.crypto.pmac import PMAC
from repro.crypto.sha1 import SHA1
from repro.crypto.stream import stream_mac
from repro.crypto.umac import UMAC
from repro.experiments.table4_macs import format_table4, run_table4

from benchmarks.conftest import emit

MTU_MESSAGE = bytes(range(256)) * 5  # 1280 B ≈ one MTU frame w/ headers
KEY = b"0123456789abcdef"
_UMAC = UMAC(KEY)
_PMAC = PMAC(KEY)

CANDIDATES = {
    "crc": lambda: crc32_pure(MTU_MESSAGE),
    "umac": lambda: _UMAC.hash(MTU_MESSAGE),
    "hmac-md5": lambda: hmac(KEY, MTU_MESSAGE, MD5),
    "hmac-sha1": lambda: hmac(KEY, MTU_MESSAGE, SHA1),
    "pmac": lambda: _PMAC.tag(MTU_MESSAGE),
    "stream": lambda: stream_mac(KEY, MTU_MESSAGE, 1),
}


def test_table4_published_numbers(benchmark):
    rows = benchmark.pedantic(lambda: run_table4(measure=True), rounds=1, iterations=1)
    emit("")
    emit(format_table4(rows))
    by_name = {r.algorithm: r for r in rows}
    assert by_name["CRC"].gbps_at_350mhz == pytest.approx(11.2, abs=0.01)
    assert by_name["UMAC-2/4"].gbps_at_350mhz == pytest.approx(4.0, abs=0.01)
    assert by_name["HMAC-MD5"].gbps_at_350mhz == pytest.approx(0.53, abs=0.005)
    assert by_name["HMAC-SHA1"].gbps_at_350mhz == pytest.approx(0.22, abs=0.005)


@pytest.mark.parametrize("name", sorted(CANDIDATES))
def test_mac_throughput(name, benchmark):
    benchmark(CANDIDATES[name])


def test_python_ordering_matches_paper_grouping(benchmark):
    import time

    def measure():
        out = {}
        for name, fn in CANDIDATES.items():
            fn()
            t0 = time.perf_counter()
            for _ in range(10):
                fn()
            out[name] = len(MTU_MESSAGE) * 10 / (time.perf_counter() - t0) / 1e6
        return out

    speeds = benchmark.pedantic(measure, rounds=1, iterations=1)
    emit("")
    emit("Table 4 (measured, pure Python, MB/s): "
         + ", ".join(f"{k}={v:.1f}" for k, v in sorted(speeds.items())))
    assert speeds["crc"] > speeds["hmac-md5"] > speeds["hmac-sha1"]
    assert speeds["umac"] > speeds["hmac-md5"]
