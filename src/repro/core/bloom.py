"""Constant-memory Bloom-filter state for partition enforcement.

The paper's SIF bounds its Invalid_P_Key_Table by the partition table and
flips to a whitelist when a spray would outgrow it.  The fourth design
(ROADMAP: "in-packet Bloom filters", after arXiv 0908.3574 and 1901.00955)
replaces the exact table with a **fixed-size Bloom filter**: ``m`` bits and
``k`` hash probes, so ingress state is constant no matter how many distinct
P_Keys an attacker sprays.  The price is a tunable false-positive rate —
the filter may *over*-filter (drop a key that was never registered) but can
never *under*-filter (miss a key that was), because Bloom filters have no
false negatives.

Hashing is deterministic double hashing over the repo's own crypto
primitives: one MD5 over ``salt || key`` yields two 32-bit words ``h1, h2``
and probe ``i`` tests bit ``(h1 + i·h2) mod m`` — the classic Kirsch–
Mitzenmacher construction, so ``k`` probes cost one digest.  The same
positions double as the **in-packet membership tag** (the capability shape
of arXiv 1901.00955): a sender that knows the port's secret salt packs its
P_Key's probe positions into a small integer; the ingress filter verifies
the tag by recomputation, so a forger without the salt cannot mint a tag
that survives verification (probability ~``m^-k`` per guess).  Positions
are recomputed on every lookup: one C-backed MD5 per key, nothing memoized.
"""

from __future__ import annotations

import math

from repro.crypto.md5 import md5


def bloom_positions(key: int, salt: bytes, num_bits: int, num_hashes: int) -> tuple[int, ...]:
    """The *num_hashes* bit positions of *key* under double hashing.

    One MD5 over ``salt || key16`` supplies ``h1`` (bytes 0–3) and ``h2``
    (bytes 4–7, forced odd so successive probes cannot collapse onto one
    position when ``num_bits`` is even).
    """
    digest = md5(salt + (key & 0xFFFF).to_bytes(2, "big"))
    h1 = int.from_bytes(digest[0:4], "big")
    h2 = int.from_bytes(digest[4:8], "big") | 1
    return tuple((h1 + i * h2) % num_bits for i in range(num_hashes))


def analytic_fp_rate(num_bits: int, num_hashes: int, num_entries: int) -> float:
    """The textbook false-positive bound ``(1 - e^(-kn/m))^k``."""
    if num_entries <= 0:
        return 0.0
    return (1.0 - math.exp(-num_hashes * num_entries / num_bits)) ** num_hashes


def bits_for_fp_rate(num_entries: int, fp_rate: float, num_hashes: int) -> int:
    """Smallest ``m`` (rounded up to a byte) whose analytic false-positive
    rate at *num_entries* keys under *num_hashes* probes is ≤ *fp_rate*.

    Inverts ``(1 - e^(-kn/m))^k ≤ fp``: ``m ≥ -kn / ln(1 - fp^(1/k))``.
    """
    if not 0.0 < fp_rate < 1.0:
        raise ValueError("fp_rate must be in (0, 1)")
    if num_entries < 1 or num_hashes < 1:
        raise ValueError("num_entries and num_hashes must be positive")
    m = -num_hashes * num_entries / math.log(1.0 - fp_rate ** (1.0 / num_hashes))
    return max(8, 8 * math.ceil(m / 8.0))


def pack_tag(positions: tuple[int, ...], num_bits: int) -> int:
    """Pack probe positions into one integer — the in-packet membership tag.

    Each position takes ``ceil(log2 m)`` bits; a 1024-bit, 4-hash filter
    yields a 40-bit tag, comfortably inside the header room the paper's
    resv8a argument frees up plus a GRH option."""
    width = max(1, (num_bits - 1).bit_length())
    tag = 0
    for pos in positions:
        tag = (tag << width) | pos
    return tag


class BloomFilter:
    """Fixed-size Bloom set over 16-bit P_Key indices.

    ``add``/``__contains__`` are deterministic in (salt, key); ``inserted``
    counts raw ``add`` calls (a Bloom filter cannot count *distinct* keys —
    callers needing dedup semantics must track that themselves).
    """

    def __init__(self, num_bits: int, num_hashes: int, salt: bytes = b"") -> None:
        if num_bits < 8:
            raise ValueError("Bloom filter needs at least 8 bits")
        if not 1 <= num_hashes <= 16:
            raise ValueError("num_hashes must be in 1..16")
        self.num_bits = num_bits
        self.num_hashes = num_hashes
        self.salt = bytes(salt)
        self._bits = bytearray((num_bits + 7) // 8)
        self._inserted = 0

    @property
    def inserted(self) -> int:
        """Raw ``add`` calls since the last :meth:`clear`."""
        return self._inserted

    # -- hashing --------------------------------------------------------------

    def positions(self, key: int) -> tuple[int, ...]:
        """Probe positions for *key* under this filter's salt."""
        return bloom_positions(key, self.salt, self.num_bits, self.num_hashes)

    def tag(self, key: int) -> int:
        """The in-packet membership tag for *key* under this filter's salt."""
        return pack_tag(self.positions(key), self.num_bits)

    def verify_tag(self, key: int, tag: int | None) -> bool:
        """True iff *tag* is exactly the tag a salt-holder would stamp."""
        return tag is not None and tag == self.tag(key)

    # -- set operations -------------------------------------------------------

    def add(self, key: int) -> None:
        for pos in self.positions(key):
            self._bits[pos >> 3] |= 1 << (pos & 7)
        self._inserted += 1

    def __contains__(self, key: int) -> bool:
        for pos in self.positions(key):
            if not self._bits[pos >> 3] & (1 << (pos & 7)):
                return False
        return True

    def clear(self) -> None:
        """Zero the bit array (filter deactivation); the memo survives —
        positions depend only on (salt, key), never on contents."""
        for i in range(len(self._bits)):
            self._bits[i] = 0
        self._inserted = 0

    # -- accounting -----------------------------------------------------------

    @property
    def bits_set(self) -> int:
        return sum(bin(b).count("1") for b in self._bits)

    @property
    def memory_bytes(self) -> int:
        """Modeled hardware footprint: the bit array only (the memo is a
        simulator-side speedup, not modeled state)."""
        return len(self._bits)

    def estimated_fp_rate(self) -> float:
        """Analytic bound at the current raw insertion count."""
        return analytic_fp_rate(self.num_bits, self.num_hashes, self._inserted)
