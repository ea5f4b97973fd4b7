"""UMAC-style fast universal-hash MAC (Black, Halevi, Krawczyk, Krovetz,
Rogaway — CRYPTO '99), producing 32-bit tags ("UMAC-2/4" flavour).

This is the MAC the paper selects for the ICRC field: provably-secure 2^-30
forgery probability with a 32-bit tag, and fast enough (0.7 cycles/byte on
a Pentium III with MMX) to authenticate at multi-Gbps line rate.

Construction (three layers, as in the original design):

1. **NH first-level hash.**  The message is split into 1024-byte blocks;
   each block is seen as 32-bit little-endian words ``m_i`` and compressed
   against key words ``k_i``::

       NH(K, M) = sum_{i odd} ((m_i + k_i) mod 2^32) * ((m_{i+1} + k_{i+1}) mod 2^32)   mod 2^64

   NH is a 2^-32-almost-universal family and is the source of UMAC's speed:
   per word it is one 32-bit add and every other word one 32x32→64 multiply
   (the MMX-friendly inner loop the paper leans on).

2. **Polynomial second-level hash.**  The sequence of 64-bit NH outputs is
   hashed with a polynomial in an evaluation point ``kp`` over the prime
   field GF(2^61 - 1), collapsing any-length messages to one value.

3. **Carter–Wegman finalization.**  The hash is XOR-masked with a PRF of a
   nonce (here HMAC-SHA1 of the nonce under a derived key, standing in for
   the RC6-based PRF of the original), so tags are one-time-pad-like and
   reusing the hash key stays safe as long as nonces are fresh.

Key schedule: all subkeys (1 KiB of NH key, the polynomial point and the
pad key) are expanded from the user key by HMAC-SHA1 in counter mode
(:func:`_derive`), so a 16-byte secret key from the partition-level or
QP-level key manager is all a channel adapter stores.

NH and the polynomial hash are written here in Python.  The HMAC-SHA1 calls
(52 per key schedule, one per tag's pad) go through the C-backed
:func:`repro.crypto.hmac.hmac_sha1`; the from-scratch
``hmac(key, msg, SHA1)`` is its tested oracle.

Not interoperable with RFC 4418 — the structure, tag size, and security
bound are what the reproduction needs, per DESIGN.md §6.
"""

from __future__ import annotations

import struct

from repro.crypto.hmac import hmac_sha1

_P61 = (1 << 61) - 1  # Mersenne prime for the polynomial hash
_NH_BLOCK = 1024  # bytes per NH block (as in UMAC: 1024-byte "L1" blocks)
_NH_WORDS = _NH_BLOCK // 4
_M32 = 0xFFFFFFFF
_M64 = 0xFFFFFFFFFFFFFFFF


def _derive(key: bytes, label: bytes, nbytes: int) -> bytes:
    """Expand *key* into *nbytes* of subkey material, domain-separated by *label*."""
    out = b""
    counter = 0
    while len(out) < nbytes:
        out += hmac_sha1(key, label + counter.to_bytes(4, "big"))
        counter += 1
    return out[:nbytes]


def _nh_keywords(key: bytes) -> tuple[int, ...]:
    material = _derive(key, b"umac-nh", _NH_WORDS * 4)
    return struct.unpack("<%dI" % _NH_WORDS, material)


def _poly_key(key: bytes) -> int:
    # Evaluation point in GF(2^61-1); clamp into the field.
    raw = int.from_bytes(_derive(key, b"umac-poly", 8), "big")
    return raw % _P61


def _nh(block: bytes, kw: tuple[int, ...]) -> int:
    """NH compression of one <=1024-byte block (zero-padded to 8-byte multiple)."""
    true_length = len(block)
    if true_length % 8:
        block = block + b"\x00" * (8 - true_length % 8)
    nwords = len(block) // 4
    words = struct.unpack("<%dI" % nwords, block)
    acc = 0
    for i in range(0, nwords, 2):
        acc += ((words[i] + kw[i]) & _M32) * ((words[i + 1] + kw[i + 1]) & _M32)
    # Fold in the *unpadded* length so a message and its zero-padded
    # extension never collide.
    return (acc + (true_length << 32)) & _M64


def _poly(values: list[int], kp: int) -> int:
    """Horner evaluation of the value sequence at point *kp* over GF(2^61-1).

    64-bit NH outputs are split into two field elements each so no input
    information is lost to the modulus.
    """
    acc = 1  # start at 1 so the empty sequence differs from [0]
    for v in values:
        hi = v >> 32
        lo = v & _M32
        acc = (acc * kp + hi) % _P61
        acc = (acc * kp + lo) % _P61
    return acc


class UMAC:
    """Keyed UMAC instance producing 32-bit tags.

    >>> mac = UMAC(b"sixteen byte key")
    >>> tag = mac.tag(b"message", nonce=1)
    >>> mac.verify(b"message", 1, tag)
    True
    """

    tag_bits = 32
    #: Provable forgery bound for the 32-bit UMAC-2/4 parameter set (paper Table 4).
    forgery_probability = 2.0**-30

    __slots__ = ("_key", "_nh_key", "_poly_key", "_pad_key")

    def __init__(self, key: bytes) -> None:
        if not key:
            raise ValueError("UMAC key must be non-empty")
        self._key = bytes(key)
        self._nh_key = _nh_keywords(self._key)
        self._poly_key = _poly_key(self._key)
        self._pad_key = _derive(self._key, b"umac-pad", 20)

    def hash(self, message: bytes) -> int:
        """The (nonce-free) universal hash of *message* — 61-bit value."""
        if not message:
            return _poly([_nh(b"", self._nh_key)], self._poly_key)
        outs = [
            _nh(message[off : off + _NH_BLOCK], self._nh_key)
            for off in range(0, len(message), _NH_BLOCK)
        ]
        return _poly(outs, self._poly_key)

    def _pad(self, nonce: int) -> int:
        prf = hmac_sha1(self._pad_key, nonce.to_bytes(8, "big"))
        return int.from_bytes(prf[:4], "big")

    def tag(self, message: bytes, nonce: int) -> int:
        """32-bit authentication tag for (*message*, *nonce*)."""
        h = self.hash(message)
        folded = (h ^ (h >> 32)) & _M32
        return folded ^ self._pad(nonce)

    def verify(self, message: bytes, nonce: int, tag: int) -> bool:
        """Constant-structure verification (recompute and compare)."""
        return self.tag(message, nonce) == (tag & _M32)


def umac32(key: bytes, message: bytes, nonce: int = 0) -> int:
    """One-shot 32-bit UMAC tag."""
    return UMAC(key).tag(message, nonce)
