"""SHA-1, implemented from FIPS 180-1.

Inner hash of HMAC-SHA1, the strongest (and slowest) MAC in the paper's
Table 4: 12.6 cycles/byte, ~0.22 Gbps at 350 MHz, forgery probability ~2^-32
when truncated to the 32-bit ICRC field.

The :class:`SHA1` class is the from-scratch reference implementation.  The
one-shot :func:`sha1` returns ``hashlib``'s digest, and tests check the two
agree on FIPS vectors and random inputs.
"""

from __future__ import annotations

import hashlib
import struct

_MASK = 0xFFFFFFFF
_INIT_STATE = (0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476, 0xC3D2E1F0)


def _rotl(x: int, n: int) -> int:
    x &= _MASK
    return ((x << n) | (x >> (32 - n))) & _MASK


def _pad(length: int) -> bytes:
    pad_len = (56 - (length + 1)) % 64
    return b"\x80" + b"\x00" * pad_len + struct.pack(">Q", (length * 8) & 0xFFFFFFFFFFFFFFFF)


def _compress(state: tuple[int, ...], block: bytes) -> tuple[int, ...]:
    w = list(struct.unpack(">16I", block))
    for t in range(16, 80):
        w.append(_rotl(w[t - 3] ^ w[t - 8] ^ w[t - 14] ^ w[t - 16], 1))
    a, b, c, d, e = state
    for t in range(80):
        if t < 20:
            f = (b & c) | (~b & d)
            k = 0x5A827999
        elif t < 40:
            f = b ^ c ^ d
            k = 0x6ED9EBA1
        elif t < 60:
            f = (b & c) | (b & d) | (c & d)
            k = 0x8F1BBCDC
        else:
            f = b ^ c ^ d
            k = 0xCA62C1D6
        tmp = (_rotl(a, 5) + f + e + k + w[t]) & _MASK
        e, d, c, b, a = d, c, _rotl(b, 30), a, tmp
    return (
        (state[0] + a) & _MASK,
        (state[1] + b) & _MASK,
        (state[2] + c) & _MASK,
        (state[3] + d) & _MASK,
        (state[4] + e) & _MASK,
    )


class SHA1:
    """Incremental SHA-1 with the hashlib update/digest interface."""

    digest_size = 20
    block_size = 64
    name = "sha1"

    __slots__ = ("_state", "_buffer", "_length")

    def __init__(self, data: bytes = b"") -> None:
        self._state = _INIT_STATE
        self._buffer = b""
        self._length = 0
        if data:
            self.update(data)

    def update(self, data: bytes) -> "SHA1":
        self._length += len(data)
        buf = self._buffer + data
        offset = 0
        n = len(buf)
        state = self._state
        while n - offset >= 64:
            state = _compress(state, buf[offset : offset + 64])
            offset += 64
        self._state = state
        self._buffer = buf[offset:]
        return self

    def digest(self) -> bytes:
        state = self._state
        tail = self._buffer + _pad(self._length)
        for off in range(0, len(tail), 64):
            state = _compress(state, tail[off : off + 64])
        return struct.pack(">5I", *state)

    def hexdigest(self) -> str:
        return self.digest().hex()

    def copy(self) -> "SHA1":
        clone = SHA1()
        clone._state = self._state
        clone._buffer = self._buffer
        clone._length = self._length
        return clone


def sha1(data: bytes) -> bytes:
    """One-shot SHA-1 digest of *data* (20 bytes); equals ``SHA1(data).digest()``."""
    return hashlib.sha1(data).digest()
