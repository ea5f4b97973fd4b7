"""MD5 message digest, implemented from RFC 1321.

Used as the inner hash of HMAC-MD5 — one of the two "conventional" MACs the
paper benchmarks in Table 4 (5.3 cycles/byte, ~0.53 Gbps at 350 MHz).

The :class:`MD5` class is a straightforward translation of the RFC: four
rounds of 16 operations on a 128-bit state, message padded with a single
``0x80`` byte, zeros, and the 64-bit little-endian bit length.  It is the
reference implementation: the one-shot :func:`md5` the simulator calls
(Bloom-filter probe positions) returns ``hashlib``'s digest, and tests
check the two agree on RFC vectors and random inputs.
"""

from __future__ import annotations

import hashlib
import math
import struct

# Per-round left-rotate amounts (RFC 1321 section 3.4).
_S = (
    [7, 12, 17, 22] * 4
    + [5, 9, 14, 20] * 4
    + [4, 11, 16, 23] * 4
    + [6, 10, 15, 21] * 4
)

# K[i] = floor(2^32 * abs(sin(i + 1))) — the RFC's sine-derived constants.
_K = tuple(int(abs(math.sin(i + 1)) * 2**32) & 0xFFFFFFFF for i in range(64))

_INIT_STATE = (0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476)

_MASK = 0xFFFFFFFF


def _rotl(x: int, n: int) -> int:
    x &= _MASK
    return ((x << n) | (x >> (32 - n))) & _MASK


def _pad(length: int) -> bytes:
    """Merkle–Damgård padding for a message of *length* bytes."""
    pad_len = (56 - (length + 1)) % 64
    return b"\x80" + b"\x00" * pad_len + struct.pack("<Q", (length * 8) & 0xFFFFFFFFFFFFFFFF)


def _compress(state: tuple[int, int, int, int], block: bytes) -> tuple[int, int, int, int]:
    a0, b0, c0, d0 = state
    m = struct.unpack("<16I", block)
    a, b, c, d = a0, b0, c0, d0
    for i in range(64):
        if i < 16:
            f = (b & c) | (~b & d)
            g = i
        elif i < 32:
            f = (d & b) | (~d & c)
            g = (5 * i + 1) % 16
        elif i < 48:
            f = b ^ c ^ d
            g = (3 * i + 5) % 16
        else:
            f = c ^ (b | (~d & _MASK))
            g = (7 * i) % 16
        f = (f + a + _K[i] + m[g]) & _MASK
        a, d, c = d, c, b
        b = (b + _rotl(f, _S[i])) & _MASK
    return (
        (a0 + a) & _MASK,
        (b0 + b) & _MASK,
        (c0 + c) & _MASK,
        (d0 + d) & _MASK,
    )


class MD5:
    """Incremental MD5 with the hashlib update/digest interface."""

    digest_size = 16
    block_size = 64
    name = "md5"

    __slots__ = ("_state", "_buffer", "_length")

    def __init__(self, data: bytes = b"") -> None:
        self._state = _INIT_STATE
        self._buffer = b""
        self._length = 0
        if data:
            self.update(data)

    def update(self, data: bytes) -> "MD5":
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
        return struct.pack("<4I", *state)

    def hexdigest(self) -> str:
        return self.digest().hex()

    def copy(self) -> "MD5":
        clone = MD5()
        clone._state = self._state
        clone._buffer = self._buffer
        clone._length = self._length
        return clone


def md5(data: bytes) -> bytes:
    """One-shot MD5 digest of *data* (16 bytes); equals ``MD5(data).digest()``."""
    return hashlib.md5(data).digest()
