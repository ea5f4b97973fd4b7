"""CRC-32 (IEEE 802.3) — the error-detection code behind the IBA ICRC/VCRC.

InfiniBand computes its Invariant CRC and Variant CRC with the standard
Ethernet polynomial ``0x04C11DB7``.  The reflected (LSB-first) form is
``0xEDB88320``.  We provide:

* :func:`crc32` — one-shot CRC over a byte string, computed by stdlib
  ``zlib.crc32`` (init ``0xFFFFFFFF``, final XOR ``0xFFFFFFFF``).
* :func:`crc32_pure` — the same CRC as a pure-python table-driven loop,
  kept as the oracle ``zlib`` is checked against in
  ``tests/crypto/test_crc32_backends.py``.
* :class:`CRC32` — incremental engine so a packet's headers and payload can
  be folded in field-by-field, the way an HCA pipeline would.
* :func:`crc32_bitwise` — the definitional bit-serial implementation, kept as
  a cross-check oracle for the table-driven code.

The CRC is *linear* over GF(2): ``crc(a xor b) == crc(a) xor crc(b) xor
crc(0)`` for equal-length inputs.  That linearity is exactly why a CRC is
useless as an authentication tag (forgery probability ~1, Table 4 of the
paper): anyone can adjust a message and fix the CRC without any secret.
Tests in ``tests/crypto/test_crc32.py`` assert this property — it is the
motivation for the whole ICRC-as-MAC design.
"""

from __future__ import annotations

import zlib

REFLECTED_POLY = 0xEDB88320
_INIT = 0xFFFFFFFF
_XOROUT = 0xFFFFFFFF


def _build_table(poly: int = REFLECTED_POLY) -> tuple[int, ...]:
    table = []
    for byte in range(256):
        crc = byte
        for _ in range(8):
            if crc & 1:
                crc = (crc >> 1) ^ poly
            else:
                crc >>= 1
        table.append(crc)
    return tuple(table)


_TABLE = _build_table()


def crc32_pure(data: bytes, value: int = 0) -> int:
    """Pure-python table-driven CRC-32 — the oracle for :func:`crc32`."""
    crc = (value ^ _INIT) & 0xFFFFFFFF
    table = _TABLE
    for b in data:
        crc = table[(crc ^ b) & 0xFF] ^ (crc >> 8)
    return (crc ^ _XOROUT) & 0xFFFFFFFF


def crc32(data: bytes, value: int = 0) -> int:
    """CRC-32 of *data*, continuing from a previous *value* (like zlib).

    ``value`` is the running CRC of everything already folded in (0 to
    start).  Returns an unsigned 32-bit integer.
    """
    return zlib.crc32(data, value)


def crc32_bitwise(data: bytes, value: int = 0) -> int:
    """Bit-serial reference CRC-32 — slow; used to validate the table."""
    crc = (value ^ _INIT) & 0xFFFFFFFF
    for b in data:
        crc ^= b
        for _ in range(8):
            if crc & 1:
                crc = (crc >> 1) ^ REFLECTED_POLY
            else:
                crc >>= 1
    return (crc ^ _XOROUT) & 0xFFFFFFFF


class CRC32:
    """Incremental CRC-32 engine.

    Mirrors the hashlib update/digest idiom so the ICRC code in
    :mod:`repro.iba.crc` can stream header fields through it::

        eng = CRC32()
        eng.update(header_bytes)
        eng.update(payload)
        tag = eng.value
    """

    __slots__ = ("_crc",)

    def __init__(self, data: bytes = b"") -> None:
        self._crc = _INIT
        if data:
            self.update(data)

    def update(self, data: bytes) -> "CRC32":
        # Convert the raw register to the public (xorout) convention the
        # one-shot function speaks, fold, and convert back.
        self._crc = zlib.crc32(data, self._crc ^ _XOROUT) ^ _XOROUT
        return self

    @property
    def value(self) -> int:
        """Current CRC as an unsigned 32-bit integer."""
        return (self._crc ^ _XOROUT) & 0xFFFFFFFF

    def digest(self) -> bytes:
        """Current CRC as 4 little-endian bytes (IBA transmits ICRC LSB first)."""
        return self.value.to_bytes(4, "little")

    def copy(self) -> "CRC32":
        clone = CRC32()
        clone._crc = self._crc
        return clone
