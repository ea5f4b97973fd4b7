"""ICRC / VCRC / LPCRC computation over packet bytes.

IBA defines three CRCs (paper Figure 4a):

* **ICRC** — CRC-32 over all *invariant* fields (LRH..payload with variant
  fields masked).  End-to-end; this is the field the paper converts into an
  authentication tag.
* **VCRC** — CRC-16 over the whole packet as transmitted (LRH..ICRC);
  recomputed hop-by-hop whenever a switch rewrites variant fields.
* **LPCRC** — CRC over link packets (flow-control packets).  The paper
  ignores it ("the only Link packet ... is the flow control packet"), and we
  model credits abstractly, but the function is provided for completeness.

The ICRC and VCRC are computed over the packet's full covered byte string on
every call (:meth:`~repro.iba.packet.DataPacket.invariant_bytes` /
:meth:`~repro.iba.packet.DataPacket.variant_bytes`); CRC-32 is zlib's.  The
CRC-16 is table-driven (256 entries) with the original bit-serial form
retained as a cross-check oracle (:func:`_crc16_bitwise`), mirroring
``crc32_bitwise``.
"""

from __future__ import annotations

from repro.crypto.crc32 import crc32
from repro.iba.packet import DataPacket

#: CRC-16 polynomial for the VCRC, in reflected (LSB-first) form.  0xD008 is
#: the bit-reversal of 0x100B — the IBA VCRC generator polynomial
#: x^16 + x^12 + x^3 + x + 1 (IBA 1.1 Vol 1 §7.8.3).  Note we run it as a
#: plain reflected CRC with init 0xFFFF and no final complement or bit
#: reordering, so the exact IBA wire VCRC procedure (MSB-first shift order
#: and inverted transmission) is *not* modeled — the value differs from real
#: hardware but serves identically for hop-local error checks, which is all
#: the paper needs (the VCRC is not security relevant).
_VCRC_POLY = 0xD008


def _crc16_bitwise(data: bytes, init: int = 0xFFFF) -> int:
    """Definitional bit-serial CRC-16 — slow; the oracle for the table."""
    crc = init
    for b in data:
        crc ^= b
        for _ in range(8):
            if crc & 1:
                crc = (crc >> 1) ^ _VCRC_POLY
            else:
                crc >>= 1
    return crc & 0xFFFF


def _build_crc16_table(poly: int = _VCRC_POLY) -> tuple[int, ...]:
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


_CRC16_TABLE = _build_crc16_table()


def _crc16_table(data: bytes, init: int = 0xFFFF) -> int:
    """256-entry table-driven CRC-16 (bit-identical to the bit-serial form)."""
    crc = init
    table = _CRC16_TABLE
    for b in data:
        crc = table[(crc ^ b) & 0xFF] ^ (crc >> 8)
    return crc & 0xFFFF


def icrc(packet: DataPacket) -> int:
    """32-bit Invariant CRC of *packet* (over masked invariant bytes)."""
    return crc32(packet.invariant_bytes())


def vcrc(packet: DataPacket) -> int:
    """16-bit Variant CRC of *packet* as currently serialized."""
    return _crc16_table(packet.variant_bytes())


def lpcrc(link_packet_bytes: bytes) -> int:
    """Link Packet CRC (flow-control packets)."""
    return _crc16_table(link_packet_bytes)


def stamp(packet: DataPacket) -> DataPacket:
    """Fill in the packet's ICRC and VCRC fields (stock-IBA transmit path)."""
    packet.icrc = icrc(packet)
    packet.vcrc = vcrc(packet)
    return packet


def verify_icrc(packet: DataPacket) -> bool:
    """Receive-side ICRC check (stock IBA, no authentication)."""
    return packet.icrc == icrc(packet)


def verify_vcrc(packet: DataPacket) -> bool:
    """Hop-local VCRC check."""
    return packet.vcrc == vcrc(packet)
