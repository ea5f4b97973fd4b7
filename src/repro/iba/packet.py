"""IBA packet formats: LRH, BTH, DETH headers, data packets, and trap MADs.

Layout follows IBA 1.1 Volume 1 chapter 6 closely enough that every field
the paper's mechanisms touch is real and serialized:

* **LRH** (8 bytes) — VL, SL, destination/source LID, packet length.
* **BTH** (12 bytes) — opcode, **P_Key**, the **Reserved byte** (``resv8a``)
  that the paper repurposes to select the authentication function, the
  destination QP and the 24-bit PSN (which doubles as the MAC nonce /
  replay counter in Section 7).
* **DETH** (8 bytes) — **Q_Key** and source QP; present on datagram packets
  only (connected-service packets carry no Q_Key, exactly as Table 3 notes).

``resv8a`` is a *variant* field excluded from the ICRC — which is precisely
why the paper can use it as the auth-function selector without breaking
CRC/AT compatibility: flipping the selector does not change the value the
ICRC (or the MAC that replaces it) must take.

Packets carry real bytes (headers serialize; payload is genuine data the
ICRC/MAC is computed over) *plus* a declared ``wire_length`` used by link
timing, so a 1024-byte-MTU packet costs Table-1 time on the wire even when
an experiment gives it a compact synthetic payload.

**Packet ids** are per-run trace labels.  A packet is built with id 0 and
takes the next id of its fabric's :class:`PacketIds` when an HCA admits it
to the send path, so the same input numbers the same packets on every run,
in any process.  Nothing keys on an id; packets are identity-keyed objects.

**One datapath.**  ``invariant_bytes()``/``variant_bytes()`` serialize the
headers from their fields on every call; nothing caches wire bytes, so a
field write is seen by the next CRC or MAC with no invalidation step.  The
only per-packet memo is the MAC tag :mod:`repro.core.auth` leaves on the
packet (``_auth_tag_memo``), which is keyed on the covered bytes' value.

**One pack per packet.**  Each header turns its fields into wire words in
one place, its ``_words`` method, which takes the masks of its variant
fields as arguments: 0 gives the bytes as transmitted, all ones the ICRC
coverage with VL / ``resv8a`` / GRH traffic class, flow label and hop
limit masked to ones.  A header's ``pack()`` is one precompiled
:class:`struct.Struct` over those words, and a packet's covered headers
are one ``pack`` of the concatenated layout (LRH+BTH, +DETH, +GRH), so
``invariant_bytes()`` is one struct call plus the payload.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from repro.iba.keys import PKey, QKey
from repro.iba.types import LID, QPN, ServiceType, TrafficClass

#: P_Key carried by subnet-management packets (always admitted — the paper's
#: "DoS attack on the SM" discussion hinges on this).
MANAGEMENT_PKEY = PKey(0xFFFF)

#: Header overhead on the wire for a local (no-GRH) datagram packet:
#: LRH(8) + BTH(12) + DETH(8) + ICRC(4) + VCRC(2).
LOCAL_UD_OVERHEAD = 8 + 12 + 8 + 4 + 2
#: And for a connected-service packet (no DETH).
LOCAL_RC_OVERHEAD = 8 + 12 + 4 + 2

# Wire layouts (big-endian struct codes), one word per ``_words`` value:
#: LRH: VL|LVer|SL|LNH, DLID, PktLen, SLID.
_LRH_CODES = "HHHH"
#: BTH: OpCode, SE|M|PadCnt|TVer, P_Key, resv8a|DestQP, AckReq/reserved|PSN.
_BTH_CODES = "BBHII"
#: DETH: Q_Key, reserved|SrcQP.
_DETH_CODES = "II"
#: GRH: IPVer|TClass|FlowLabel, PayLen, NxtHdr, HopLmt, SGID, DGID.
_GRH_CODES = "IHBB16s16s"

_LRH = struct.Struct(">" + _LRH_CODES)
_BTH = struct.Struct(">" + _BTH_CODES)
_DETH = struct.Struct(">" + _DETH_CODES)
_GRH = struct.Struct(">" + _GRH_CODES)
#: A packet's headers as one layout, by (GRH present, DETH present).
_LRH_BTH = struct.Struct(">" + _LRH_CODES + _BTH_CODES)
_LRH_BTH_DETH = struct.Struct(">" + _LRH_CODES + _BTH_CODES + _DETH_CODES)
_LRH_GRH_BTH = struct.Struct(">" + _LRH_CODES + _GRH_CODES + _BTH_CODES)
_LRH_GRH_BTH_DETH = struct.Struct(
    ">" + _LRH_CODES + _GRH_CODES + _BTH_CODES + _DETH_CODES
)

# Variant-field masks: OR-ed into a field, all ones mask it out of the
# ICRC coverage (IBA 1.1 §7.8.2); 0 leaves the transmitted value.
#: LRH VL nibble.
VL_MASK = 0xF
#: BTH ``resv8a`` (the auth-function selector).
RESV8A_MASK = 0xFF
#: GRH traffic class and flow label (the low 28 bits of word 0).
GRH_CLASS_FLOW_MASK = 0x0FFFFFFF
#: GRH hop limit.
GRH_HOP_MASK = 0xFF


@dataclass
class LocalRouteHeader:
    """LRH — link-layer routing header (8 bytes)."""

    vl: int
    service_level: int
    dlid: LID
    slid: LID
    packet_length: int  #: wire length in 4-byte words, 11 bits.
    link_next_header: int = 2  #: 2 = BTH follows (IBA "LNH" for local packets).

    def _words(self, vl_mask: int) -> tuple:
        """The :data:`_LRH` words, VL OR-ed with *vl_mask* (LVer = 0)."""
        return (
            ((self.vl | vl_mask) & 0xF) << 12
            | (self.service_level & 0xF) << 4
            | self.link_next_header & 0x3,
            self.dlid & 0xFFFF,
            self.packet_length & 0x7FF,
            self.slid & 0xFFFF,
        )

    def pack(self) -> bytes:
        return _LRH.pack(*self._words(0))

    def pack_invariant(self) -> bytes:
        """LRH contribution to the ICRC: VL is a variant field, masked to 1s."""
        return _LRH.pack(*self._words(VL_MASK))

    @classmethod
    def unpack(cls, data: bytes) -> "LocalRouteHeader":
        """Parse 8 wire bytes back into an LRH (inverse of :meth:`pack`)."""
        if len(data) < 8:
            raise ValueError("LRH requires 8 bytes")
        w0, w1, dlid, pktlen, slid = struct.unpack(">BBHHH", data[:8])
        return cls(
            vl=w0 >> 4,
            service_level=w1 >> 4,
            dlid=LID(dlid),
            slid=LID(slid),
            packet_length=pktlen & 0x7FF,
            link_next_header=w1 & 0x3,
        )


@dataclass
class BaseTransportHeader:
    """BTH — transport header (12 bytes)."""

    opcode: int
    pkey: PKey
    dest_qp: QPN
    psn: int
    #: ``resv8a`` — the paper's authentication-function selector.  0 means
    #: the ICRC field holds a plain CRC; non-zero selects a registered MAC.
    reserved_auth: int = 0
    solicited: bool = False
    migreq: bool = False
    pad_count: int = 0

    def _words(self, resv8a_mask: int) -> tuple:
        """The :data:`_BTH` words, ``resv8a`` OR-ed with *resv8a_mask*
        (AckReq and the reserved bits are 0)."""
        return (
            self.opcode & 0xFF,
            (0x80 if self.solicited else 0)
            | (0x40 if self.migreq else 0)
            | (self.pad_count & 0x3) << 4,
            self.pkey.value,
            ((self.reserved_auth | resv8a_mask) & 0xFF) << 24
            | self.dest_qp & 0xFFFFFF,
            self.psn & 0xFFFFFF,
        )

    def pack(self) -> bytes:
        return _BTH.pack(*self._words(0))

    def pack_invariant(self) -> bytes:
        """BTH contribution to the ICRC: resv8a masked to 1s (variant field)."""
        return _BTH.pack(*self._words(RESV8A_MASK))

    @classmethod
    def unpack(cls, data: bytes) -> "BaseTransportHeader":
        """Parse 12 wire bytes back into a BTH (inverse of :meth:`pack`)."""
        if len(data) < 12:
            raise ValueError("BTH requires 12 bytes")
        (opcode, flags, pkey, resv, qp_hi, qp_mid, qp_lo, _ack, psn_hi, psn_lo) = (
            struct.unpack(">BBHBBBBBBH", data[:12])
        )
        return cls(
            opcode=opcode,
            pkey=PKey(pkey),
            dest_qp=QPN((qp_hi << 16) | (qp_mid << 8) | qp_lo),
            psn=(psn_hi << 16) | psn_lo,
            reserved_auth=resv,
            solicited=bool(flags & 0x80),
            migreq=bool(flags & 0x40),
            pad_count=(flags >> 4) & 0x3,
        )


@dataclass
class DatagramExtendedHeader:
    """DETH — datagram extended transport header (8 bytes)."""

    qkey: QKey
    src_qp: QPN

    def _words(self) -> tuple:
        """The :data:`_DETH` words (every DETH field is invariant)."""
        return self.qkey.value, self.src_qp & 0xFFFFFF

    def pack(self) -> bytes:
        return _DETH.pack(*self._words())

    pack_invariant = pack  # every DETH field is invariant

    @classmethod
    def unpack(cls, data: bytes) -> "DatagramExtendedHeader":
        """Parse 8 wire bytes back into a DETH (inverse of :meth:`pack`)."""
        if len(data) < 8:
            raise ValueError("DETH requires 8 bytes")
        qkey, _resv, hi, mid, lo = struct.unpack(">IBBBB", data[:8])
        return cls(qkey=QKey(qkey), src_qp=QPN((hi << 16) | (mid << 8) | lo))


@dataclass
class GlobalRouteHeader:
    """GRH — the optional 40-byte IPv6-style header for inter-subnet routing.

    ICRC coverage rule (IBA 1.1 §7.8.2): when a GRH is present the ICRC
    covers it with the *flow label*, *traffic class* and *hop limit* masked
    to ones — routers rewrite those in flight, exactly like the LRH's VL.
    """

    src_gid: bytes  #: 16-byte global identifier
    dst_gid: bytes
    traffic_class: int = 0
    flow_label: int = 0
    payload_length: int = 0
    next_header: int = 0x1B  #: IBA BTH
    hop_limit: int = 64

    def __post_init__(self) -> None:
        if len(self.src_gid) != 16 or len(self.dst_gid) != 16:
            raise ValueError("GIDs are 16 bytes")

    def _words(self, class_flow_mask: int, hop_mask: int) -> tuple:
        """The :data:`_GRH` words, traffic class + flow label OR-ed with
        *class_flow_mask* and the hop limit with *hop_mask*."""
        return (
            6 << 28
            | (self.traffic_class & 0xFF) << 20
            | self.flow_label & 0xFFFFF
            | class_flow_mask,
            self.payload_length & 0xFFFF,
            self.next_header & 0xFF,
            (self.hop_limit | hop_mask) & 0xFF,
            self.src_gid,
            self.dst_gid,
        )

    def pack(self) -> bytes:
        return _GRH.pack(*self._words(0, 0))

    def pack_invariant(self) -> bytes:
        """GRH bytes with the router-mutable fields masked to ones."""
        return _GRH.pack(*self._words(GRH_CLASS_FLOW_MASK, GRH_HOP_MASK))

    @classmethod
    def unpack(cls, data: bytes) -> "GlobalRouteHeader":
        if len(data) < 40:
            raise ValueError("GRH requires 40 bytes")
        word0, plen, nxt, hop = struct.unpack(">IHBB", data[:8])
        if word0 >> 28 != 6:
            raise ValueError("GRH IPVer must be 6")
        return cls(
            src_gid=bytes(data[8:24]),
            dst_gid=bytes(data[24:40]),
            traffic_class=(word0 >> 20) & 0xFF,
            flow_label=word0 & 0xFFFFF,
            payload_length=plen,
            next_header=nxt,
            hop_limit=hop,
        )


class PacketIds:
    """A fabric's packet-id source: 1, 2, ... in send-path admission order,
    shared by every HCA it builds (an HCA built on its own numbers its own
    packets).  Ids are unique within one fabric."""

    __slots__ = ("_last",)

    def __init__(self) -> None:
        self._last = 0

    @property
    def last(self) -> int:
        """The newest id handed out (= packets admitted so far)."""
        return self._last

    def next(self) -> int:
        self._last += 1
        return self._last


@dataclass(eq=False)
class DataPacket:
    """A full IBA data packet moving through the simulated fabric.

    ``eq=False``: packets are mutable, identity-keyed objects (buffers and
    sets hold them by identity, not by field value).
    """

    lrh: LocalRouteHeader
    bth: BaseTransportHeader
    deth: DatagramExtendedHeader | None
    payload: bytes
    #: Declared on-the-wire size in bytes (drives serialization timing).
    wire_length: int
    service: ServiceType = ServiceType.UNRELIABLE_DATAGRAM
    traffic_class: TrafficClass = TrafficClass.BEST_EFFORT
    #: optional global route header (inter-subnet packets); sits between
    #: LRH and BTH on the wire and joins the ICRC/VCRC coverage.
    grh: "GlobalRouteHeader | None" = None
    #: 32-bit ICRC *or* authentication tag, per bth.reserved_auth.
    icrc: int = 0
    vcrc: int = 0
    is_attack: bool = False
    #: Per-run trace label, given when an HCA admits the packet to its send
    #: path (see :class:`PacketIds`); 0 = never entered a fabric.
    packet_id: int = 0
    #: Simulation timestamps (ps); filled in by the HCA / fabric.
    t_created: int = 0
    t_injected: int = 0
    #: In-packet Bloom membership tag (``bloom_inpacket_tag`` capability
    #: variant); stamped by the sender's HCA, verified by the active Bloom
    #: ingress filter.  None = no tag carried.
    bloom_tag: int | None = None

    @property
    def src(self) -> LID:
        return self.lrh.slid

    @property
    def dst(self) -> LID:
        return self.lrh.dlid

    @property
    def pkey(self) -> PKey:
        return self.bth.pkey

    @property
    def qkey(self) -> QKey | None:
        return self.deth.qkey if self.deth else None

    @property
    def src_qp(self) -> QPN | None:
        return self.deth.src_qp if self.deth else None

    @property
    def vl(self) -> int:
        return self.lrh.vl

    #: ``(function id, key, message, nonce, tag)`` of the last MAC
    #: :meth:`repro.core.auth.MacAuthService.prepare` computed over this
    #: packet; ``verify`` reuses the tag only when all four inputs are equal.
    _auth_tag_memo = None

    def invariant_bytes(self) -> bytes:
        """The byte string the ICRC / authentication tag covers.

        Per IBA: everything from LRH through the end of the payload, with
        variant fields (LRH.VL, BTH.resv8a) masked to ones.  This is what
        "ICRC does not change from end to end" means — and why the AT that
        replaces it is an end-to-end transport-level tag.
        """
        return self._pack_headers(
            VL_MASK, RESV8A_MASK, GRH_CLASS_FLOW_MASK, GRH_HOP_MASK
        ) + self.payload

    def variant_bytes(self) -> bytes:
        """Everything the VCRC covers: LRH through ICRC, as transmitted."""
        return (
            self._pack_headers(0, 0, 0, 0)
            + self.payload
            + self.icrc.to_bytes(4, "big")
        )

    def _pack_headers(
        self, vl_mask: int, resv8a_mask: int, class_flow_mask: int, hop_mask: int
    ) -> bytes:
        """LRH through DETH in one ``pack``, variant fields OR-ed with the
        masks (see the module docstring)."""
        lrh = self.lrh._words(vl_mask)
        bth = self.bth._words(resv8a_mask)
        deth = self.deth
        if self.grh is None:
            if deth is None:
                return _LRH_BTH.pack(*lrh, *bth)
            return _LRH_BTH_DETH.pack(*lrh, *bth, *deth._words())
        grh = self.grh._words(class_flow_mask, hop_mask)
        if deth is None:
            return _LRH_GRH_BTH.pack(*lrh, *grh, *bth)
        return _LRH_GRH_BTH_DETH.pack(*lrh, *grh, *bth, *deth._words())

    @property
    def nonce(self) -> int:
        """MAC nonce: (source LID, source QP, PSN) — unique per live packet."""
        deth = self.deth
        qp = deth.src_qp if deth is not None else 0
        return (self.lrh.slid << 40) | (qp << 24) | (self.bth.psn & 0xFFFFFF)


@dataclass
class TrapMAD:
    """Subnet-management trap — the P_Key-violation notice (IBA Notice 257).

    Sent by an HCA whose P_Key check failed; Section 3.3 turns this existing
    message into the SIF activation signal: "when the SM receives a trap
    message, it knows who sent the invalid P_Key packets and locates the
    switch it is connected to."
    """

    reporter: LID  #: the node whose check failed (trap source).
    offender: LID  #: SLID of the violating packet.
    bad_pkey: PKey  #: the invalid P_Key observed.
    #: MADs are 256 bytes on the wire.
    wire_length: int = 256
    t_created: int = 0
