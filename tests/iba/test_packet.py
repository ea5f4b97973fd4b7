"""Packet formats: header serialization, invariant-field masking (the ICRC
coverage rule the whole AT design rests on), and nonce construction."""

import struct
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.iba import crc as ibacrc
from repro.iba.keys import PKey, QKey
from repro.iba.packet import (
    BaseTransportHeader,
    DataPacket,
    DatagramExtendedHeader,
    GlobalRouteHeader,
    LOCAL_RC_OVERHEAD,
    LOCAL_UD_OVERHEAD,
    LocalRouteHeader,
    MANAGEMENT_PKEY,
    TrapMAD,
)
from repro.iba.types import LID, QPN
from repro.sim.config import SimConfig
from repro.sim.runner import build_experiment
from repro.sim.trace import Tracer

from tests.conftest import make_grh_packet, make_packet


class TestLRH:
    def test_size(self):
        lrh = LocalRouteHeader(vl=3, service_level=2, dlid=LID(5), slid=LID(9), packet_length=100)
        assert len(lrh.pack()) == 8

    def test_fields_roundtrip_in_bytes(self):
        lrh = LocalRouteHeader(vl=3, service_level=2, dlid=LID(0x1234), slid=LID(0x5678), packet_length=0x2AB)
        raw = lrh.pack()
        assert raw[0] >> 4 == 3  # VL nibble
        assert raw[2:4] == b"\x12\x34"
        assert raw[6:8] == b"\x56\x78"

    def test_invariant_masks_vl(self):
        a = LocalRouteHeader(vl=0, service_level=1, dlid=LID(1), slid=LID(2), packet_length=10)
        b = LocalRouteHeader(vl=7, service_level=1, dlid=LID(1), slid=LID(2), packet_length=10)
        assert a.pack() != b.pack()
        assert a.pack_invariant() == b.pack_invariant()


class TestBTH:
    def test_size(self):
        bth = BaseTransportHeader(opcode=0x64, pkey=PKey(0x8001), dest_qp=QPN(0x123456), psn=0xABCDEF)
        assert len(bth.pack()) == 12

    def test_pkey_on_wire(self):
        bth = BaseTransportHeader(opcode=0, pkey=PKey(0x8001), dest_qp=QPN(1), psn=0)
        assert bth.pack()[2:4] == b"\x80\x01"

    def test_dest_qp_24bit(self):
        bth = BaseTransportHeader(opcode=0, pkey=PKey(1), dest_qp=QPN(0xABCDEF), psn=0)
        raw = bth.pack()
        assert raw[5:8] == b"\xab\xcd\xef"

    def test_reserved_auth_is_variant(self):
        """The auth-function selector must NOT change the invariant bytes —
        that is what lets the paper reuse the ICRC field compatibly."""
        a = BaseTransportHeader(opcode=0, pkey=PKey(1), dest_qp=QPN(1), psn=5, reserved_auth=0)
        b = BaseTransportHeader(opcode=0, pkey=PKey(1), dest_qp=QPN(1), psn=5, reserved_auth=3)
        assert a.pack() != b.pack()
        assert a.pack_invariant() == b.pack_invariant()

    def test_psn_on_wire(self):
        bth = BaseTransportHeader(opcode=0, pkey=PKey(1), dest_qp=QPN(1), psn=0x123456)
        assert bth.pack()[9:12] == b"\x12\x34\x56"


class TestDETH:
    def test_size(self):
        deth = DatagramExtendedHeader(qkey=QKey(5), src_qp=QPN(7))
        assert len(deth.pack()) == 8

    def test_qkey_and_srcqp(self):
        deth = DatagramExtendedHeader(qkey=QKey(0xCAFEBABE), src_qp=QPN(0x010203))
        raw = deth.pack()
        assert raw[:4] == b"\xca\xfe\xba\xbe"
        assert raw[5:8] == b"\x01\x02\x03"

    def test_all_invariant(self):
        deth = DatagramExtendedHeader(qkey=QKey(1), src_qp=QPN(2))
        assert deth.pack() == deth.pack_invariant()


class TestDataPacket:
    def test_properties(self):
        p = make_packet(src=3, dst=9, pkey=PKey(0x8002), qkey=QKey(77), dest_qp=5, src_qp=6)
        assert int(p.src) == 3 and int(p.dst) == 9
        assert p.pkey == PKey(0x8002)
        assert p.qkey == QKey(77)
        assert int(p.src_qp) == 6

    def test_invariant_bytes_exclude_variant_fields(self):
        a = make_packet(vl=0)
        b = make_packet(vl=1)
        b.bth.reserved_auth = 9
        assert a.invariant_bytes() == b.invariant_bytes()

    def test_invariant_bytes_cover_payload(self):
        a = make_packet(payload=b"aaaa")
        b = make_packet(payload=b"aaab")
        assert a.invariant_bytes() != b.invariant_bytes()

    def test_invariant_bytes_cover_addresses(self):
        assert make_packet(dst=2).invariant_bytes() != make_packet(dst=3).invariant_bytes()

    def test_variant_bytes_include_icrc(self):
        p = make_packet()
        p.icrc = 0x11111111
        v1 = p.variant_bytes()
        p.icrc = 0x22222222
        assert v1 != p.variant_bytes()

    def test_nonce_unique_per_psn_and_source(self):
        a = make_packet(src=1, src_qp=5, psn=10)
        b = make_packet(src=1, src_qp=5, psn=11)
        c = make_packet(src=2, src_qp=5, psn=10)
        assert len({a.nonce, b.nonce, c.nonce}) == 3

    def test_run_numbers_its_packets_from_one(self):
        assert make_packet().packet_id == 0  # built outside any fabric
        cfg = SimConfig(
            mesh_width=2, mesh_height=2, num_partitions=1, sim_time_us=100.0,
            warmup_us=0.0,
        )
        for _ in range(2):  # every run, whatever ran before in the process
            tracer = Tracer()
            engine, fabric, *_ = build_experiment(cfg, tracer=tracer)
            engine.run(until=cfg.sim_time_ps)
            created = [e.packet_id for e in tracer.of_kind("created")]
            assert created and created == list(range(1, fabric.packet_ids.last + 1))

    def test_rc_packet_has_no_deth(self):
        p = make_packet()
        p.deth = None
        assert p.qkey is None
        assert p.src_qp is None
        # invariant bytes still computable
        assert isinstance(p.invariant_bytes(), bytes)


def fresh_clone(p: DataPacket) -> DataPacket:
    """An identical packet built from p's *current* field values, with
    brand-new header objects."""
    return replace(
        p,
        lrh=replace(p.lrh),
        bth=replace(p.bth),
        deth=replace(p.deth) if p.deth is not None else None,
        grh=replace(p.grh) if p.grh is not None else None,
    )


#: (name, mutator) — one per mutable field the fabric actually touches.
MUTATIONS = [
    ("lrh.vl", lambda p: setattr(p.lrh, "vl", 1)),
    ("lrh.service_level", lambda p: setattr(p.lrh, "service_level", 3)),
    ("lrh.dlid", lambda p: setattr(p.lrh, "dlid", LID(9))),
    ("lrh.slid", lambda p: setattr(p.lrh, "slid", LID(8))),
    ("lrh.packet_length", lambda p: setattr(p.lrh, "packet_length", 77)),
    ("bth.opcode", lambda p: setattr(p.bth, "opcode", 0x04)),
    ("bth.pkey", lambda p: setattr(p.bth, "pkey", PKey(0x8002))),
    ("bth.dest_qp", lambda p: setattr(p.bth, "dest_qp", QPN(0x200))),
    ("bth.psn", lambda p: setattr(p.bth, "psn", p.bth.psn + 5)),
    ("bth.reserved_auth", lambda p: setattr(p.bth, "reserved_auth", 3)),
    ("bth.pad_count", lambda p: setattr(p.bth, "pad_count", 2)),
    ("deth.qkey", lambda p: setattr(p.deth, "qkey", QKey(0x999))),
    ("deth.src_qp", lambda p: setattr(p.deth, "src_qp", QPN(0x155))),
    ("grh.hop_limit", lambda p: setattr(p.grh, "hop_limit", p.grh.hop_limit - 3)),
    ("grh.flow_label", lambda p: setattr(p.grh, "flow_label", 0x222)),
    ("grh.traffic_class", lambda p: setattr(p.grh, "traffic_class", 7)),
    ("grh.dst_gid", lambda p: setattr(p.grh, "dst_gid", bytes(16))),
    ("payload", lambda p: setattr(p, "payload", b"entirely new payload")),
    ("icrc", lambda p: setattr(p, "icrc", p.icrc ^ 0xDEAD)),
    (
        "grh replacement",
        lambda p: setattr(
            p, "grh",
            GlobalRouteHeader(src_gid=bytes(16), dst_gid=bytes(range(16))),
        ),
    ),
    (
        "bth replacement",
        lambda p: setattr(
            p, "bth",
            BaseTransportHeader(opcode=0x64, pkey=PKey(0x8003), dest_qp=QPN(5), psn=42),
        ),
    ),
    ("grh removal", lambda p: setattr(p, "grh", None)),
]


class TestMutation:
    """Every field the fabric writes after a packet is stamped shows up in
    the covered bytes and CRCs exactly as in a freshly built packet."""

    @pytest.mark.parametrize("name,mutate", MUTATIONS, ids=[m[0] for m in MUTATIONS])
    def test_mutated_packet_matches_fresh_packet(self, name, mutate):
        p = ibacrc.stamp(make_grh_packet())
        before = (p.invariant_bytes(), p.variant_bytes())
        mutate(p)
        q = fresh_clone(p)
        assert (p.invariant_bytes(), p.variant_bytes()) != before
        assert p.invariant_bytes() == q.invariant_bytes()
        assert p.variant_bytes() == q.variant_bytes()
        assert ibacrc.icrc(p) == ibacrc.icrc(q)
        assert ibacrc.vcrc(p) == ibacrc.vcrc(q)

    def test_headers_round_trip_through_pack_after_mutation(self):
        p = make_grh_packet()
        p.lrh.vl = 2
        p.bth.psn += 9
        p.deth.qkey = QKey(0xABCD)
        p.grh.hop_limit = 17
        assert LocalRouteHeader.unpack(p.lrh.pack()) == p.lrh
        assert BaseTransportHeader.unpack(p.bth.pack()) == p.bth
        assert DatagramExtendedHeader.unpack(p.deth.pack()) == p.deth
        assert GlobalRouteHeader.unpack(p.grh.pack()) == p.grh


def _oracle_headers(p: DataPacket, masked: bool) -> bytes:
    """The per-header pack-and-mask join, written out field by field the
    way the headers were once packed: each header on its own, variant
    fields masked to ones afterwards in a byte array."""
    lrh, bth, deth, grh = p.lrh, p.bth, p.deth, p.grh
    out = bytearray(struct.pack(
        ">BBHHH",
        (lrh.vl & 0xF) << 4,
        ((lrh.service_level & 0xF) << 4) | (lrh.link_next_header & 0x3),
        lrh.dlid & 0xFFFF, lrh.packet_length & 0x7FF, lrh.slid & 0xFFFF,
    ))
    if masked:
        out[0] |= 0xF0
    if grh is not None:
        g = bytearray(struct.pack(
            ">IHBB",
            (6 << 28) | ((grh.traffic_class & 0xFF) << 20)
            | (grh.flow_label & 0xFFFFF),
            grh.payload_length & 0xFFFF, grh.next_header & 0xFF,
            grh.hop_limit & 0xFF,
        ) + grh.src_gid + grh.dst_gid)
        if masked:
            g[0] |= 0x0F
            g[1] = g[2] = g[3] = g[7] = 0xFF
        out += g
    flags = (
        (0x80 if bth.solicited else 0) | (0x40 if bth.migreq else 0)
        | ((bth.pad_count & 0x3) << 4)
    )
    b = bytearray(struct.pack(
        ">BBHBBBBBBH",
        bth.opcode & 0xFF, flags, bth.pkey.value, bth.reserved_auth & 0xFF,
        (bth.dest_qp >> 16) & 0xFF, (bth.dest_qp >> 8) & 0xFF,
        bth.dest_qp & 0xFF, 0, (bth.psn >> 16) & 0xFF, bth.psn & 0xFFFF,
    ))
    if masked:
        b[4] = 0xFF
    out += b
    if deth is not None:
        out += struct.pack(
            ">IBBBB", deth.qkey.value, 0, (deth.src_qp >> 16) & 0xFF,
            (deth.src_qp >> 8) & 0xFF, deth.src_qp & 0xFF,
        )
    return bytes(out)


def _bits(n: int):
    """Values of an *n*-bit field plus up to two bits above it, which
    serialization must mask off."""
    return st.integers(0, (1 << (n + 2)) - 1)


@st.composite
def packets(draw, with_grh: bool, with_deth: bool) -> DataPacket:
    """A packet of the given layout with every header field random."""
    lrh = LocalRouteHeader(
        vl=draw(_bits(4)), service_level=draw(_bits(4)),
        dlid=LID(draw(_bits(16))), slid=LID(draw(_bits(16))),
        packet_length=draw(_bits(11)), link_next_header=draw(_bits(2)),
    )
    bth = BaseTransportHeader(
        opcode=draw(_bits(8)), pkey=PKey(draw(st.integers(0, 0xFFFF))),
        dest_qp=QPN(draw(_bits(24))), psn=draw(_bits(24)),
        reserved_auth=draw(_bits(8)), solicited=draw(st.booleans()),
        migreq=draw(st.booleans()), pad_count=draw(_bits(2)),
    )
    deth = None
    if with_deth:
        deth = DatagramExtendedHeader(
            qkey=QKey(draw(st.integers(0, 0xFFFFFFFF))),
            src_qp=QPN(draw(_bits(24))),
        )
    grh = None
    if with_grh:
        grh = GlobalRouteHeader(
            src_gid=draw(st.binary(min_size=16, max_size=16)),
            dst_gid=draw(st.binary(min_size=16, max_size=16)),
            traffic_class=draw(_bits(8)), flow_label=draw(_bits(20)),
            payload_length=draw(_bits(16)), next_header=draw(_bits(8)),
            hop_limit=draw(_bits(8)),
        )
    return DataPacket(
        lrh=lrh, bth=bth, deth=deth, grh=grh,
        payload=draw(st.binary(max_size=64)), wire_length=1058,
        icrc=draw(st.integers(0, 0xFFFFFFFF)),
    )


#: (GRH present, DETH present): local UD, local RC, global UD, global RC.
LAYOUTS = [(False, True), (False, False), (True, True), (True, False)]
LAYOUT_IDS = ["ud", "rc", "ud_grh", "rc_grh"]


class TestSerializerAgainstOracle:
    """``invariant_bytes``/``variant_bytes`` pack each layout in one struct
    call; they must equal the per-header join on every field value."""

    @pytest.mark.parametrize("with_grh,with_deth", LAYOUTS, ids=LAYOUT_IDS)
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_covered_bytes_equal_the_join(self, with_grh, with_deth, data):
        p = data.draw(packets(with_grh, with_deth))
        assert p.invariant_bytes() == _oracle_headers(p, masked=True) + p.payload
        assert p.variant_bytes() == (
            _oracle_headers(p, masked=False) + p.payload + p.icrc.to_bytes(4, "big")
        )

    @pytest.mark.parametrize("with_grh,with_deth", LAYOUTS, ids=LAYOUT_IDS)
    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_headers_pack_like_the_join(self, with_grh, with_deth, data):
        p = data.draw(packets(with_grh, with_deth))
        headers = [p.lrh] + ([p.grh] if with_grh else []) + [p.bth]
        headers += [p.deth] if with_deth else []
        assert b"".join(h.pack() for h in headers) == _oracle_headers(p, False)
        assert (
            b"".join(h.pack_invariant() for h in headers)
            == _oracle_headers(p, True)
        )

    @pytest.mark.parametrize("with_deth", [True, False], ids=["ud", "rc"])
    @given(
        slid=st.integers(0, 0xFFFF), src_qp=st.integers(0, 0xFFFFFF),
        psn=_bits(24),
    )
    def test_nonce_is_its_definition(self, with_deth, slid, src_qp, psn):
        p = make_packet(src=slid, src_qp=src_qp, psn=psn)
        if not with_deth:
            p.deth = None
            src_qp = 0
        assert p.nonce == (slid << 40) | (src_qp << 24) | (psn & 0xFFFFFF)


class TestConstants:
    def test_ud_overhead(self):
        # LRH 8 + BTH 12 + DETH 8 + ICRC 4 + VCRC 2
        assert LOCAL_UD_OVERHEAD == 34

    def test_rc_overhead(self):
        assert LOCAL_RC_OVERHEAD == 26

    def test_management_pkey_is_default(self):
        assert MANAGEMENT_PKEY.value == 0xFFFF


class TestTrapMAD:
    def test_fields(self):
        t = TrapMAD(reporter=LID(1), offender=LID(2), bad_pkey=PKey(0x7000))
        assert t.wire_length == 256
        assert t.bad_pkey.index == 0x7000
