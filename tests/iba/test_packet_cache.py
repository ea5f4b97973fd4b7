"""Serialization-cache invalidation: every mutation path must yield exactly
the bytes and CRCs a freshly built packet would.

The fast datapath memoizes packed headers, joined prefixes, full covered
byte strings, and folded CRCs (see ``repro/iba/packet.py`` and
``repro/iba/crc.py``).  These tests mutate every header field *after* the
caches are warm — SIF/switch variant rewrites, PSN/P_Key churn, header
replacement, payload swaps — and compare against a cache-cold clone.
"""

import pytest

from repro.datapath import get_datapath, held
from repro.iba import crc as ibacrc
from repro.iba.keys import PKey, QKey
from repro.iba.packet import (
    BaseTransportHeader,
    DataPacket,
    DatagramExtendedHeader,
    GlobalRouteHeader,
    LocalRouteHeader,
)
from repro.iba.types import LID, QPN
from repro.sim.config import RunModes

from tests.conftest import make_packet


def global_packet() -> DataPacket:
    p = make_packet()
    p.grh = GlobalRouteHeader(
        src_gid=bytes(range(16)), dst_gid=bytes(range(16, 32)),
        hop_limit=64, flow_label=0x111,
    )
    return p


def fresh_clone(p: DataPacket) -> DataPacket:
    """Rebuild an identical packet from p's *current* field values with
    brand-new header objects — i.e. what the caches must be equivalent to."""
    lrh = LocalRouteHeader(
        vl=p.lrh.vl, service_level=p.lrh.service_level, dlid=p.lrh.dlid,
        slid=p.lrh.slid, packet_length=p.lrh.packet_length,
        link_next_header=p.lrh.link_next_header,
    )
    bth = BaseTransportHeader(
        opcode=p.bth.opcode, pkey=p.bth.pkey, dest_qp=p.bth.dest_qp,
        psn=p.bth.psn, reserved_auth=p.bth.reserved_auth,
        solicited=p.bth.solicited, migreq=p.bth.migreq,
        pad_count=p.bth.pad_count,
    )
    deth = (
        DatagramExtendedHeader(qkey=p.deth.qkey, src_qp=p.deth.src_qp)
        if p.deth is not None else None
    )
    grh = (
        GlobalRouteHeader(
            src_gid=p.grh.src_gid, dst_gid=p.grh.dst_gid,
            traffic_class=p.grh.traffic_class, flow_label=p.grh.flow_label,
            payload_length=p.grh.payload_length,
            next_header=p.grh.next_header, hop_limit=p.grh.hop_limit,
        )
        if p.grh is not None else None
    )
    return DataPacket(
        lrh=lrh, bth=bth, deth=deth, grh=grh, payload=p.payload,
        wire_length=p.wire_length, service=p.service,
        traffic_class=p.traffic_class, icrc=p.icrc,
    )


def warm(p: DataPacket) -> None:
    """Fill every cache layer."""
    p.invariant_bytes()
    p.variant_bytes()
    ibacrc.icrc(p)
    ibacrc.vcrc(p)


def assert_matches_fresh(p: DataPacket) -> None:
    q = fresh_clone(p)
    assert p.invariant_bytes() == q.invariant_bytes()
    assert p.variant_bytes() == q.variant_bytes()
    assert ibacrc.icrc(p) == ibacrc.icrc(q)
    assert ibacrc.vcrc(p) == ibacrc.vcrc(q)


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


class TestMutationInvalidation:
    @pytest.mark.parametrize("name,mutate", MUTATIONS, ids=[m[0] for m in MUTATIONS])
    def test_mutation_after_warm_cache_matches_fresh_packet(self, name, mutate):
        p = ibacrc.stamp(global_packet())
        warm(p)
        mutate(p)
        assert_matches_fresh(p)

    def test_mutation_chain_sif_rewrite_then_restamp(self):
        """The in-fabric sequence: stamp → switch VL remap → VCRC restamp →
        auth-selector flip — each step seen through warm caches."""
        p = ibacrc.stamp(make_packet(vl=0))
        warm(p)
        p.lrh.vl = 1  # switch rewrites the (variant) VL
        assert ibacrc.verify_icrc(p)  # end-to-end field unaffected
        assert not ibacrc.verify_vcrc(p)
        p.vcrc = ibacrc.vcrc(p)  # hop restamps
        assert ibacrc.verify_vcrc(p)
        p.bth.reserved_auth = 4  # flip the auth selector (variant)
        assert ibacrc.verify_icrc(p)
        assert_matches_fresh(p)

    def test_psn_churn_across_many_packets(self):
        """PSN increments (the per-packet mutation in every source) must
        never alias a stale cache entry."""
        p = make_packet(psn=0)
        seen = set()
        for psn in range(20):
            p.bth.psn = psn
            ibacrc.stamp(p)
            warm(p)
            seen.add((p.icrc, p.invariant_bytes()))
            assert_matches_fresh(p)
        assert len(seen) == 20  # every PSN produced distinct covered bytes


class TestCacheIdentityStability:
    def test_unmutated_packet_returns_identical_objects(self):
        p = ibacrc.stamp(global_packet())
        inv, var = p.invariant_bytes(), p.variant_bytes()
        assert p.invariant_bytes() is inv  # CRC folding keys on this
        assert p.variant_bytes() is var
        assert p.invariant_prefix() is p.invariant_prefix()

    def test_mutation_yields_new_object(self):
        p = ibacrc.stamp(global_packet())
        inv = p.invariant_bytes()
        p.bth.psn += 1
        assert p.invariant_bytes() is not inv

    def test_header_packed_cache(self):
        lrh = LocalRouteHeader(vl=0, service_level=0, dlid=LID(2), slid=LID(1), packet_length=10)
        first = lrh.packed()
        assert first == lrh.pack()
        assert lrh.packed() is first
        lrh.vl = 3
        assert lrh.packed() == lrh.pack()
        assert lrh.packed() is not first


class TestPackUnpackRoundTrip:
    def test_headers_round_trip_through_cached_bytes_after_mutation(self):
        p = global_packet()
        warm(p)
        p.lrh.vl = 2
        p.bth.psn += 9
        p.deth.qkey = QKey(0xABCD)
        p.grh.hop_limit = 17
        assert LocalRouteHeader.unpack(p.lrh.packed()) == p.lrh
        assert BaseTransportHeader.unpack(p.bth.packed()) == p.bth
        assert DatagramExtendedHeader.unpack(p.deth.packed()) == p.deth
        assert GlobalRouteHeader.unpack(p.grh.packed()) == p.grh


class TestCacheDisabled:
    def test_disabled_mode_is_bit_identical(self):
        p = ibacrc.stamp(global_packet())
        warm(p)
        cached = (p.invariant_bytes(), p.variant_bytes(), ibacrc.icrc(p), ibacrc.vcrc(p))
        with held(RunModes(datapath="reference")):
            assert get_datapath() == "reference"
            uncached = (
                p.invariant_bytes(), p.variant_bytes(),
                ibacrc.icrc(p), ibacrc.vcrc(p),
            )
        assert get_datapath() == "fast"
        assert cached == uncached


class TestAuthTagMemoInvalidation:
    """The prepare→verify MAC memo keys on invariant-bytes identity: any
    covered-field tamper must force a real recomputation (and fail)."""

    def _service(self):
        from repro.core.auth import AUTH_FUNCTIONS, MacAuthService

        class FixedKey:
            def sender_key(self, hca, packet):
                return b"\x17" * 16, 0

            def receiver_key(self, hca, packet):
                return b"\x17" * 16

        return MacAuthService(AUTH_FUNCTIONS[3], FixedKey(), mac_stage_delay_ns=0.0)

    def test_variant_rewrite_keeps_tag_valid(self):
        svc = self._service()
        p = make_packet()
        svc.prepare(p, None)
        p.lrh.vl = 1  # in-flight variant rewrite
        assert svc.verify(p, None)

    def test_invariant_tamper_fails_despite_memo(self):
        svc = self._service()
        p = make_packet()
        svc.prepare(p, None)
        p.bth.pkey = PKey(0x8002)
        assert not svc.verify(p, None)

    def test_payload_tamper_fails_despite_memo(self):
        svc = self._service()
        p = make_packet(payload=b"honest bytes")
        svc.prepare(p, None)
        p.payload = b"forged bytes"
        assert not svc.verify(p, None)
