"""ICRC/VCRC over packets: coverage rules, hop-invariance, tamper detection."""

from repro.iba import crc as ibacrc
from repro.iba.packet import DataPacket

from tests.conftest import make_grh_packet, make_packet


class TestICRC:
    def test_stamp_then_verify(self):
        p = ibacrc.stamp(make_packet())
        assert ibacrc.verify_icrc(p)

    def test_tamper_payload_detected(self):
        p = ibacrc.stamp(make_packet(payload=b"original!"))
        p.payload = b"tampered!"
        assert not ibacrc.verify_icrc(p)

    def test_tamper_pkey_detected(self):
        from repro.iba.keys import PKey

        p = ibacrc.stamp(make_packet())
        p.bth.pkey = PKey(0x8002)
        assert not ibacrc.verify_icrc(p)

    def test_invariant_across_vl_rewrite(self):
        """A switch may remap the VL in flight; the ICRC must not change —
        that end-to-end invariance is why the field can hold an end-to-end
        authentication tag."""
        p = ibacrc.stamp(make_packet(vl=0))
        original = p.icrc
        p.lrh.vl = 1  # variant-field rewrite in a switch
        assert ibacrc.icrc(p) == original
        assert ibacrc.verify_icrc(p)

    def test_invariant_across_auth_selector(self):
        p = ibacrc.stamp(make_packet())
        original = p.icrc
        p.bth.reserved_auth = 4
        assert ibacrc.icrc(p) == original

    def test_icrc_is_32bit(self):
        p = ibacrc.stamp(make_packet())
        assert 0 <= p.icrc <= 0xFFFFFFFF


class TestGRHCoverage:
    def test_icrc_covers_gids(self):
        a = ibacrc.stamp(make_grh_packet())
        b = make_grh_packet()
        b.grh.dst_gid = bytes(16)
        ibacrc.stamp(b)
        assert a.icrc != b.icrc

    def test_icrc_ignores_hop_limit_decrement(self):
        """A router decrements hop limit in flight; the end-to-end ICRC/AT
        must survive it (hop limit is masked like the LRH VL)."""
        p = ibacrc.stamp(make_grh_packet())
        p.grh.hop_limit -= 3
        assert ibacrc.verify_icrc(p)

    def test_vcrc_covers_hop_limit(self):
        p = ibacrc.stamp(make_grh_packet())
        p.grh.hop_limit -= 1
        assert not ibacrc.verify_vcrc(p)

    def test_mac_over_global_packet(self):
        import random

        from repro.core.auth import MacAuthService, auth_function_for
        from repro.core.keymgmt import NodeDirectory, PartitionLevelKeyManager
        from repro.sim.config import AuthMode

        rng = random.Random(0)
        directory = NodeDirectory.for_nodes([1, 2], rng, bits=256)
        mgr = PartitionLevelKeyManager(directory, rng)
        mgr.create_partition_key(1, {1, 2})
        svc = MacAuthService(auth_function_for(AuthMode.UMAC), mgr)

        class Stub:
            def __init__(self, lid):
                self.lid = lid

        p = make_grh_packet()
        svc.prepare(p, Stub(1))
        p.grh.hop_limit -= 2  # in-flight router rewrite
        assert svc.verify(p, Stub(2))
        p.grh.dst_gid = bytes(16)  # tampering with an invariant field
        assert not svc.verify(p, Stub(2))


class TestVCRC:
    def test_stamp_then_verify(self):
        p = ibacrc.stamp(make_packet())
        assert ibacrc.verify_vcrc(p)

    def test_covers_variant_fields(self):
        """VL rewrite must invalidate the VCRC (it is recomputed per hop)."""
        p = ibacrc.stamp(make_packet(vl=0))
        p.lrh.vl = 1
        assert not ibacrc.verify_vcrc(p)
        p.vcrc = ibacrc.vcrc(p)  # the switch recomputes
        assert ibacrc.verify_vcrc(p)

    def test_covers_icrc_field(self):
        p = ibacrc.stamp(make_packet())
        p.icrc ^= 1
        assert not ibacrc.verify_vcrc(p)

    def test_is_16bit(self):
        p = ibacrc.stamp(make_packet())
        assert 0 <= p.vcrc <= 0xFFFF


class TestLPCRC:
    def test_deterministic(self):
        assert ibacrc.lpcrc(b"flow-control") == ibacrc.lpcrc(b"flow-control")

    def test_detects_change(self):
        assert ibacrc.lpcrc(b"credits=1") != ibacrc.lpcrc(b"credits=2")


class TestCRC16Implementations:
    """The table-driven CRC-16 against its bit-serial oracle."""

    def test_poly_is_reflection_of_iba_generator(self):
        # 0xD008 documents itself as the bit-reversal of the IBA VCRC
        # generator x^16 + x^12 + x^3 + x + 1 (0x100B) — hold it to that.
        assert int(f"{0x100B:016b}"[::-1], 2) == ibacrc._VCRC_POLY

    def test_table_matches_bitwise_oracle_on_random_inputs(self):
        import random

        rng = random.Random(0x1BA)
        for _ in range(300):
            data = rng.randbytes(rng.randrange(0, 80))
            init = rng.randrange(0, 0x10000)
            assert ibacrc._crc16_table(data, init) == ibacrc._crc16_bitwise(data, init)

    def test_continuation_fold_equals_one_shot(self):
        """CRC-16 linearity: crc16(a+b) == crc16(b, crc16(a))."""
        import random

        rng = random.Random(31)
        for _ in range(100):
            data = rng.randbytes(rng.randrange(1, 64))
            cut = rng.randrange(0, len(data) + 1)
            folded = ibacrc._crc16_table(data[cut:], ibacrc._crc16_table(data[:cut]))
            assert folded == ibacrc._crc16_table(data)

    def test_vcrc_matches_bitwise_oracle_on_packet_bytes(self):
        packet = ibacrc.stamp(make_packet(psn=9))
        assert ibacrc.vcrc(packet) == ibacrc._crc16_bitwise(packet.variant_bytes())


class TestWireKnownAnswers:
    """Covered bytes and CRCs of two stamped packets, pinned: the direct
    guard on serialization (no golden case carries a GRH)."""

    def test_local_packet(self):
        p = ibacrc.stamp(make_packet(psn=9))
        assert p.invariant_bytes().hex() == (
            "f00200020109000164008001ff000102000000090000123400000101"
            "7061796c6f61642d6279746573"
        )
        assert p.variant_bytes().hex() == (
            "000200020109000164008001000001020000000900001234000001017061796c"
            "6f61642d6279746573dd47022c"
        )
        assert ibacrc.icrc(p) == 0xDD47022C
        assert ibacrc.vcrc(p) == 0x13C3

    def test_grh_packet(self):
        p = ibacrc.stamp(make_grh_packet())
        assert p.invariant_bytes().hex() == (
            "f0020002010900016fffffff00001bff000102030405060708090a0b0c0d0e0f"
            "101112131415161718191a1b1c1d1e1f64008001ff0001020000000000001234"
            "000001017061796c6f61642d6279746573"
        )
        assert p.variant_bytes().hex() == (
            "00020002010900016000011100001b40000102030405060708090a0b0c0d0e0f"
            "101112131415161718191a1b1c1d1e1f64008001000001020000000000001234"
            "000001017061796c6f61642d627974657369a24cb8"
        )
        assert ibacrc.icrc(p) == 0x69A24CB8
        assert ibacrc.vcrc(p) == 0x383D
