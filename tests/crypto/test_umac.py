"""UMAC: determinism, key/nonce separation, tamper detection, NH/poly layer
behaviour, and the tag-size contract for the ICRC field."""

import pytest

from repro.crypto.umac import UMAC, umac32, _nh, _nh_keywords, _poly, _P61

KEY = b"0123456789abcdef"


class TestBasicContract:
    def test_tag_is_32_bits(self):
        mac = UMAC(KEY)
        for nonce in (0, 1, 2**40):
            t = mac.tag(b"message", nonce)
            assert 0 <= t <= 0xFFFFFFFF

    def test_deterministic(self):
        assert umac32(KEY, b"hello", 7) == umac32(KEY, b"hello", 7)

    def test_verify_roundtrip(self):
        mac = UMAC(KEY)
        t = mac.tag(b"payload", nonce=42)
        assert mac.verify(b"payload", 42, t)

    def test_empty_key_rejected(self):
        with pytest.raises(ValueError):
            UMAC(b"")

    def test_empty_message_ok(self):
        mac = UMAC(KEY)
        t = mac.tag(b"", 1)
        assert mac.verify(b"", 1, t)

    def test_forgery_bound_constant(self):
        assert UMAC.forgery_probability == 2.0**-30


class TestKnownAnswers:
    """Tags pinned from the pure-Python key schedule.  Golden report digests
    cannot see a changed MAC (sender and receiver compute the same function,
    so every counter stays equal); these can."""

    @pytest.mark.parametrize(
        "key,message,nonce,expected",
        [
            (b"sixteen byte key", b"", 0, 0xBE38A6D6),
            (b"sixteen byte key", b"message", 1, 0xC55E8E94),
            (b"k", b"abc" * 7, 2**64 - 1, 0x08CF6FFB),
            # 1280 bytes: two NH blocks.
            (b"\x00" * 16, bytes(range(256)) * 5, 0x0123456789ABCDEF, 0xEF64174F),
        ],
    )
    def test_umac32(self, key, message, nonce, expected):
        assert umac32(key, message, nonce) == expected


class TestSeparation:
    def test_wrong_message_fails(self):
        mac = UMAC(KEY)
        t = mac.tag(b"payload", 1)
        assert not mac.verify(b"payloae", 1, t)

    def test_wrong_nonce_fails(self):
        mac = UMAC(KEY)
        t = mac.tag(b"payload", 1)
        assert not mac.verify(b"payload", 2, t)

    def test_wrong_key_fails(self):
        t = UMAC(KEY).tag(b"payload", 1)
        assert not UMAC(b"another-key-....").verify(b"payload", 1, t)

    def test_single_bit_flip_changes_tag(self):
        mac = UMAC(KEY)
        base = bytearray(b"\x00" * 200)
        t0 = mac.tag(bytes(base), 5)
        flips = 0
        for pos in range(0, 200, 13):
            tampered = bytearray(base)
            tampered[pos] ^= 0x01
            if mac.tag(bytes(tampered), 5) != t0:
                flips += 1
        assert flips == len(range(0, 200, 13))

    def test_nonce_masks_hash(self):
        # Same message, different nonces: tags differ (Carter-Wegman mask).
        mac = UMAC(KEY)
        tags = {mac.tag(b"same", n) for n in range(32)}
        assert len(tags) > 28  # essentially all distinct


class TestLengthHandling:
    @pytest.mark.parametrize("size", [0, 1, 7, 8, 9, 1023, 1024, 1025, 3000])
    def test_various_sizes_verify(self, size):
        mac = UMAC(KEY)
        msg = bytes((i * 11) & 0xFF for i in range(size))
        assert mac.verify(msg, size, mac.tag(msg, size))

    def test_zero_padding_not_ambiguous(self):
        # A message and the same message with a trailing zero byte must tag
        # differently (length is folded into NH).
        mac = UMAC(KEY)
        assert mac.tag(b"\x01\x02\x03", 9) != mac.tag(b"\x01\x02\x03\x00", 9)

    def test_block_boundary_distinct(self):
        mac = UMAC(KEY)
        a = bytes(1024)
        b = bytes(1025)
        assert mac.tag(a, 1) != mac.tag(b, 1)


class TestInternals:
    def test_nh_is_deterministic(self):
        kw = _nh_keywords(KEY)
        assert _nh(b"block" * 10, kw) == _nh(b"block" * 10, kw)

    def test_nh_64bit_range(self):
        kw = _nh_keywords(KEY)
        v = _nh(bytes(range(64)), kw)
        assert 0 <= v < 2**64

    def test_poly_in_field(self):
        assert 0 <= _poly([1, 2, 3], 12345) < _P61

    def test_poly_order_sensitive(self):
        kp = 987654321
        assert _poly([1, 2], kp) != _poly([2, 1], kp)

    def test_poly_empty_differs_from_zero(self):
        kp = 987654321
        assert _poly([], kp) != _poly([0], kp)

    def test_hash_ignores_nonce(self):
        mac = UMAC(KEY)
        assert mac.hash(b"m") == mac.hash(b"m")
