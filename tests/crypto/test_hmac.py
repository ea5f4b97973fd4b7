"""HMAC against RFC 2202 test vectors, the stdlib, and truncation rules.

``hmac_md5``/``hmac_sha1`` are stdlib-backed, so the vectors run over both
them and the from-scratch ``hmac`` over ``MD5``/``SHA1``, and the stdlib
comparisons check the from-scratch one."""

import hashlib
import hmac as stdlib_hmac

import pytest

from repro.crypto.hmac import hmac, hmac_md5, hmac_sha1, tag32
from repro.crypto.md5 import MD5
from repro.crypto.sha1 import SHA1

# RFC 2202 test cases (subset covering the interesting key/message shapes).
RFC2202_MD5 = [
    (b"\x0b" * 16, b"Hi There", "9294727a3638bb1c13f48ef8158bfc9d"),
    (b"Jefe", b"what do ya want for nothing?", "750c783e6ab0b503eaa86e310a5db738"),
    (b"\xaa" * 16, b"\xdd" * 50, "56be34521d144c88dbb8c733f0e8b3f6"),
    (
        b"\xaa" * 80,
        b"Test Using Larger Than Block-Size Key - Hash Key First",
        "6b1ab7fe4bd7bf8f0b62e6ce61b9d0cd",
    ),
]

RFC2202_SHA1 = [
    (b"\x0b" * 20, b"Hi There", "b617318655057264e28bc0b6fb378c8ef146be00"),
    (b"Jefe", b"what do ya want for nothing?", "effcdf6ae5eb2fa2d27416d5f184df9c259a7c79"),
    (b"\xaa" * 20, b"\xdd" * 50, "125d7342b9ac11cd91a39af48aa17b4f63f175d3"),
    (
        b"\xaa" * 80,
        b"Test Using Larger Than Block-Size Key - Hash Key First",
        "aa4ae5e15272d00e95705637ce8a3b55ed402112",
    ),
]


class TestRfc2202:
    @pytest.mark.parametrize("key,msg,expected", RFC2202_MD5)
    def test_hmac_md5(self, key, msg, expected):
        assert hmac_md5(key, msg).hex() == expected

    @pytest.mark.parametrize("key,msg,expected", RFC2202_SHA1)
    def test_hmac_sha1(self, key, msg, expected):
        assert hmac_sha1(key, msg).hex() == expected

    @pytest.mark.parametrize("key,msg,expected", RFC2202_MD5)
    def test_reference_hmac_md5(self, key, msg, expected):
        assert hmac(key, msg, MD5).hex() == expected

    @pytest.mark.parametrize("key,msg,expected", RFC2202_SHA1)
    def test_reference_hmac_sha1(self, key, msg, expected):
        assert hmac(key, msg, SHA1).hex() == expected


class TestAgainstStdlib:
    @pytest.mark.parametrize("key_len", [0, 1, 16, 63, 64, 65, 200])
    @pytest.mark.parametrize("msg_len", [0, 1, 64, 1000])
    def test_sha1_all_shapes(self, key_len, msg_len):
        key = bytes((i * 3) & 0xFF for i in range(key_len))
        msg = bytes((i * 5) & 0xFF for i in range(msg_len))
        assert hmac(key, msg, SHA1) == stdlib_hmac.new(key, msg, hashlib.sha1).digest()

    def test_md5_generic_entry_point(self):
        assert hmac(b"key", b"msg", MD5) == stdlib_hmac.new(b"key", b"msg", hashlib.md5).digest()
        assert hmac(b"key", b"msg", SHA1) == stdlib_hmac.new(b"key", b"msg", hashlib.sha1).digest()


class TestKeySeparation:
    def test_different_keys_different_tags(self):
        assert hmac_sha1(b"k1", b"m") != hmac_sha1(b"k2", b"m")

    def test_different_messages_different_tags(self):
        assert hmac_sha1(b"k", b"m1") != hmac_sha1(b"k", b"m2")

    def test_deterministic(self):
        assert hmac_sha1(b"k", b"m") == hmac_sha1(b"k", b"m")


class TestTag32:
    def test_takes_leading_bytes_big_endian(self):
        assert tag32(b"\x01\x02\x03\x04rest-is-ignored") == 0x01020304

    def test_is_32_bits(self):
        t = tag32(hmac_sha1(b"k", b"m"))
        assert 0 <= t <= 0xFFFFFFFF

    def test_distinct_inputs_distinct_tags(self):
        # not guaranteed in general, but these specific values must differ
        a = tag32(hmac_sha1(b"k", b"m1"))
        b = tag32(hmac_sha1(b"k", b"m2"))
        assert a != b
