"""MD5 against RFC 1321 test vectors and hashlib, plus incremental-API
behaviour (chunking, copy, block boundaries).

The one-shot ``md5`` is hashlib-backed; the vectors run over both it and the
from-scratch ``MD5`` class, and the hashlib comparisons check ``MD5``."""

import hashlib

import pytest

from repro.crypto.md5 import MD5, md5

RFC1321_VECTORS = [
    (b"", "d41d8cd98f00b204e9800998ecf8427e"),
    (b"a", "0cc175b9c0f1b6a831c399e269772661"),
    (b"abc", "900150983cd24fb0d6963f7d28e17f72"),
    (b"message digest", "f96b697d7cb7938d525a2f31aaf161d0"),
    (b"abcdefghijklmnopqrstuvwxyz", "c3fcd3d76192e4007dfb496cca67e13b"),
    (
        b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789",
        "d174ab98d277d9f5a5611c2c9f419d9f",
    ),
    (
        b"1234567890" * 8,
        "57edf4a22be3c955ac49da2e2107b67a",
    ),
]


class TestRfcVectors:
    @pytest.mark.parametrize("message,expected", RFC1321_VECTORS)
    def test_vector(self, message, expected):
        assert md5(message).hex() == expected

    @pytest.mark.parametrize("message,expected", RFC1321_VECTORS)
    def test_reference_vector(self, message, expected):
        assert MD5(message).hexdigest() == expected


class TestAgainstHashlib:
    @pytest.mark.parametrize("size", [0, 1, 55, 56, 57, 63, 64, 65, 127, 128, 1000, 4096])
    def test_block_boundaries(self, size):
        data = bytes(i & 0xFF for i in range(size))
        assert MD5(data).digest() == hashlib.md5(data).digest()

    def test_large_input(self):
        data = b"x" * 100_000
        assert MD5(data).digest() == hashlib.md5(data).digest()


class TestIncremental:
    def test_chunked_equals_oneshot(self):
        data = bytes(range(256)) * 10
        h = MD5()
        for off in range(0, len(data), 17):
            h.update(data[off : off + 17])
        assert h.digest() == md5(data)

    def test_digest_does_not_consume_state(self):
        h = MD5(b"abc")
        first = h.digest()
        second = h.digest()
        assert first == second
        h.update(b"def")
        assert h.digest() == md5(b"abcdef")

    def test_copy(self):
        h = MD5(b"abc")
        clone = h.copy()
        h.update(b"!")
        assert clone.digest() == md5(b"abc")

    def test_hexdigest(self):
        assert MD5(b"abc").hexdigest() == "900150983cd24fb0d6963f7d28e17f72"

    def test_metadata(self):
        h = MD5()
        assert h.digest_size == 16
        assert h.block_size == 64
        assert len(h.digest()) == 16
