"""SHA-1 against FIPS 180-1 vectors and hashlib.

The one-shot ``sha1`` is hashlib-backed; the vectors run over both it and
the from-scratch ``SHA1`` class, and the hashlib comparisons check ``SHA1``."""

import hashlib

import pytest

from repro.crypto.sha1 import SHA1, sha1

FIPS_VECTORS = [
    (b"abc", "a9993e364706816aba3e25717850c26c9cd0d89d"),
    (
        b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
        "84983e441c3bd26ebaae4aa1f95129e5e54670f1",
    ),
    (b"", "da39a3ee5e6b4b0d3255bfef95601890afd80709"),
]
MILLION_A = "34aa973cd4c4daa4f61eeb2bdbad27316534016f"


class TestFipsVectors:
    @pytest.mark.parametrize("message,expected", FIPS_VECTORS)
    def test_vector(self, message, expected):
        assert sha1(message).hex() == expected

    @pytest.mark.parametrize("message,expected", FIPS_VECTORS)
    def test_reference_vector(self, message, expected):
        assert SHA1(message).hexdigest() == expected

    def test_million_a(self):
        # FIPS 180-1 appendix: one million repetitions of "a".
        assert sha1(b"a" * 1_000_000).hex() == MILLION_A

    def test_reference_million_a(self):
        assert SHA1(b"a" * 1_000_000).hexdigest() == MILLION_A


class TestAgainstHashlib:
    @pytest.mark.parametrize("size", [0, 1, 55, 56, 57, 63, 64, 65, 127, 128, 1000, 4096])
    def test_block_boundaries(self, size):
        data = bytes((i * 7) & 0xFF for i in range(size))
        assert SHA1(data).digest() == hashlib.sha1(data).digest()


class TestIncremental:
    def test_chunked_equals_oneshot(self):
        data = bytes(range(256)) * 10
        h = SHA1()
        for off in range(0, len(data), 23):
            h.update(data[off : off + 23])
        assert h.digest() == sha1(data)

    def test_digest_idempotent(self):
        h = SHA1(b"state")
        assert h.digest() == h.digest()
        h.update(b" more")
        assert h.digest() == sha1(b"state more")

    def test_copy(self):
        h = SHA1(b"abc")
        clone = h.copy()
        h.update(b"def")
        assert clone.digest() == sha1(b"abc")
        assert h.digest() == sha1(b"abcdef")

    def test_metadata(self):
        h = SHA1()
        assert h.digest_size == 20
        assert h.block_size == 64
        assert len(h.digest()) == 20
