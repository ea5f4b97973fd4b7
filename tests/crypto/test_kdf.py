"""Key derivation: determinism, domain separation, length handling."""

import random

import pytest

from repro.crypto.kdf import derive_key, fresh_key


class TestDeriveKey:
    def test_deterministic(self):
        assert derive_key(b"master", b"ctx") == derive_key(b"master", b"ctx")

    def test_context_separation(self):
        assert derive_key(b"master", b"partition-1") != derive_key(b"master", b"partition-2")

    def test_master_separation(self):
        assert derive_key(b"m1", b"ctx") != derive_key(b"m2", b"ctx")

    @pytest.mark.parametrize("length", [1, 16, 20, 21, 40, 64, 100])
    def test_lengths(self, length):
        key = derive_key(b"master", b"ctx", length)
        assert len(key) == length

    @pytest.mark.parametrize(
        "master,context,length,expected",
        [
            (b"master-secret", b"pkey:8001", 16, "e16bf7c6c5b06fd1df2037e1248f8b49"),
            (b"m", b"", 1, "71"),
            (
                b"master-secret",
                b"qp:0101:0102:epoch0",
                41,
                "039ff682136cf4a9eaea2aa00fe5edb28d4164a6a44b4dd5d3a1b58ffe0606aa"
                "8e4a6fd064bbdc8c8e",
            ),
        ],
    )
    def test_known_answers(self, master, context, length, expected):
        """Keys pinned from the pure-Python HMAC-SHA1 expansion."""
        assert derive_key(master, context, length).hex() == expected

    def test_prefix_not_shared_across_lengths(self):
        # expanding more material keeps the shared prefix consistent
        short = derive_key(b"m", b"c", 16)
        long = derive_key(b"m", b"c", 32)
        assert long[:16] == short

    def test_zero_length_rejected(self):
        with pytest.raises(ValueError):
            derive_key(b"m", b"c", 0)

    def test_empty_master_rejected(self):
        with pytest.raises(ValueError):
            derive_key(b"", b"c")


class TestFreshKey:
    def test_length(self):
        assert len(fresh_key(random.Random(0))) == 16
        assert len(fresh_key(random.Random(0), 32)) == 32

    def test_seeded_reproducible(self):
        assert fresh_key(random.Random(42)) == fresh_key(random.Random(42))

    def test_distinct_draws(self):
        rng = random.Random(1)
        assert fresh_key(rng) != fresh_key(rng)
