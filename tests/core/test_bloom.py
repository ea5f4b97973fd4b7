"""Bloom primitives: double hashing, analytic fp bound, in-packet tags."""

import pytest

from repro.core.bloom import (
    BloomFilter,
    analytic_fp_rate,
    bits_for_fp_rate,
    bloom_positions,
    pack_tag,
)


class TestPositions:
    def test_deterministic(self):
        a = bloom_positions(0x1234, b"salt", 1024, 4)
        b = bloom_positions(0x1234, b"salt", 1024, 4)
        assert a == b

    @pytest.mark.parametrize(
        "args,expected",
        [
            ((0x1234, b"salt", 1024, 4), (832, 93, 378, 663)),
            ((0x12345, b"", 256, 4), (250, 69, 144, 219)),
            ((0xBEEF, b"salt", 4096, 6), (2536, 2747, 2958, 3169, 3380, 3591)),
        ],
    )
    def test_known_answers(self, args, expected):
        """Positions pinned from the pure-Python MD5."""
        assert bloom_positions(*args) == expected

    def test_count_and_range(self):
        for key in range(200):
            pos = bloom_positions(key, b"s", 97, 5)
            assert len(pos) == 5
            assert all(0 <= p < 97 for p in pos)

    def test_salt_changes_positions(self):
        differs = sum(
            bloom_positions(k, b"a", 1024, 4) != bloom_positions(k, b"b", 1024, 4)
            for k in range(50)
        )
        assert differs >= 45  # MD5 over distinct salts: essentially all differ

    def test_key_masked_to_16_bits(self):
        assert bloom_positions(0x12345, b"", 256, 4) == bloom_positions(
            0x2345, b"", 256, 4
        )

    def test_probes_spread_on_even_m(self):
        """h2 is forced odd so the k probes of one key never collapse onto a
        single position when num_bits is even."""
        for key in range(100):
            assert len(set(bloom_positions(key, b"x", 1024, 4))) > 1


class TestAnalyticBound:
    def test_zero_entries_is_zero(self):
        assert analytic_fp_rate(1024, 4, 0) == 0.0

    def test_monotone_in_entries(self):
        rates = [analytic_fp_rate(256, 4, n) for n in (1, 4, 16, 64)]
        assert rates == sorted(rates)
        assert all(0.0 < r < 1.0 for r in rates)

    @pytest.mark.parametrize("fp", [0.5, 0.1, 0.01])
    def test_bits_for_fp_rate_inverts_the_bound(self, fp):
        n, k = 16, 4
        m = bits_for_fp_rate(n, fp, k)
        assert m % 8 == 0 and m >= 8
        assert analytic_fp_rate(m, k, n) <= fp
        if m > 8:  # minimality: one byte fewer would exceed the target
            assert analytic_fp_rate(m - 8, k, n) > fp

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            bits_for_fp_rate(16, 0.0, 4)
        with pytest.raises(ValueError):
            bits_for_fp_rate(16, 1.0, 4)
        with pytest.raises(ValueError):
            bits_for_fp_rate(0, 0.1, 4)

    def test_estimator_matches_analytic_formula(self):
        filt = BloomFilter(256, 4)
        for key in range(10):
            filt.add(key)
        assert filt.estimated_fp_rate() == pytest.approx(
            analytic_fp_rate(256, 4, 10)
        )

    def test_estimator_tracks_empirical_rate(self):
        """The analytic bound must be within 2x of the measured fp rate at a
        parameter point chosen so the expected count is well resolved."""
        filt = BloomFilter(64, 2, salt=b"fp-check")
        members = set(range(8))
        for key in members:
            filt.add(key)
        probes = [k for k in range(100, 2100) if k not in members]
        fp = sum(1 for k in probes if k in filt) / len(probes)
        analytic = filt.estimated_fp_rate()
        assert analytic / 2 <= fp <= analytic * 2


class TestInPacketTag:
    def test_pack_tag_field_layout(self):
        # 1024 bits -> 10-bit fields, most significant position first
        assert pack_tag((1, 2, 3), 1024) == (1 << 20) | (2 << 10) | 3

    def test_roundtrip(self):
        filt = BloomFilter(1024, 4, salt=b"port-secret")
        assert filt.verify_tag(7, filt.tag(7))

    def test_wrong_or_missing_tag_rejected(self):
        filt = BloomFilter(1024, 4, salt=b"port-secret")
        assert not filt.verify_tag(7, filt.tag(7) ^ 1)
        assert not filt.verify_tag(7, None)

    def test_forgery_without_salt_fails(self):
        """A sender that does not hold the port salt cannot mint a valid tag
        (per-guess success probability ~ m^-k)."""
        real = BloomFilter(1024, 4, salt=b"port-secret")
        forger = BloomFilter(1024, 4, salt=b"guessed")
        assert not real.verify_tag(7, forger.tag(7))


class TestFilterOps:
    def test_no_false_negatives(self):
        filt = BloomFilter(128, 3)
        for key in range(50):
            filt.add(key)
        assert all(key in filt for key in range(50))
        assert filt.inserted == 50

    def test_clear_resets_contents_not_identity(self):
        filt = BloomFilter(128, 3)
        filt.add(5)
        assert 5 in filt and filt.bits_set > 0
        filt.clear()
        assert 5 not in filt
        assert filt.bits_set == 0 and filt.inserted == 0

    def test_memory_is_constant(self):
        filt = BloomFilter(1024, 4)
        before = filt.memory_bytes
        for key in range(500):
            filt.add(key)
        assert filt.memory_bytes == before == 128

    def test_ctor_validation(self):
        with pytest.raises(ValueError):
            BloomFilter(4, 4)
        with pytest.raises(ValueError):
            BloomFilter(64, 0)
        with pytest.raises(ValueError):
            BloomFilter(64, 17)
