"""CRC-32 oracle equivalence: the pure table loop, the bit-serial form and
zlib (which :func:`crc32` uses) must agree bit-for-bit on every input,
including continuation folds."""

import importlib
import random
import zlib

# repro.crypto's __init__ re-exports the crc32 *function* under the same
# name as the submodule; resolve the module explicitly.
crcmod = importlib.import_module("repro.crypto.crc32")


def random_blobs(seed, count=200, max_len=96):
    rng = random.Random(seed)
    for _ in range(count):
        yield rng.randbytes(rng.randrange(0, max_len))


class TestBackendAgreement:
    def test_pure_bitwise_zlib_agree_on_random_data(self):
        for data in random_blobs(0xC0FFEE):
            expected = zlib.crc32(data) & 0xFFFFFFFF
            assert crcmod.crc32_pure(data) == expected
            assert crcmod.crc32_bitwise(data) == expected

    def test_agreement_with_running_value(self):
        rng = random.Random(7)
        for data in random_blobs(1):
            value = rng.randrange(0, 1 << 32)
            expected = zlib.crc32(data, value) & 0xFFFFFFFF
            assert crcmod.crc32_pure(data, value) == expected
            assert crcmod.crc32_bitwise(data, value) == expected

    def test_continuation_equals_concatenation(self):
        """The linearity the ICRC fold relies on: crc(a+b) == crc(b, crc(a)),
        even when the two folds run on *different* implementations."""
        rng = random.Random(99)
        for data in random_blobs(2, count=100):
            cut = rng.randrange(0, len(data) + 1)
            a, b = data[:cut], data[cut:]
            whole = crcmod.crc32(data)
            assert crcmod.crc32_pure(data) == whole
            assert crcmod.crc32(b, crcmod.crc32_pure(a)) == whole
            assert crcmod.crc32_pure(b, crcmod.crc32(a)) == whole


class TestIncrementalEngine:
    def test_streaming_equals_one_shot_under_both_backends(self):
        pieces = [b"lrh.....", b"bth.........", b"deth....", b"payload" * 9]
        whole = b"".join(pieces)
        eng = crcmod.CRC32()
        pure = 0
        for piece in pieces:
            eng.update(piece)
            pure = crcmod.crc32_pure(piece, pure)
            assert eng.value == pure
        assert eng.value == crcmod.crc32(whole) == crcmod.crc32_pure(whole)
        assert eng.value == zlib.crc32(whole) & 0xFFFFFFFF
