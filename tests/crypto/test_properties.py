"""Property-based tests (hypothesis) on the crypto substrate.

These pin the algebraic properties the paper's design depends on:
CRC linearity (why CRC is not a MAC), MAC determinism and input
sensitivity, hash/stdlib agreement on arbitrary inputs, RSA round trips,
and XTEA permutation behaviour.

The agreement properties check both hash paths: the stdlib-backed
``md5``/``sha1``/``hmac_md5``/``hmac_sha1`` the simulator calls must equal
the from-scratch ``MD5``/``SHA1``/``hmac`` oracles, which must equal the
stdlib.
"""

import hashlib
import hmac as stdlib_hmac
import zlib

from hypothesis import given, settings, strategies as st

from repro.crypto.crc32 import CRC32, crc32
from repro.crypto.hmac import hmac, hmac_md5, hmac_sha1
from repro.crypto.md5 import MD5, md5
from repro.crypto.sha1 import SHA1, sha1
from repro.crypto.umac import UMAC
from repro.crypto.xtea import XTEA

small_bytes = st.binary(min_size=0, max_size=512)
keys16 = st.binary(min_size=16, max_size=16)


@given(small_bytes)
def test_md5_matches_hashlib(data):
    assert md5(data) == MD5(data).digest() == hashlib.md5(data).digest()


@given(small_bytes)
def test_sha1_matches_hashlib(data):
    assert sha1(data) == SHA1(data).digest() == hashlib.sha1(data).digest()


@given(small_bytes)
def test_crc_matches_zlib(data):
    assert crc32(data) == zlib.crc32(data)


@given(small_bytes, small_bytes)
def test_crc_continuation(a, b):
    assert crc32(b, crc32(a)) == crc32(a + b)


@given(st.binary(min_size=1, max_size=256), st.binary(min_size=1, max_size=256))
def test_crc_linearity(a, b):
    """crc(a^b) == crc(a) ^ crc(b) ^ crc(0) for equal lengths — the property
    that makes CRC forgeable and motivates the ICRC-as-MAC design."""
    n = min(len(a), len(b))
    a, b = a[:n], b[:n]
    xored = bytes(x ^ y for x, y in zip(a, b))
    assert crc32(xored) == crc32(a) ^ crc32(b) ^ crc32(bytes(n))


@given(small_bytes, st.integers(min_value=1, max_value=64))
def test_crc_incremental_chunking(data, chunk):
    eng = CRC32()
    for off in range(0, len(data), chunk):
        eng.update(data[off : off + chunk])
    assert eng.value == crc32(data)


@given(keys16, small_bytes, st.integers(min_value=0, max_value=2**48))
@settings(max_examples=50)
def test_umac_roundtrip(key, message, nonce):
    mac = UMAC(key)
    assert mac.verify(message, nonce, mac.tag(message, nonce))


@given(keys16, small_bytes, st.integers(min_value=0, max_value=2**24), st.integers(min_value=0, max_value=511))
@settings(max_examples=50)
def test_umac_bitflip_detected(key, message, nonce, pos):
    if not message:
        return
    mac = UMAC(key)
    original = mac.tag(message, nonce)
    tampered = bytearray(message)
    tampered[pos % len(message)] ^= 0x01
    # With 32-bit tags a collision is possible but has probability 2^-32;
    # over 50 examples the chance of seeing one is ~1e-8 — treat as failure.
    assert mac.tag(bytes(tampered), nonce) != original


@given(st.binary(min_size=0, max_size=200), st.binary(min_size=0, max_size=300))
@settings(max_examples=100)
def test_hmac_matches_stdlib(key, msg):
    """Keys past 64 bytes take HMAC's hash-the-key branch; messages cross
    block boundaries."""
    expected_md5 = stdlib_hmac.new(key, msg, hashlib.md5).digest()
    expected_sha1 = stdlib_hmac.new(key, msg, hashlib.sha1).digest()
    assert hmac_md5(key, msg) == hmac(key, msg, MD5) == expected_md5
    assert hmac_sha1(key, msg) == hmac(key, msg, SHA1) == expected_sha1


@given(keys16, st.binary(min_size=8, max_size=8))
def test_xtea_is_permutation(key, block):
    cipher = XTEA(key)
    assert cipher.decrypt_block(cipher.encrypt_block(block)) == block


@given(keys16, st.binary(min_size=8, max_size=8), st.binary(min_size=8, max_size=8))
@settings(max_examples=50)
def test_xtea_injective(key, b1, b2):
    if b1 == b2:
        return
    cipher = XTEA(key)
    assert cipher.encrypt_block(b1) != cipher.encrypt_block(b2)
