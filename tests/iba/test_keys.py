"""IBA key semantics: P_Key membership matching, M/B_Key gates, Q_Key
controlled bit, memory keys, and KeySet behaviour."""

import pytest
from hypothesis import given, strategies as st

from repro.iba.keys import BKey, KeySet, MKey, MemoryKey, PKey, QKey


class TestPKey:
    def test_index_and_membership(self):
        full = PKey(0x8005)
        limited = PKey(0x0005)
        assert full.index == 5 and limited.index == 5
        assert full.full_member and not limited.full_member

    def test_matching_full_full(self):
        assert PKey(0x8005).matches(PKey(0x8005))

    def test_matching_full_limited(self):
        assert PKey(0x8005).matches(PKey(0x0005))
        assert PKey(0x0005).matches(PKey(0x8005))

    def test_limited_limited_rejected(self):
        """Two limited members may not communicate (IBA partition rule)."""
        assert not PKey(0x0005).matches(PKey(0x0005))

    def test_different_index_rejected(self):
        assert not PKey(0x8005).matches(PKey(0x8006))

    def test_as_full_as_limited(self):
        p = PKey(0x0007)
        assert p.as_full().full_member
        assert not p.as_full().as_limited().full_member
        assert p.as_full().index == 7

    def test_range_check(self):
        with pytest.raises(ValueError):
            PKey(0x10000)
        with pytest.raises(ValueError):
            PKey(-1)

    def test_default_partition(self):
        assert PKey.DEFAULT == 0xFFFF
        assert PKey(PKey.DEFAULT).full_member

    def test_to_bytes(self):
        assert PKey(0x8001).to_bytes() == b"\x80\x01"

    def test_hashable_and_ordered(self):
        s = {PKey(1), PKey(1), PKey(2)}
        assert len(s) == 2
        assert sorted(s) == [PKey(1), PKey(2)]


class TestQKey:
    def test_controlled_bit(self):
        assert QKey(0x80000001).controlled
        assert not QKey(0x00000001).controlled

    def test_range(self):
        with pytest.raises(ValueError):
            QKey(2**32)

    def test_to_bytes(self):
        assert QKey(0xDEADBEEF).to_bytes() == b"\xde\xad\xbe\xef"


class TestManagementKeys:
    def test_mkey_match(self):
        gate = MKey(0x1122)
        assert gate.permits(MKey(0x1122))
        assert not gate.permits(MKey(0x1123))
        assert not gate.permits(None)

    def test_mkey_zero_is_unprotected(self):
        assert MKey(0).permits(None)
        assert MKey(0).permits(MKey(999))

    def test_bkey_same_semantics(self):
        gate = BKey(5)
        assert gate.permits(BKey(5))
        assert not gate.permits(BKey(6))
        assert BKey(0).permits(None)

    def test_64bit_range(self):
        with pytest.raises(ValueError):
            MKey(2**64)
        with pytest.raises(ValueError):
            BKey(-1)


class TestMemoryKey:
    def test_rkey_flag(self):
        assert MemoryKey(1, remote=True).remote
        assert not MemoryKey(1).remote

    def test_range(self):
        with pytest.raises(ValueError):
            MemoryKey(2**32)


class TestKeySet:
    def test_grant_and_match(self):
        ks = KeySet()
        ks.grant_pkey(PKey(0x8003))
        assert ks.has_matching_pkey(PKey(0x0003))
        assert not ks.has_matching_pkey(PKey(0x0004))

    def test_empty_matches_nothing(self):
        assert not KeySet().has_matching_pkey(PKey(0x8001))

    def test_secret_keys_storage(self):
        ks = KeySet()
        ks.secret_keys[("pkey", 3)] = b"secret"
        assert ks.secret_keys[("pkey", 3)] == b"secret"


#: P_Keys over a few indices, full and limited, so drawn sets and packet
#: keys often share an index.
few_pkeys = st.builds(
    lambda index, full: PKey(index | (PKey.FULL_MEMBER_BIT if full else 0)),
    st.sampled_from([0x0001, 0x0002, 0x7FFF]),
    st.booleans(),
)


class TestHasMatchingPKeyProperty:
    @given(held=st.sets(few_pkeys, max_size=6), pkey=few_pkeys)
    def test_agrees_with_the_matching_rule(self, held, pkey):
        """The fast path never changes the answer: a packet key matches
        iff some held key matches it under the IBA rule."""
        expected = any(own.matches(pkey) for own in held)
        assert KeySet(pkeys=set(held)).has_matching_pkey(pkey) == expected
