"""ICRC-as-MAC: the auth-function registry, tag generation/verification for
every algorithm, fallback behaviour, on-demand partitions, forgery odds."""

import random

import pytest

from repro.core import auth
from repro.core.auth import (
    AUTH_FUNCTIONS,
    IcrcAuthService,
    MacAuthService,
    auth_function_for,
)
from repro.core.keymgmt import NodeDirectory, PartitionLevelKeyManager
from repro.iba import crc as ibacrc
from repro.iba.keys import PKey
from repro.sim.config import AuthMode

from tests.conftest import make_packet


class StubHCA:
    def __init__(self, lid):
        self.lid = lid


@pytest.fixture
def keyed_setup():
    """Partition 1 keyed for nodes 1 and 2; node 9 outside."""
    rng = random.Random(0)
    directory = NodeDirectory.for_nodes([1, 2, 9], rng, bits=256)
    mgr = PartitionLevelKeyManager(directory, rng)
    mgr.create_partition_key(1, {1, 2})
    return mgr


class TestRegistry:
    def test_ids_are_nonzero_and_unique(self):
        assert 0 not in AUTH_FUNCTIONS
        assert len({f.ident for f in AUTH_FUNCTIONS.values()}) == len(AUTH_FUNCTIONS)

    def test_all_paper_algorithms_present(self):
        names = {f.name for f in AUTH_FUNCTIONS.values()}
        assert {"umac", "hmac-md5", "hmac-sha1", "pmac", "stream"} <= names

    @pytest.mark.parametrize(
        "mode",
        [AuthMode.UMAC, AuthMode.HMAC_MD5, AuthMode.HMAC_SHA1, AuthMode.PMAC, AuthMode.STREAM],
    )
    def test_mode_mapping(self, mode):
        func = auth_function_for(mode)
        assert func.ident == AUTH_FUNCTIONS[func.ident].ident

    def test_icrc_mode_rejected(self):
        with pytest.raises(ValueError):
            auth_function_for(AuthMode.ICRC)

    @pytest.mark.parametrize("ident", sorted(AUTH_FUNCTIONS))
    def test_compute_is_32bit_and_keyed(self, ident):
        func = AUTH_FUNCTIONS[ident]
        t1 = func.compute(b"k" * 16, b"message", 1)
        t2 = func.compute(b"k" * 16, b"message", 1)
        t3 = func.compute(b"j" * 16, b"message", 1)
        assert 0 <= t1 <= 0xFFFFFFFF
        assert t1 == t2
        assert t1 != t3


class TestKeyedMemo:
    def test_memo_is_bounded(self):
        """Key schedules are memoized per (algorithm, key), but a
        long-lived worker that sees ever more keys keeps at most the bound."""
        umac = AUTH_FUNCTIONS[1]
        try:
            for i in range(auth.KEYED_MEMO_SIZE + 8):
                umac.compute(i.to_bytes(16, "big"), b"message", 0)
            assert auth._keyed.cache_info().currsize <= auth.KEYED_MEMO_SIZE
        finally:
            auth._keyed.cache_clear()


class TestIcrcService:
    def test_prepare_stamps_crc(self):
        svc = IcrcAuthService()
        p = make_packet()
        delay = svc.prepare(p, StubHCA(1))
        assert delay == 0
        assert p.bth.reserved_auth == 0
        assert ibacrc.verify_icrc(p)
        assert svc.verify(p, StubHCA(2))

    def test_detects_corruption_not_forgery(self):
        svc = IcrcAuthService()
        p = make_packet()
        svc.prepare(p, StubHCA(1))
        p.payload = b"tampered....."
        assert not svc.verify(p, StubHCA(2))
        # ...but an adversary just recomputes the CRC — no key needed:
        ibacrc.stamp(p)
        assert svc.verify(p, StubHCA(2))


class TestMacService:
    @pytest.mark.parametrize(
        "mode",
        [AuthMode.UMAC, AuthMode.HMAC_MD5, AuthMode.HMAC_SHA1, AuthMode.PMAC, AuthMode.STREAM],
    )
    def test_roundtrip_each_algorithm(self, keyed_setup, mode):
        svc = MacAuthService(auth_function_for(mode), keyed_setup)
        p = make_packet(pkey=PKey(0x8001))
        svc.prepare(p, StubHCA(1))
        assert p.bth.reserved_auth == auth_function_for(mode).ident
        assert svc.verify(p, StubHCA(2))
        assert svc.tags_generated == 1
        assert svc.tags_verified == 1

    def test_tamper_detected(self, keyed_setup):
        svc = MacAuthService(auth_function_for(AuthMode.UMAC), keyed_setup)
        p = make_packet(pkey=PKey(0x8001))
        svc.prepare(p, StubHCA(1))
        p.payload = b"evil-payload!"
        assert not svc.verify(p, StubHCA(2))
        assert svc.tags_rejected == 1

    def test_forged_plain_icrc_rejected(self, keyed_setup):
        """A forger with the P_Key but no secret can only send reserved=0 +
        CRC; an authenticating receiver must refuse it."""
        svc = MacAuthService(auth_function_for(AuthMode.UMAC), keyed_setup)
        p = ibacrc.stamp(make_packet(pkey=PKey(0x8001)))
        assert p.bth.reserved_auth == 0
        assert not svc.verify(p, StubHCA(2))

    def test_guessed_tag_rejected(self, keyed_setup):
        svc = MacAuthService(auth_function_for(AuthMode.UMAC), keyed_setup)
        func = auth_function_for(AuthMode.UMAC)
        p = make_packet(pkey=PKey(0x8001))
        p.bth.reserved_auth = func.ident
        rng = random.Random(1)
        rejected = 0
        for _ in range(64):
            p.icrc = rng.randrange(2**32)
            if not svc.verify(p, StubHCA(2)):
                rejected += 1
        assert rejected == 64  # 64 guesses at 2^-30 each: all fail

    def test_receiver_without_key_rejects(self, keyed_setup):
        svc = MacAuthService(auth_function_for(AuthMode.UMAC), keyed_setup)
        p = make_packet(pkey=PKey(0x8001))
        svc.prepare(p, StubHCA(1))
        assert not svc.verify(p, StubHCA(9))  # node 9 never got the secret

    def test_sender_without_key_falls_back_to_crc(self, keyed_setup):
        svc = MacAuthService(auth_function_for(AuthMode.UMAC), keyed_setup)
        p = make_packet(pkey=PKey(0x8002))  # partition 2 has no key material
        svc.prepare(p, StubHCA(1))
        assert p.bth.reserved_auth == 0
        assert ibacrc.verify_icrc(p)

    def test_mac_stage_delay(self, keyed_setup):
        svc = MacAuthService(auth_function_for(AuthMode.UMAC), keyed_setup, mac_stage_delay_ns=7.0)
        p = make_packet(pkey=PKey(0x8001))
        delay = svc.prepare(p, StubHCA(1))
        assert delay == 7000  # ps
        assert svc.verify_delay_ps() == 7000


class TestOnDemand:
    """'The administrator can enable authentication only for that partition.'"""

    def test_covered_partition_gets_mac(self, keyed_setup):
        svc = MacAuthService(
            auth_function_for(AuthMode.UMAC), keyed_setup, on_demand_partitions={1}
        )
        p = make_packet(pkey=PKey(0x8001))
        svc.prepare(p, StubHCA(1))
        assert p.bth.reserved_auth != 0
        assert svc.verify(p, StubHCA(2))

    def test_uncovered_partition_plain_icrc(self, keyed_setup):
        svc = MacAuthService(
            auth_function_for(AuthMode.UMAC), keyed_setup, on_demand_partitions={1}
        )
        p = make_packet(pkey=PKey(0x8002))
        svc.prepare(p, StubHCA(1))
        assert p.bth.reserved_auth == 0
        assert svc.verify(p, StubHCA(2))  # ICRC path accepts it

    def test_selector_survives_variant_rewrites(self, keyed_setup):
        """Tag verifies even after a switch rewrites VL (variant field) —
        the invariant-coverage guarantee end to end."""
        svc = MacAuthService(auth_function_for(AuthMode.UMAC), keyed_setup)
        p = make_packet(pkey=PKey(0x8001), vl=0)
        svc.prepare(p, StubHCA(1))
        p.lrh.vl = 1  # in-flight remap
        assert svc.verify(p, StubHCA(2))


class FixedKey:
    """Every sender and receiver holds the same 16-byte key."""

    def sender_key(self, hca, packet):
        return b"\x17" * 16, 0

    def receiver_key(self, hca, packet):
        return b"\x17" * 16


def counting_service(ident: int) -> tuple[MacAuthService, list[int]]:
    """A service over AUTH_FUNCTIONS[ident] whose ``compute`` calls are
    counted in the returned one-element list."""
    func = AUTH_FUNCTIONS[ident]
    calls = [0]

    def compute(key, message, nonce):
        calls[0] += 1
        return func.compute(key, message, nonce)

    counted = auth.AuthFunction(func.ident, func.name, compute)
    return MacAuthService(counted, FixedKey(), mac_stage_delay_ns=0.0), calls


#: (name, in-flight change) — variant rewrites keep the tag, the rest break it.
IN_FLIGHT = [
    ("none", lambda p: None),
    ("vl_rewrite", lambda p: setattr(p.lrh, "vl", 1)),
    ("payload_tamper", lambda p: setattr(p, "payload", b"forged bytes")),
    ("pkey_tamper", lambda p: setattr(p.bth, "pkey", PKey(0x8002))),
    ("psn_tamper", lambda p: setattr(p.bth, "psn", p.bth.psn + 1)),
    ("tag_tamper", lambda p: setattr(p, "icrc", p.icrc ^ 1)),
]


class TestAuthTagMemo:
    """``prepare`` leaves its tag on the packet for ``verify``; the memo is
    keyed on the *value* of (function id, key, covered bytes, nonce), so it
    can only ever skip a computation whose result it already holds."""

    @pytest.mark.parametrize("ident", sorted(AUTH_FUNCTIONS))
    @pytest.mark.parametrize("change,mutate", IN_FLIGHT, ids=[c[0] for c in IN_FLIGHT])
    def test_memo_agrees_with_fresh_computation(self, ident, change, mutate):
        svc, _ = counting_service(ident)
        p = make_packet(payload=b"honest bytes")
        svc.prepare(p, None)
        mutate(p)
        memoized = svc.verify(p, None)
        p._auth_tag_memo = None
        assert svc.verify(p, None) == memoized
        assert memoized == (change in ("none", "vl_rewrite"))

    @pytest.mark.parametrize("ident", sorted(AUTH_FUNCTIONS))
    def test_untampered_verify_computes_nothing(self, ident):
        svc, calls = counting_service(ident)
        p = make_packet(payload=b"honest bytes")
        svc.prepare(p, None)
        assert calls == [1]
        p.payload = bytes(bytearray(p.payload))  # equal value, new object
        assert svc.verify(p, None)
        assert calls == [1]

    def test_variant_rewrite_keeps_tag_valid(self):
        svc, _ = counting_service(3)
        p = make_packet()
        svc.prepare(p, None)
        p.lrh.vl = 1  # in-flight variant rewrite
        assert svc.verify(p, None)

    def test_invariant_tamper_fails_despite_memo(self):
        svc, _ = counting_service(3)
        p = make_packet()
        svc.prepare(p, None)
        p.bth.pkey = PKey(0x8002)
        assert not svc.verify(p, None)

    def test_payload_tamper_fails_despite_memo(self):
        svc, _ = counting_service(3)
        p = make_packet(payload=b"honest bytes")
        svc.prepare(p, None)
        p.payload = b"forged bytes"
        assert not svc.verify(p, None)
