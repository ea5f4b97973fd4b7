"""ICRC-as-MAC: the paper's authentication mechanism (Section 5).

The 32-bit Invariant CRC field becomes the Authentication Tag (AT).  The
BTH Reserved byte (``resv8a`` — conveniently a *variant* field the ICRC
never covered) selects the authentication function:

* ``0`` — stock IBA: the field holds a plain CRC-32 (full compatibility).
* non-zero — the field holds a MAC computed over exactly the bytes the ICRC
  used to cover (the invariant fields), under a secret key indexed by P_Key
  (partition-level) or by Q_Key + source QP (QP-level).

This gives the paper's three headline properties:

1. **Wire compatibility** — packet format unchanged; only the function that
   fills/checks the field differs.
2. **On-demand service** — authentication can be enabled per partition or
   per QP at any time (it is just a per-key-table entry plus a selector).
3. **Real security** — forgery probability drops from ~1 (CRC) to ~2^-30
   (UMAC-2/4 with a 32-bit tag; Table 4).

Two :class:`repro.iba.hca.AuthService` implementations are provided:
:class:`IcrcAuthService` (stock IBA) and :class:`MacAuthService` (the
proposal, parameterized by MAC algorithm and key manager).

**MAC tag memo.**  Sender and receiver handle the same packet object in
this simulator, so ``prepare`` leaves the tag it computed on the packet,
with its inputs: (function id, key, invariant bytes, nonce).  ``verify``
reuses the tag only when all four are *equal* to its own, so the outcome
is always what a fresh MAC computation would give: any in-flight tamper
changes the covered bytes, and any key or selector mismatch misses.  It is
the one cache on the datapath; a UMAC tag costs more than the comparison.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Protocol

from repro.crypto.cmac import AESCMAC
from repro.crypto.hmac import hmac_md5, hmac_sha1, tag32
from repro.crypto.pmac import PMAC
from repro.crypto.stream import stream_mac
from repro.crypto.umac import UMAC
from repro.iba import crc as ibacrc
from repro.sim.counters import CounterRegistry
from repro.iba.packet import DataPacket
from repro.sim.config import AuthMode
from repro.sim.engine import PS_PER_NS


@dataclass(frozen=True)
class AuthFunction:
    """One entry of the BTH-Reserved authentication-function registry."""

    ident: int  #: value carried in BTH resv8a (non-zero selects a MAC).
    name: str
    #: (key, message, nonce) -> 32-bit tag.
    compute: Callable[[bytes, bytes, int], int]


#: Bound on the keyed-instance memo.  One run keys a few dozen MAC
#: instances (``mesh_umac``: 48 QP-level UMAC keys), so a run never evicts;
#: the bound only stops long-lived sweep and service workers from keeping
#: every key schedule they ever built.
KEYED_MEMO_SIZE = 1024


@functools.lru_cache(maxsize=KEYED_MEMO_SIZE)
def _keyed(cls: type, key: bytes):
    """The *cls* instance for *key*: UMAC/PMAC/AES-CMAC key schedules are
    expensive, so each (algorithm, key) pair is built once."""
    return cls(key)


def _umac_compute(key: bytes, message: bytes, nonce: int) -> int:
    return _keyed(UMAC, key).tag(message, nonce)


def _pmac_compute(key: bytes, message: bytes, nonce: int) -> int:
    return _keyed(PMAC, key).tag(nonce.to_bytes(8, "big") + message)


def _hmac_md5_compute(key: bytes, message: bytes, nonce: int) -> int:
    return tag32(hmac_md5(key, nonce.to_bytes(8, "big") + message))


def _hmac_sha1_compute(key: bytes, message: bytes, nonce: int) -> int:
    return tag32(hmac_sha1(key, nonce.to_bytes(8, "big") + message))


def _cmac_compute(key: bytes, message: bytes, nonce: int) -> int:
    return _keyed(AESCMAC, key).tag(nonce.to_bytes(8, "big") + message)


#: The registry, keyed by the BTH Reserved value.  Slot 6 is taken by the
#: Section-7 partial-digest wrapper (:mod:`repro.core.fastmac`).
AUTH_FUNCTIONS: dict[int, AuthFunction] = {
    1: AuthFunction(1, "umac", _umac_compute),
    2: AuthFunction(2, "hmac-md5", _hmac_md5_compute),
    3: AuthFunction(3, "hmac-sha1", _hmac_sha1_compute),
    4: AuthFunction(4, "pmac", _pmac_compute),
    5: AuthFunction(5, "stream", stream_mac),
    7: AuthFunction(7, "aes-cmac", _cmac_compute),
}

_MODE_TO_ID = {
    AuthMode.UMAC: 1,
    AuthMode.HMAC_MD5: 2,
    AuthMode.HMAC_SHA1: 3,
    AuthMode.PMAC: 4,
    AuthMode.STREAM: 5,
    AuthMode.AES_CMAC: 7,
}


def auth_function_for(mode: AuthMode) -> AuthFunction:
    """Map a config :class:`AuthMode` to its registry entry."""
    if mode is AuthMode.ICRC:
        raise ValueError("ICRC is not a MAC; use IcrcAuthService")
    return AUTH_FUNCTIONS[_MODE_TO_ID[mode]]


class KeyManager(Protocol):
    """What MacAuthService needs from Section 4's key-management schemes."""

    def sender_key(self, hca, packet: DataPacket) -> tuple[bytes | None, int]:
        """(secret key, extra delay ps) for an outgoing packet.  The delay
        models key-exchange round trips (QP-level first contact)."""
        ...

    def receiver_key(self, hca, packet: DataPacket) -> bytes | None:
        """Secret key for an incoming packet, or None if unknown."""
        ...


class IcrcAuthService:
    """Stock IBA: plain CRC-32 in the ICRC field, no keys, no extra delay."""

    def prepare(self, packet: DataPacket, sender) -> int:
        packet.bth.reserved_auth = 0
        # ICRC only: the hop-local VCRC is not checked anywhere in the
        # simulated fabric (no per-hop verify is modeled), so stamping it
        # at transmit would be pure dead computation on the hot path.
        # Callers that need both fields use ibacrc.stamp().
        packet.icrc = ibacrc.icrc(packet)
        return 0

    def verify(self, packet: DataPacket, receiver) -> bool:
        return ibacrc.verify_icrc(packet)

    def verify_delay_ps(self) -> int:
        return 0


class MacAuthService:
    """The paper's mechanism: a MAC in the ICRC field.

    ``on_demand`` restricts authentication to specific partitions — "The
    administrator can enable authentication only for that partition" — a
    set of P_Key indices; packets outside it fall back to plain ICRC.
    """

    def __init__(
        self,
        func: AuthFunction,
        keymgr: KeyManager,
        mac_stage_delay_ns: float = 5.0,
        on_demand_partitions: set[int] | None = None,
        registry: "CounterRegistry | None" = None,
    ) -> None:
        self.func = func
        self.keymgr = keymgr
        self._stage_ps = round(mac_stage_delay_ns * PS_PER_NS)
        self.on_demand = on_demand_partitions
        self.registry = registry if registry is not None else CounterRegistry()
        self.tags_generated = self.registry.counter("auth.tags_generated")
        self.tags_verified = self.registry.counter("auth.tags_verified")
        self.tags_rejected = self.registry.counter("auth.tags_rejected")

    def _covered(self, packet: DataPacket) -> bool:
        return self.on_demand is None or packet.pkey.index in self.on_demand

    def prepare(self, packet: DataPacket, sender) -> int:
        if not self._covered(packet):
            packet.bth.reserved_auth = 0
            packet.icrc = ibacrc.icrc(packet)  # VCRC unchecked in-fabric
            return 0
        key, delay = self.keymgr.sender_key(sender, packet)
        if key is None:
            # No key available: fall back to plain ICRC (packet will be
            # rejected at an authenticating receiver — that is the point).
            packet.bth.reserved_auth = 0
            packet.icrc = ibacrc.icrc(packet)
            return 0
        packet.bth.reserved_auth = self.func.ident
        message = packet.invariant_bytes()
        nonce = packet.nonce
        tag = self.func.compute(key, message, nonce)
        packet.icrc = tag
        packet._auth_tag_memo = (self.func.ident, key, message, nonce, tag)
        self.tags_generated.inc()
        return delay + self._stage_ps

    def verify(self, packet: DataPacket, receiver) -> bool:
        if not self._covered(packet):
            return ibacrc.verify_icrc(packet)
        if packet.bth.reserved_auth != self.func.ident:
            # Unauthenticated packet in a protected partition: reject.
            self.tags_rejected.inc()
            return False
        key = self.keymgr.receiver_key(receiver, packet)
        if key is None:
            self.tags_rejected.inc()
            return False
        message = packet.invariant_bytes()
        nonce = packet.nonce
        memo = packet._auth_tag_memo
        if (
            memo is not None
            and memo[0] == self.func.ident
            and memo[1] == key
            and memo[2] == message
            and memo[3] == nonce
        ):
            expected = memo[4]
        else:
            expected = self.func.compute(key, message, nonce)
        if expected == packet.icrc:
            self.tags_verified.inc()
            return True
        self.tags_rejected.inc()
        return False

    def verify_delay_ps(self) -> int:
        return self._stage_ps
