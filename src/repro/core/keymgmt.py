"""Authentication key management — paper Section 4.

Two schemes, both compatible with existing IBA key policy:

* **Partition-level** (:class:`PartitionLevelKeyManager`, Figure 2): when
  the SM creates a partition it mints one secret key, encrypts it under
  each member CA's RSA public key, and distributes it.  Every QP in the
  partition shares it; the per-packet index is simply the P_Key.
  Distribution rides on partition setup, so steady-state key-exchange cost
  is "virtually zero" (Figure 6's partition-level line).

* **QP-level** (:class:`QPLevelKeyManager`, Figure 3): finest granularity —
  a fresh secret key per communicating QP relationship.  For datagram
  service a key is minted at every Q_Key request and the receiver indexes
  it by (its Q_Key, the source QP) because one QP may issue many keys.  The
  first packet of each pair pays one round-trip (the Figure 6 'With Key'
  overhead); later packets pay nothing.

Both managers do the RSA encrypt/decrypt for real (:mod:`repro.crypto.rsa`)
so the confidentiality path of Section 2.2 — encrypt *only* secret keys,
never bulk data — is genuinely exercised.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable

from repro.crypto.kdf import fresh_key
from repro.crypto.rsa import RSAKeyPair, generate_keypair
from repro.iba.packet import DataPacket
from repro.sim.counters import CounterRegistry


@dataclass
class NodeDirectory:
    """Public-key directory: 'we assume SM knows public keys of all CAs and
    each node has a table of public keys of other nodes'."""

    keypairs: dict[int, RSAKeyPair] = field(default_factory=dict)

    @classmethod
    def for_nodes(cls, lids: list[int], rng: random.Random, bits: int = 512) -> "NodeDirectory":
        return cls(keypairs={int(lid): generate_keypair(bits, rng) for lid in lids})

    def public(self, lid: int):
        return self.keypairs[int(lid)].public

    def private(self, lid: int):
        return self.keypairs[int(lid)].private


class PartitionLevelKeyManager:
    """One secret key per partition, indexed by P_Key (Figure 2)."""

    def __init__(
        self,
        directory: NodeDirectory,
        rng: random.Random,
        registry: CounterRegistry | None = None,
    ) -> None:
        self.directory = directory
        self.rng = rng
        #: partition index -> plaintext secret (the SM's master copy).
        self._sm_keys: dict[int, bytes] = {}
        #: per-node decrypted key tables: lid -> {pkey index -> secret}.
        self.node_tables: dict[int, dict[int, bytes]] = {}
        self.registry = registry if registry is not None else CounterRegistry()
        self.distributions = self.registry.counter("keymgmt.distributions")

    def create_partition_key(self, index: int, member_lids: set[int]) -> bytes:
        """SM side: mint the partition secret and distribute it to members,
        encrypted under each member's public key."""
        secret = fresh_key(self.rng)
        self._sm_keys[index] = secret
        for lid in member_lids:
            ciphertext = self.directory.public(lid).encrypt(secret, self.rng)
            recovered = self.directory.private(lid).decrypt(ciphertext)
            assert recovered == secret  # the CA's decryption
            self.node_tables.setdefault(int(lid), {})[index] = recovered
            self.distributions.inc()
        return secret

    # -- AuthService KeyManager protocol -------------------------------------

    def sender_key(self, hca, packet: DataPacket) -> tuple[bytes | None, int]:
        table = self.node_tables.get(hca.lid, {})
        return table.get(packet.bth.pkey.index), 0

    def receiver_key(self, hca, packet: DataPacket) -> bytes | None:
        return self.node_tables.get(hca.lid, {}).get(packet.bth.pkey.index)


class QPLevelKeyManager:
    """Per-QP-relationship secret keys (Figure 3).

    The sender table is keyed by (src lid, src QP, dst lid, dst QP); the
    receiver table by (dst lid, dst QP — identifying its Q_Key — and the
    source LID + QP), mirroring the paper's "to index a secret key, both
    Q_Key and source QP are necessary".

    ``rtt_estimator(src_lid, dst_lid)`` supplies the key-exchange round-trip
    cost in picoseconds ("we add one round trip time delay for each pair of
    communicating QPs").
    """

    def __init__(
        self,
        directory: NodeDirectory,
        rng: random.Random,
        rtt_estimator: Callable[[int, int], int] | None = None,
        registry: CounterRegistry | None = None,
    ) -> None:
        self.directory = directory
        self.rng = rng
        self.rtt_estimator = rtt_estimator or (lambda a, b: 0)
        self._sender: dict[tuple[int, int, int, int], bytes] = {}
        self._receiver: dict[tuple[int, int, int, int], bytes] = {}
        self._rc_sender: dict[tuple[int, int, int], bytes] = {}
        self._rc_receiver: dict[tuple[int, int, int], bytes] = {}
        self.registry = registry if registry is not None else CounterRegistry()
        self.exchanges = self.registry.counter("keymgmt.exchanges")

    def register_rc_connection(self, src: int, src_qp: int, dst: int, dst_qp: int) -> bytes:
        """RC setup (Section 4.3 ¶1): the connection initiator mints the
        secret during the CM handshake and both directions share it —
        'the key is distributed at the node level because it uses node-level
        encryption keys'.  Called by :class:`repro.iba.cm.ConnectionManager`."""
        secret = fresh_key(self.rng)
        ciphertext = self.directory.public(dst).encrypt(secret, self.rng)
        recovered = self.directory.private(dst).decrypt(ciphertext)
        assert recovered == secret
        # RC packets carry no DETH, so lookups key on (src, dst, dst QP).
        self._rc_sender[(src, dst, dst_qp)] = secret
        self._rc_receiver[(dst, dst_qp, src)] = recovered
        # ...and the reverse direction of the same connection.
        self._rc_sender[(dst, src, src_qp)] = secret
        self._rc_receiver[(src, src_qp, dst)] = secret
        self.exchanges.inc()
        return secret

    def _mint(self, src: int, src_qp: int, dst: int, dst_qp: int) -> bytes:
        """Run the Q_Key-request key exchange: requester mints, encrypts
        under the peer's public key, peer decrypts."""
        secret = fresh_key(self.rng)
        ciphertext = self.directory.public(dst).encrypt(secret, self.rng)
        recovered = self.directory.private(dst).decrypt(ciphertext)
        assert recovered == secret
        self._sender[(src, src_qp, dst, dst_qp)] = secret
        self._receiver[(dst, dst_qp, src, src_qp)] = recovered
        self.exchanges.inc()
        return secret

    # -- AuthService KeyManager protocol -------------------------------------

    def sender_key(self, hca, packet: DataPacket) -> tuple[bytes | None, int]:
        # Header fields read directly: this runs for every sent packet.
        src = hca.lid
        dst = packet.lrh.dlid
        dst_qp = packet.bth.dest_qp
        deth = packet.deth
        if deth is None:
            # RC: the key was installed by the CM handshake; no on-demand
            # minting (an unconnected RC send has no key, and that's final).
            return self._rc_sender.get((src, dst, dst_qp)), 0
        src_qp = deth.src_qp
        key = self._sender.get((src, src_qp, dst, dst_qp))
        if key is not None:
            return key, 0
        key = self._mint(src, src_qp, dst, dst_qp)
        return key, self.rtt_estimator(src, dst)

    def receiver_key(self, hca, packet: DataPacket) -> bytes | None:
        dst = hca.lid
        dst_qp = packet.bth.dest_qp
        src = packet.lrh.slid
        deth = packet.deth
        if deth is None:
            return self._rc_receiver.get((dst, dst_qp, src))
        src_qp = deth.src_qp
        return self._receiver.get((dst, dst_qp, src, src_qp))

    def known_pairs(self) -> int:
        return len(self._sender)
