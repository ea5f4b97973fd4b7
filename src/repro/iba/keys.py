"""The five InfiniBand key families and their access-control semantics.

IBA "authenticates" a request by checking that the right plaintext key value
rides in the packet — Table 3 of the paper catalogues what an adversary who
captures each key can do.  These classes model both the values and the check
each enforcement point performs, so :mod:`repro.core.threats` can execute
the attacks and :mod:`repro.core.auth` can show the MAC closing them.

* :class:`MKey` — Management Key: gates SubnSet() reconfiguration of a port.
* :class:`BKey` — Baseboard management Key: gates baseboard/hardware control.
* :class:`PKey` — Partition Key: 16 bits = 1 membership bit + 15-bit index.
  Full members (bit set) may talk to full and limited members; two limited
  members may not talk to each other.
* :class:`QKey` — Queue Key: gates datagram delivery to a QP.
* :class:`MemoryKey` — L_Key/R_Key: gate local/remote DMA access to a
  registered memory region.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True, order=True)
class PKey:
    """16-bit partition key: high bit = full membership, low 15 = partition index."""

    value: int

    FULL_MEMBER_BIT = 0x8000
    #: The default partition every port starts in (IBA: 0xFFFF).
    DEFAULT = 0xFFFF

    def __post_init__(self) -> None:
        if not 0 <= self.value <= 0xFFFF:
            raise ValueError(f"P_Key must be 16-bit, got {self.value:#x}")

    @property
    def index(self) -> int:
        """15-bit partition number (membership bit stripped)."""
        return self.value & 0x7FFF

    @property
    def full_member(self) -> bool:
        return bool(self.value & self.FULL_MEMBER_BIT)

    def matches(self, other: "PKey") -> bool:
        """IBA P_Key matching rule: same index, and not both limited members."""
        return self.index == other.index and (self.full_member or other.full_member)

    def as_full(self) -> "PKey":
        return PKey(self.value | self.FULL_MEMBER_BIT)

    def as_limited(self) -> "PKey":
        return PKey(self.value & ~self.FULL_MEMBER_BIT)

    def to_bytes(self) -> bytes:
        return self.value.to_bytes(2, "big")

    def __repr__(self) -> str:  # compact in traces
        return f"PKey({self.value:#06x})"


@dataclass(frozen=True)
class QKey:
    """32-bit queue key carried by datagram packets (DETH)."""

    value: int

    #: Q_Keys with the high bit set are "controlled" — only privileged
    #: consumers may send them (IBA 1.1 §10.2.4).
    CONTROLLED_BIT = 0x80000000

    def __post_init__(self) -> None:
        if not 0 <= self.value <= 0xFFFFFFFF:
            raise ValueError("Q_Key must be 32-bit")

    @property
    def controlled(self) -> bool:
        return bool(self.value & self.CONTROLLED_BIT)

    def to_bytes(self) -> bytes:
        return self.value.to_bytes(4, "big")

    def __repr__(self) -> str:
        return f"QKey({self.value:#010x})"


@dataclass(frozen=True)
class MKey:
    """64-bit management key protecting a port's subnet-management attributes."""

    value: int

    def __post_init__(self) -> None:
        if not 0 <= self.value <= 0xFFFFFFFFFFFFFFFF:
            raise ValueError("M_Key must be 64-bit")

    def permits(self, presented: "MKey | None") -> bool:
        """A SubnSet() succeeds iff the presented key matches (0 = unprotected)."""
        if self.value == 0:
            return True
        return presented is not None and presented.value == self.value


@dataclass(frozen=True)
class BKey:
    """64-bit baseboard-management key (same check semantics as M_Key)."""

    value: int

    def __post_init__(self) -> None:
        if not 0 <= self.value <= 0xFFFFFFFFFFFFFFFF:
            raise ValueError("B_Key must be 64-bit")

    def permits(self, presented: "BKey | None") -> bool:
        if self.value == 0:
            return True
        return presented is not None and presented.value == self.value


@dataclass(frozen=True)
class MemoryKey:
    """L_Key/R_Key protecting a registered memory region.

    ``remote=True`` marks an R_Key (usable by RDMA peers); an L_Key is only
    honoured for local work requests.
    """

    value: int
    remote: bool = False

    def __post_init__(self) -> None:
        if not 0 <= self.value <= 0xFFFFFFFF:
            raise ValueError("memory keys are 32-bit")


@dataclass
class KeySet:
    """The keys a node (or an adversary!) currently holds.

    :mod:`repro.core.threats` builds attack scenarios by handing an attacker
    a KeySet with specific captured keys and asking what operations succeed.
    """

    pkeys: set[PKey] = field(default_factory=set)
    qkeys: set[QKey] = field(default_factory=set)
    mkeys: set[MKey] = field(default_factory=set)
    bkeys: set[BKey] = field(default_factory=set)
    memory_keys: set[MemoryKey] = field(default_factory=set)
    #: MAC secret keys (what the paper adds); never on the wire in plaintext.
    secret_keys: dict[object, bytes] = field(default_factory=dict)

    def grant_pkey(self, pkey: PKey) -> None:
        self.pkeys.add(pkey)

    def has_matching_pkey(self, pkey: PKey) -> bool:
        """Whether some held P_Key :meth:`~PKey.matches` *pkey*.  Runs on
        every received packet, so a full-member *pkey* that is held
        itself (the common case) answers without scanning the set."""
        if pkey.value & PKey.FULL_MEMBER_BIT and pkey in self.pkeys:
            return True
        return any(own.matches(pkey) for own in self.pkeys)
