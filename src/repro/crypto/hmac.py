"""HMAC (RFC 2104): a from-scratch reference and the C-backed tags.

HMAC(K, m) = H((K' xor opad) || H((K' xor ipad) || m)) where K' is the key
padded (or pre-hashed) to the hash block size.  HMAC-MD5 and HMAC-SHA1 are
the two conventional MACs of Table 4; the paper keeps them in the comparison
because "IBA nodes may communicate with IPSec systems".

* :func:`hmac_md5` / :func:`hmac_sha1` — the tags the simulator computes
  (auth functions 2 and 3, UMAC's key schedule and nonce pad, the key
  derivation), returned by stdlib ``hmac.digest``.
* :func:`hmac` — the same construction written out over any of our
  from-scratch hashes (:class:`~repro.crypto.md5.MD5`,
  :class:`~repro.crypto.sha1.SHA1`).  It is the oracle the C-backed tags
  are tested against, and what Table 4's ordering check times.

Tags are truncated to 32 bits when stored in the ICRC field — see
:func:`tag32` and the forgery analysis in :mod:`repro.analysis.forgery`.
"""

from __future__ import annotations

import hmac as _stdlib_hmac
from typing import Callable, Protocol


class _Hash(Protocol):  # structural type of MD5/SHA1 classes
    digest_size: int
    block_size: int

    def update(self, data: bytes) -> "_Hash": ...
    def digest(self) -> bytes: ...


from repro.crypto.md5 import MD5
from repro.crypto.sha1 import SHA1

_IPAD = 0x36
_OPAD = 0x5C


def hmac(key: bytes, message: bytes, hash_cls: Callable[..., _Hash] = SHA1) -> bytes:
    """Full-length HMAC tag of *message* under *key* using *hash_cls*."""
    block_size = hash_cls().block_size  # type: ignore[call-arg]
    if len(key) > block_size:
        key = hash_cls(key).digest()  # type: ignore[call-arg]
    key = key.ljust(block_size, b"\x00")
    inner = hash_cls(bytes(b ^ _IPAD for b in key))  # type: ignore[call-arg]
    inner.update(message)
    outer = hash_cls(bytes(b ^ _OPAD for b in key))  # type: ignore[call-arg]
    outer.update(inner.digest())
    return outer.digest()


def hmac_md5(key: bytes, message: bytes) -> bytes:
    """HMAC-MD5 tag (16 bytes); equals ``hmac(key, message, MD5)``."""
    return _stdlib_hmac.digest(key, message, "md5")


def hmac_sha1(key: bytes, message: bytes) -> bytes:
    """HMAC-SHA1 tag (20 bytes); equals ``hmac(key, message, SHA1)``."""
    return _stdlib_hmac.digest(key, message, "sha1")


def tag32(full_tag: bytes) -> int:
    """Truncate a MAC tag to the 32-bit value stored in the ICRC field.

    RFC 2104 truncation keeps the leftmost bits; we read them big-endian so
    the mapping is deterministic and order-preserving.
    """
    return int.from_bytes(full_tag[:4], "big")
