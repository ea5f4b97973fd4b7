"""Cryptographic primitives used by the InfiniBand security layer.

Every primitive is implemented from scratch in Python against its public
specification: RFC 1321 MD5, FIPS 180-1 SHA-1, RFC 2104 HMAC, the UMAC
construction of Black et al., IEEE 802.3 CRC-32, textbook RSA, an RC4-class
stream cipher with a Lai/Taylor-style integrity check, PMAC over XTEA, and
AES-CMAC.

The standard functions the simulator calls on every run are backed by the
C stdlib instead, because the from-scratch versions dominated run time:

* :func:`crc32` and :class:`CRC32` — ``zlib.crc32``; oracle
  :func:`~repro.crypto.crc32.crc32_pure`;
* :func:`md5` and :func:`sha1` — ``hashlib``; oracles the
  :class:`~repro.crypto.md5.MD5` and :class:`~repro.crypto.sha1.SHA1`
  classes;
* :func:`hmac_md5` and :func:`hmac_sha1` — ``hmac.digest``; oracle the
  generic :func:`hmac` over ``MD5``/``SHA1``.

Tests check each C-backed name against its oracle on published vectors and
random inputs, and Table 4's measured ordering times the oracles.  UMAC,
PMAC, the stream MAC and AES-CMAC are Python throughout; UMAC's key
schedule and nonce pad call the C-backed ``hmac_sha1``.

The paper proposes replacing the InfiniBand Invariant CRC with a 32-bit
Message Authentication Code; these modules supply both the CRC baseline and
the candidate MACs of Table 4, plus the Section-7 alternatives (stream-cipher
MAC, PMAC).

Security note: these implementations exist to *reproduce a research system*.
They are not constant-time and must not be used to protect real traffic.
"""

from repro.crypto.crc32 import crc32, CRC32
from repro.crypto.md5 import md5
from repro.crypto.sha1 import sha1
from repro.crypto.hmac import hmac, hmac_md5, hmac_sha1
from repro.crypto.umac import UMAC, umac32
from repro.crypto.rsa import RSAKeyPair, generate_keypair
from repro.crypto.kdf import derive_key
from repro.crypto.xtea import XTEA
from repro.crypto.pmac import PMAC
from repro.crypto.stream import StreamCipher, stream_mac
from repro.crypto.aes import AES128
from repro.crypto.cmac import AESCMAC, aes_cmac

__all__ = [
    "crc32",
    "CRC32",
    "md5",
    "sha1",
    "hmac",
    "hmac_md5",
    "hmac_sha1",
    "UMAC",
    "umac32",
    "RSAKeyPair",
    "generate_keypair",
    "derive_key",
    "XTEA",
    "PMAC",
    "StreamCipher",
    "stream_mac",
    "AES128",
    "AESCMAC",
    "aes_cmac",
]
