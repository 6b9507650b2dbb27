"""Cryptographic building blocks used by the protocol actors.

Asymmetric encryption is a hybrid scheme (X25519 key agreement, HKDF-SHA256,
AES-256-GCM), signatures are Ed25519, and the per-check-in pseudonym is a
truncated keyed hash of a daily seed.  All key generation and encryption is
driven by an explicit seeded ``random.Random`` so whole simulations replay
byte-for-byte.  None of this aims at side-channel resistance; the simulator
cares about protocol-level behaviour, not implementation hardening.
"""

from __future__ import annotations

import hashlib
import hmac
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from functools import lru_cache
from random import Random
from typing import Iterator, Optional, Union

from cryptography.exceptions import InvalidSignature, InvalidTag
from cryptography.hazmat.primitives.ciphers.aead import AESGCM
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)
from cryptography.hazmat.primitives.asymmetric.x25519 import (
    X25519PrivateKey,
    X25519PublicKey,
)

MAX_PLAINTEXT = 4096
TRACE_ID_LEN = 16
CONTACT_KEY_LEN = 32
VERIFICATION_CODE_LEN = 8
CODE_ALPHABET = "ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"

# Roles tag every key with its place in the protocol.  Signing roles use
# Ed25519, everything else is an X25519 encryption key.
SIGNING_ROLES = frozenset({"health-dept-sign", "adversary-sign", "ca"})
ENCRYPTION_ROLES = frozenset({"venue", "health-dept-enc", "daily-master", "adversary"})
KEY_ROLES = SIGNING_ROLES | ENCRYPTION_ROLES

_HKDF_INFO = b"lucasim/hybrid-v1"
_SHA256_BLOCK = 64
_IPAD = bytes(b ^ 0x36 for b in range(256))
_OPAD = bytes(b ^ 0x5C for b in range(256))
_EPH_PUB_LEN = 32
_NONCE_LEN = 12


class DecryptionFailure(Exception):
    """Authenticated decryption rejected the ciphertext (wrong key or tamper)."""


@dataclass(frozen=True)
class PublicKey:
    role: str
    data: bytes


@dataclass(frozen=True)
class PrivateKey:
    role: str
    data: bytes


@dataclass(frozen=True)
class AsymKeyPair:
    public: PublicKey
    private: PrivateKey

    @property
    def role(self) -> str:
        return self.public.role


@dataclass(frozen=True)
class Signature:
    data: bytes


@dataclass(frozen=True)
class TracingSeed:
    """Per-guest, per-day secret from which check-in pseudonyms derive."""

    day: int
    secret: bytes


@dataclass(frozen=True)
class EncryptedUserReference:
    """The encrypted (user_id, contact key) blob carried in check-in records.

    ``layers == 1`` means only the daily master layer is present;
    ``layers == 2`` adds the venue layer on the outside.
    """

    layers: int
    ciphertext: bytes


def gen_keypair(role: str, rng: Random) -> AsymKeyPair:
    """Generate a role-tagged keypair deterministically from ``rng``."""
    if role not in KEY_ROLES:
        raise ValueError(f"unknown key role: {role}")
    raw = rng.randbytes(32)
    if role in SIGNING_ROLES:
        sk = Ed25519PrivateKey.from_private_bytes(raw)
        pub = sk.public_key().public_bytes_raw()
    else:
        sk = X25519PrivateKey.from_private_bytes(raw)
        pub = sk.public_key().public_bytes_raw()
    return AsymKeyPair(PublicKey(role, pub), PrivateKey(role, raw))


# A run uses a few dozen long-lived keys (venues, daily masters, health
# departments) thousands of times each.  Parsing an X25519 private key
# re-derives its public key, a full scalar multiplication, and Ed25519
# verification is as costly; both are pure functions of their bytes, so they
# are cached by those bytes and no output changes.  Ephemeral keys are fresh
# on every call and never cached; plaintexts are kept only in the run-scoped
# decrypt memo below.
_CACHE_SIZE = 256


@lru_cache(maxsize=_CACHE_SIZE)
def _x25519_private(data: bytes) -> X25519PrivateKey:
    return X25519PrivateKey.from_private_bytes(data)


@lru_cache(maxsize=_CACHE_SIZE)
def _x25519_public(data: bytes) -> X25519PublicKey:
    return X25519PublicKey.from_public_bytes(data)


@lru_cache(maxsize=_CACHE_SIZE)
def _ed25519_valid(public: bytes, message: bytes, signature: bytes) -> bool:
    try:
        Ed25519PublicKey.from_public_bytes(public).verify(signature, message)
        return True
    except (InvalidSignature, ValueError):
        return False


def _derive_session(shared: bytes, eph_pub: bytes) -> tuple[bytes, bytes]:
    # HKDF-SHA256 (extract + single expand block is enough for 44 bytes).
    prk = hmac.digest(eph_pub, shared, "sha256")
    t1 = hmac.digest(prk, _HKDF_INFO + b"\x01", "sha256")
    t2 = hmac.digest(prk, t1 + _HKDF_INFO + b"\x02", "sha256")
    okm = t1 + t2
    return okm[:32], okm[32 : 32 + _NONCE_LEN]


def encrypt(pk: PublicKey, message: bytes, rng: Random) -> bytes:
    """Hybrid public-key encryption with a fresh ephemeral key from ``rng``."""
    if pk.role not in ENCRYPTION_ROLES:
        raise ValueError(f"role {pk.role} is not an encryption role")
    if not message:
        raise ValueError("empty plaintext")
    if len(message) > MAX_PLAINTEXT:
        raise ValueError(f"plaintext exceeds {MAX_PLAINTEXT} bytes")
    eph = X25519PrivateKey.from_private_bytes(rng.randbytes(32))
    eph_pub = eph.public_key().public_bytes_raw()
    shared = eph.exchange(_x25519_public(pk.data))
    key, nonce = _derive_session(shared, eph_pub)
    ct = AESGCM(key).encrypt(nonce, message, eph_pub)
    return eph_pub + ct


# Overlapping trace windows ask the venue and the health department to open
# the same records again, trace after trace.  Inside a ``decrypt_memo()``
# block, :func:`decrypt` computes each distinct (secret key, ciphertext) pair
# once: the memo is keyed by the exact bytes of both, holds the plaintext or,
# for a failure, only the ``DecryptionFailure`` message (never the exception,
# whose traceback would keep the run's objects alive), and is dropped when
# the block exits.  A lookup needs the full secret-key bytes, so it grants
# nothing that the key itself does not.  Outside a block, every call computes.
_DECRYPT_MEMO: ContextVar[Optional[dict[tuple[bytes, bytes], Union[bytes, str]]]] = ContextVar(
    "lucasim_decrypt_memo", default=None
)


@contextmanager
def decrypt_memo() -> Iterator[None]:
    """Memoize :func:`decrypt` by exact key and ciphertext bytes until the block exits."""
    token = _DECRYPT_MEMO.set({})
    try:
        yield
    finally:
        _DECRYPT_MEMO.reset(token)


def decrypt(sk: PrivateKey, ciphertext: bytes) -> bytes:
    """Invert :func:`encrypt`; raises :class:`DecryptionFailure` on any mismatch."""
    if sk.role not in ENCRYPTION_ROLES:
        raise ValueError(f"role {sk.role} is not an encryption role")
    memo = _DECRYPT_MEMO.get()
    if memo is None:
        return _decrypt(sk.data, ciphertext)
    key = (sk.data, ciphertext)
    hit = memo.get(key)
    if hit is None:
        try:
            hit = memo[key] = _decrypt(sk.data, ciphertext)
        except DecryptionFailure as exc:
            memo[key] = str(exc)
            raise
    elif isinstance(hit, str):
        raise DecryptionFailure(hit)
    return hit


def _decrypt(sk_data: bytes, ciphertext: bytes) -> bytes:
    if len(ciphertext) < _EPH_PUB_LEN + 16:
        raise DecryptionFailure("ciphertext too short")
    eph_pub = ciphertext[:_EPH_PUB_LEN]
    body = ciphertext[_EPH_PUB_LEN:]
    try:
        shared = _x25519_private(sk_data).exchange(X25519PublicKey.from_public_bytes(eph_pub))
        key, nonce = _derive_session(shared, eph_pub)
        return AESGCM(key).decrypt(nonce, body, eph_pub)
    except (InvalidTag, ValueError) as exc:
        raise DecryptionFailure("authentication failed") from exc


def sign(sk: PrivateKey, message: bytes) -> Signature:
    if sk.role not in SIGNING_ROLES:
        raise ValueError(f"role {sk.role} is not a signing role")
    return Signature(Ed25519PrivateKey.from_private_bytes(sk.data).sign(message))


def verify(pk: PublicKey, message: bytes, sig: Signature) -> bool:
    """True iff ``sig`` was produced over ``message`` by the pair of ``pk``."""
    if pk.role not in SIGNING_ROLES:
        return False
    return _ed25519_valid(pk.data, message, sig.data)


def sym_encrypt(key: bytes, message: bytes, rng: Random) -> bytes:
    """Authenticated symmetric encryption for contact records."""
    if len(key) != CONTACT_KEY_LEN:
        raise ValueError("symmetric key must be 32 bytes")
    if not message or len(message) > MAX_PLAINTEXT:
        raise ValueError("plaintext must be 1..4096 bytes")
    nonce = rng.randbytes(_NONCE_LEN)
    return nonce + AESGCM(key).encrypt(nonce, message, b"")


def sym_decrypt(key: bytes, ciphertext: bytes) -> bytes:
    if len(ciphertext) < _NONCE_LEN + 16:
        raise DecryptionFailure("ciphertext too short")
    try:
        return AESGCM(key).decrypt(ciphertext[:_NONCE_LEN], ciphertext[_NONCE_LEN:], b"")
    except (InvalidTag, ValueError) as exc:
        raise DecryptionFailure("authentication failed") from exc


def new_tracing_seed(day: int, rng: Random) -> TracingSeed:
    return TracingSeed(day=day, secret=rng.randbytes(32))


def _trace_id_states(secret: bytes) -> tuple[hashlib._Hash, hashlib._Hash]:
    """Inner and outer SHA-256 states of HMAC keyed by ``secret`` (RFC 2104)."""
    if len(secret) > _SHA256_BLOCK:
        secret = hashlib.sha256(secret).digest()
    key = secret.ljust(_SHA256_BLOCK, b"\x00")
    return hashlib.sha256(key.translate(_IPAD)), hashlib.sha256(key.translate(_OPAD))


def _trace_id(inner: hashlib._Hash, outer: hashlib._Hash, counter: int) -> bytes:
    h = inner.copy()
    h.update(counter.to_bytes(8, "big"))
    o = outer.copy()
    o.update(h.digest())
    return o.digest()[:TRACE_ID_LEN]


def derive_trace_id(seed: TracingSeed, counter: int) -> bytes:
    """Pseudonym for one check-in: HMAC-SHA256 of the per-day counter, truncated."""
    if counter < 0:
        raise ValueError("counter must be non-negative")
    return _trace_id(*_trace_id_states(seed.secret), counter)


def derive_all_trace_ids(seed: TracingSeed, max_counter: int) -> list[bytes]:
    """Enumerate trace ids 0..max_counter, exactly as the server does when tracing."""
    if max_counter < 0:
        raise ValueError("max_counter must be non-negative")
    inner, outer = _trace_id_states(seed.secret)
    return [_trace_id(inner, outer, i) for i in range(max_counter + 1)]


def gen_verification_code(rng: Random, length: int = VERIFICATION_CODE_LEN) -> str:
    return "".join(rng.choice(CODE_ALPHABET) for _ in range(length))


def pack_user_reference(user_id: str, contact_key: bytes) -> bytes:
    if len(contact_key) != CONTACT_KEY_LEN:
        raise ValueError("contact key must be 32 bytes")
    return contact_key + user_id.encode("ascii")


def unpack_user_reference(plain: bytes) -> tuple[str, bytes]:
    if len(plain) <= CONTACT_KEY_LEN:
        raise DecryptionFailure("reference plaintext too short")
    return plain[CONTACT_KEY_LEN:].decode("ascii"), plain[:CONTACT_KEY_LEN]


def seal_user_reference(
    master_pk: PublicKey, user_id: str, contact_key: bytes, rng: Random
) -> EncryptedUserReference:
    """Build the inner (daily-master) layer of a user reference."""
    ct = encrypt(master_pk, pack_user_reference(user_id, contact_key), rng)
    return EncryptedUserReference(layers=1, ciphertext=ct)


def wrap_reference(
    ref: EncryptedUserReference, venue_pk: PublicKey, rng: Random
) -> EncryptedUserReference:
    """Add the outer (venue) layer on top of a single-layer reference."""
    if ref.layers != 1:
        raise ValueError("can only wrap a single-layer reference")
    return EncryptedUserReference(layers=2, ciphertext=encrypt(venue_pk, ref.ciphertext, rng))


def unwrap_outer(ref: EncryptedUserReference, venue_sk: PrivateKey) -> EncryptedUserReference:
    """Remove the venue layer; fails unless the matching venue key is used first."""
    if ref.layers != 2:
        raise ValueError("reference has no outer layer")
    return EncryptedUserReference(layers=1, ciphertext=decrypt(venue_sk, ref.ciphertext))


def open_user_reference(
    ref: EncryptedUserReference, master_sk: PrivateKey
) -> tuple[str, bytes]:
    """Remove the daily-master layer and recover (user_id, contact key)."""
    if ref.layers != 1:
        raise ValueError("outer layer still present")
    return unpack_user_reference(decrypt(master_sk, ref.ciphertext))
