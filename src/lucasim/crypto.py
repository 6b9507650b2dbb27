"""Cryptographic building blocks used by the protocol actors.

Asymmetric encryption is a hybrid scheme (X25519 key agreement, HKDF-SHA256,
AES-256-GCM), signatures are Ed25519, and the per-check-in pseudonym is a
truncated keyed hash of a daily seed.  All key generation and encryption is
driven by an explicit seeded ``random.Random`` so whole simulations replay
byte-for-byte.  None of this aims at side-channel resistance; the simulator
cares about protocol-level behaviour, not implementation hardening.
"""

from __future__ import annotations

import hmac
from contextlib import contextmanager
from contextvars import ContextVar
from random import Random
from typing import Iterator, NamedTuple, Optional

from cryptography.exceptions import InvalidSignature, InvalidTag
from cryptography.hazmat.primitives.ciphers.aead import AESGCM
from cryptography.hazmat.primitives.hashes import SHA256
from cryptography.hazmat.primitives.kdf.hkdf import HKDF
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
_SHA256 = SHA256()
_KEY_LEN = 32  # X25519 secret, public and ephemeral keys
_NONCE_LEN = 12


class DecryptionFailure(Exception):
    """Authenticated decryption rejected the ciphertext (wrong key or tamper)."""


class PublicKey(NamedTuple):
    """The public half of a role-tagged key."""

    role: str
    data: bytes


class PrivateKey(NamedTuple):
    """The secret half of a role-tagged key."""

    role: str
    data: bytes


class AsymKeyPair(NamedTuple):
    """A role-tagged public and private key."""

    public: PublicKey
    private: PrivateKey

    @property
    def role(self) -> str:
        return self.public.role


def gen_keypair(role: str, rng: Random) -> AsymKeyPair:
    """Generate a role-tagged keypair deterministically from ``rng``."""
    if role not in KEY_ROLES:
        raise ValueError(f"unknown key role: {role}")
    raw = rng.randbytes(32)
    if role in SIGNING_ROLES:
        pub = Ed25519PrivateKey.from_private_bytes(raw).public_key().public_bytes_raw()
    else:
        pub = x25519_public_bytes(raw)
    return AsymKeyPair(PublicKey(role, pub), PrivateKey(role, raw))


# One run's record, behind one ``ContextVar``.  Deriving an X25519 public key
# and checking an Ed25519 signature each cost scalar multiplications, and a
# run uses its long-lived keys (venues, daily masters, health departments)
# thousands of times.  So the record keeps each secret key's public key
# (stored by :func:`gen_keypair`, otherwise derived once), each recipient's
# parsed public key and each exact (public key, message, signature) verdict:
# pure functions of their bytes, as many as the run's keys and days, dropped
# with the run.  Ephemeral keys are never kept.
#
# Overlapping trace windows reopen records sealed earlier in the run.  So in
# a run that can decrypt, ``sealed`` maps each ciphertext :func:`encrypt`
# returns to the recipient's public key followed by the plaintext, one
# ``bytes`` value (tuples would be tracked by the garbage collector).  For a
# recorded ciphertext, :func:`decrypt` returns the plaintext when the
# decryptor's own public key is the recorded recipient, and otherwise fails
# without computing: X25519, HKDF and AES-GCM are deterministic, and another
# key derives another shared secret, which AES-GCM rejects.  A tampered or
# foreign ciphertext is not recorded, so it still computes and fails.
# ``derived`` maps each seed secret to the trace ids :func:`derive_trace_id`
# returned, by counter, and :func:`candidate_trace_ids` offers only those to
# the server's matching of uploaded seeds: the server stores only ids that
# the check-in flow derived, so another counter could match only through a
# collision of truncated HMAC-SHA256 outputs.  A hit in either needs the full
# secret, so the record grants nothing that the secret does not.
class _Run:
    __slots__ = ("public", "recipients", "verdicts", "sealed", "derived")

    def __init__(self, can_decrypt: bool) -> None:
        self.public: dict[bytes, bytes] = {}
        self.recipients: dict[bytes, X25519PublicKey] = {}
        self.verdicts: dict[tuple[bytes, bytes, bytes], bool] = {}
        self.sealed: Optional[dict[bytes, bytes]] = {} if can_decrypt else None
        self.derived: Optional[dict[bytes, dict[int, bytes]]] = {} if can_decrypt else None


_RUN: ContextVar[Optional[_Run]] = ContextVar("lucasim_run", default=None)


@contextmanager
def run_record(can_decrypt: bool = True) -> Iterator[None]:
    """Keep one run's record until the block exits, also when it raises."""
    token = _RUN.set(_Run(can_decrypt))
    try:
        yield
    finally:
        _RUN.reset(token)


def _record() -> _Run:
    """The current run's record; outside a run a throwaway one, so every call computes."""
    return _RUN.get() or _Run(False)


def x25519_public_bytes(private: bytes) -> bytes:
    """Raw public key of the X25519 private key ``private``; ``ValueError`` if malformed."""
    run = _record()
    if private not in run.public:
        key = X25519PrivateKey.from_private_bytes(private)
        run.public[private] = key.public_key().public_bytes_raw()
    return run.public[private]


def _derive_session(shared: bytes, eph_pub: bytes) -> tuple[bytes, bytes]:
    """HKDF-SHA256 (RFC 5869) salted with ``eph_pub``: a 32-byte AES key and a 12-byte nonce."""
    okm = HKDF(_SHA256, 32 + _NONCE_LEN, salt=eph_pub, info=_HKDF_INFO).derive(shared)
    return okm[:32], okm[32:]


def _exchange(sk_data: bytes, eph_pub: bytes) -> bytes:
    eph = X25519PublicKey.from_public_bytes(eph_pub)
    return X25519PrivateKey.from_private_bytes(sk_data).exchange(eph)


def encrypt(pk: PublicKey, message: bytes, rng: Random) -> bytes:
    """Hybrid public-key encryption with a fresh ephemeral key from ``rng``."""
    if pk.role not in ENCRYPTION_ROLES:
        raise ValueError(f"role {pk.role} is not an encryption role")
    if not message:
        raise ValueError("empty plaintext")
    if len(message) > MAX_PLAINTEXT:
        raise ValueError(f"plaintext exceeds {MAX_PLAINTEXT} bytes")
    run = _record()
    if pk.data not in run.recipients:
        run.recipients[pk.data] = X25519PublicKey.from_public_bytes(pk.data)
    eph = X25519PrivateKey.from_private_bytes(rng.randbytes(32))
    eph_pub = eph.public_key().public_bytes_raw()
    key, nonce = _derive_session(eph.exchange(run.recipients[pk.data]), eph_pub)
    ct = eph_pub + AESGCM(key).encrypt(nonce, message, eph_pub)
    if run.sealed is not None:
        run.sealed[ct] = pk.data + message
    return ct


def decrypt(sk: PrivateKey, ciphertext: bytes) -> bytes:
    """Invert :func:`encrypt`; raises :class:`DecryptionFailure` on any mismatch."""
    if sk.role not in ENCRYPTION_ROLES:
        raise ValueError(f"role {sk.role} is not an encryption role")
    run = _record()
    known = run.sealed.get(ciphertext) if run.sealed else None
    if known is None or len(sk.data) != _KEY_LEN:
        return _decrypt(sk.data, ciphertext)
    if not known.startswith(run.public.get(sk.data) or x25519_public_bytes(sk.data)):
        raise DecryptionFailure("authentication failed")
    return known[_KEY_LEN:]


def _decrypt(sk_data: bytes, ciphertext: bytes) -> bytes:
    if len(ciphertext) < _KEY_LEN + 16:
        raise DecryptionFailure("ciphertext too short")
    eph_pub = ciphertext[:_KEY_LEN]
    try:
        key, nonce = _derive_session(_exchange(sk_data, eph_pub), eph_pub)
        return AESGCM(key).decrypt(nonce, ciphertext[_KEY_LEN:], eph_pub)
    except (InvalidTag, ValueError) as exc:
        raise DecryptionFailure("authentication failed") from exc


def sign(sk: PrivateKey, message: bytes) -> bytes:
    if sk.role not in SIGNING_ROLES:
        raise ValueError(f"role {sk.role} is not a signing role")
    return Ed25519PrivateKey.from_private_bytes(sk.data).sign(message)


def verify(pk: PublicKey, message: bytes, sig: bytes) -> bool:
    """True iff ``sig`` was produced over ``message`` by the pair of ``pk``."""
    if pk.role not in SIGNING_ROLES:
        return False
    verdicts = _record().verdicts
    triple = (pk.data, message, sig)
    if triple not in verdicts:
        try:
            Ed25519PublicKey.from_public_bytes(pk.data).verify(sig, message)
            verdicts[triple] = True
        except (InvalidSignature, ValueError):
            verdicts[triple] = False
    return verdicts[triple]


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


def derive_trace_id(seed: bytes, counter: int) -> bytes:
    """Pseudonym for one check-in: HMAC-SHA256 of the per-day counter under
    the day's seed secret, truncated."""
    if counter < 0:
        raise ValueError("counter must be non-negative")
    trace_id = hmac.digest(seed, counter.to_bytes(8, "big"), "sha256")[:TRACE_ID_LEN]
    derived = _record().derived
    if derived is not None:
        derived.setdefault(seed, {})[counter] = trace_id
    return trace_id


def derive_all_trace_ids(seed: bytes, max_counter: int) -> list[bytes]:
    """Enumerate trace ids 0..max_counter, exactly as the server does when tracing."""
    if max_counter < 0:
        raise ValueError("max_counter must be non-negative")
    counters = range(max_counter + 1)
    return [hmac.digest(seed, c.to_bytes(8, "big"), "sha256")[:TRACE_ID_LEN] for c in counters]


def candidate_trace_ids(seed: bytes, max_counter: int) -> list[bytes]:
    """The trace ids of counters 0..max_counter that can match a stored
    check-in, in counter order: in a run that can decrypt the ones the run
    derived for this seed, otherwise all of them."""
    derived = _record().derived
    if derived is None:
        return derive_all_trace_ids(seed, max_counter)
    ids = derived.get(seed, {})
    return [ids[counter] for counter in sorted(ids) if counter <= max_counter]


def gen_verification_code(rng: Random) -> str:
    return "".join(rng.choice(CODE_ALPHABET) for _ in range(VERIFICATION_CODE_LEN))


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
) -> bytes:
    """The inner (daily-master) layer of a user reference; a check-in adds the
    outer layer with :func:`encrypt` under the venue key."""
    return encrypt(master_pk, pack_user_reference(user_id, contact_key), rng)


def open_user_reference(inner: bytes, master_sk: PrivateKey) -> tuple[str, bytes]:
    """Remove the daily-master layer and recover (user_id, contact key)."""
    return unpack_user_reference(decrypt(master_sk, inner))
