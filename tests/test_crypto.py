"""Crypto primitive contracts: keygen, hybrid encryption, signatures, trace ids."""

import hmac
import json
from importlib import resources
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lucasim import crypto
from lucasim.crypto import (
    DecryptionFailure,
    TracingSeed,
    decrypt,
    derive_all_trace_ids,
    derive_trace_id,
    encrypt,
    gen_keypair,
    open_user_reference,
    seal_user_reference,
    sign,
    sym_decrypt,
    sym_encrypt,
    unwrap_outer,
    verify,
    wrap_reference,
)
from lucasim.scenario import parse_config, run_scenario


def test_gen_keypair_deterministic_under_seed():
    a = gen_keypair("venue", Random(42))
    b = gen_keypair("venue", Random(42))
    assert a == b


def test_gen_keypair_distinct_seeds_distinct_keys():
    a = gen_keypair("venue", Random(42))
    b = gen_keypair("venue", Random(43))
    assert a.public != b.public


def test_gen_keypair_roundtrip_64_bytes():
    pair = gen_keypair("daily-master", Random(7))
    msg = bytes(range(64))
    assert decrypt(pair.private, encrypt(pair.public, msg, Random(1))) == msg


def test_keypair_role_tags_match():
    pair = gen_keypair("health-dept-enc", Random(5))
    assert pair.public.role == pair.private.role == "health-dept-enc"


def test_unknown_role_rejected():
    with pytest.raises(ValueError):
        gen_keypair("nonsense", Random(0))


def test_encrypt_decrypt_hello():
    pair = gen_keypair("venue", Random(1))
    ct = encrypt(pair.public, b"hello", Random(2))
    assert decrypt(pair.private, ct) == b"hello"


def test_decrypt_wrong_key_fails():
    a = gen_keypair("venue", Random(1))
    b = gen_keypair("venue", Random(2))
    ct = encrypt(a.public, b"hello", Random(3))
    with pytest.raises(DecryptionFailure):
        decrypt(b.private, ct)


def test_decrypt_tampered_ciphertext_fails():
    pair = gen_keypair("venue", Random(1))
    ct = bytearray(encrypt(pair.public, b"hello", Random(3)))
    ct[-1] ^= 0x01
    with pytest.raises(DecryptionFailure):
        decrypt(pair.private, bytes(ct))


def test_encrypt_rejects_empty_and_oversize():
    pair = gen_keypair("venue", Random(1))
    with pytest.raises(ValueError):
        encrypt(pair.public, b"", Random(2))
    with pytest.raises(ValueError):
        encrypt(pair.public, b"x" * (crypto.MAX_PLAINTEXT + 1), Random(2))


@settings(max_examples=200, deadline=None)
@given(st.binary(min_size=1, max_size=4096), st.integers(0, 2**32))
def test_roundtrip_property(message, seed):
    pair = gen_keypair("venue", Random(seed))
    assert decrypt(pair.private, encrypt(pair.public, message, Random(seed + 1))) == message


def test_sign_verify():
    pair = gen_keypair("health-dept-sign", Random(1))
    sig = sign(pair.private, b"message")
    assert verify(pair.public, b"message", sig)


def test_verify_wrong_key_false():
    a = gen_keypair("health-dept-sign", Random(1))
    b = gen_keypair("health-dept-sign", Random(2))
    sig = sign(a.private, b"message")
    assert not verify(b.public, b"message", sig)


def test_verify_modified_message_false():
    pair = gen_keypair("health-dept-sign", Random(1))
    sig = sign(pair.private, b"message")
    assert not verify(pair.public, b"messagf", sig)


def test_verify_rejections_survive_a_cached_accept():
    pair = gen_keypair("health-dept-sign", Random(11))
    other = gen_keypair("health-dept-sign", Random(12))
    sig = sign(pair.private, b"daily key bundle")
    assert verify(pair.public, b"daily key bundle", sig)
    flipped = crypto.Signature(bytes([sig.data[0] ^ 1]) + sig.data[1:])
    assert not verify(pair.public, b"daily key bundlf", sig)
    assert not verify(pair.public, b"daily key bundle", flipped)
    assert not verify(other.public, b"daily key bundle", sig)
    as_venue_key = crypto.PublicKey("venue", pair.public.data)
    assert not verify(as_venue_key, b"daily key bundle", sig)
    assert verify(pair.public, b"daily key bundle", sig)


def test_decrypt_wrong_key_fails_after_a_successful_decrypt():
    a = gen_keypair("daily-master", Random(21))
    b = gen_keypair("daily-master", Random(22))
    ct = encrypt(a.public, b"reference", Random(23))
    assert decrypt(a.private, ct) == b"reference"
    with pytest.raises(DecryptionFailure):
        decrypt(b.private, ct)
    assert decrypt(a.private, ct) == b"reference"


def test_malformed_key_bytes_rejected():
    pair = gen_keypair("venue", Random(31))
    ct = encrypt(pair.public, b"hello", Random(32))
    for _ in range(2):  # a rejected parse must not be remembered as a key
        with pytest.raises(DecryptionFailure):
            decrypt(crypto.PrivateKey("venue", pair.private.data[:31]), ct)
        with pytest.raises(ValueError):
            encrypt(crypto.PublicKey("venue", pair.public.data[:31]), b"hello", Random(33))


# -- decrypt memo: one run's scope, exact bytes, failures kept as messages ---------


def _count_decrypt_body(monkeypatch):
    """Record the (key bytes, ciphertext) of every call to the uncached decrypt body."""
    pairs = []
    body = crypto._decrypt

    def counted(sk_data, ciphertext):
        pairs.append((sk_data, ciphertext))
        return body(sk_data, ciphertext)

    monkeypatch.setattr(crypto, "_decrypt", counted)
    return pairs


def test_memo_repeated_decrypt_returns_equal_bytes_once_computed(monkeypatch):
    pair = gen_keypair("venue", Random(41))
    ct = encrypt(pair.public, b"record", Random(42))
    pairs = _count_decrypt_body(monkeypatch)
    with crypto.decrypt_memo():
        assert decrypt(pair.private, ct) == b"record"
        assert decrypt(crypto.PrivateKey("venue", bytes(pair.private.data)), ct) == b"record"
    assert len(pairs) == 1
    # Outside a memo block every call computes, as it did before.
    assert decrypt(pair.private, ct) == b"record"
    assert decrypt(pair.private, ct) == b"record"
    assert len(pairs) == 3


def test_memo_wrong_key_still_fails_after_a_successful_decrypt():
    a = gen_keypair("daily-master", Random(43))
    b = gen_keypair("daily-master", Random(44))
    ct = encrypt(a.public, b"reference", Random(45))
    with crypto.decrypt_memo():
        assert decrypt(a.private, ct) == b"reference"
        for _ in range(2):
            with pytest.raises(DecryptionFailure):
                decrypt(b.private, ct)
        assert decrypt(a.private, ct) == b"reference"


@pytest.mark.parametrize("short", [False, True], ids=["wrong-key", "too-short"])
def test_memoized_failure_raises_its_original_message(monkeypatch, short):
    a = gen_keypair("venue", Random(46))
    b = gen_keypair("venue", Random(47))
    ct = encrypt(a.public, b"hello", Random(48))
    if short:
        ct = ct[:40]
    pairs = _count_decrypt_body(monkeypatch)
    with crypto.decrypt_memo():
        with pytest.raises(DecryptionFailure) as first:
            decrypt(b.private, ct)
        with pytest.raises(DecryptionFailure) as again:
            decrypt(b.private, ct)
    assert len(pairs) == 1
    assert type(again.value) is DecryptionFailure
    assert str(again.value) == str(first.value)
    assert str(first.value) == ("ciphertext too short" if short else "authentication failed")


def test_memo_keeps_the_role_check_in_front():
    pair = gen_keypair("venue", Random(49))
    ct = encrypt(pair.public, b"hello", Random(50))
    with crypto.decrypt_memo():
        assert decrypt(pair.private, ct) == b"hello"
        with pytest.raises(ValueError):
            decrypt(crypto.PrivateKey("health-dept-sign", pair.private.data), ct)


def test_memo_is_dropped_when_its_block_exits():
    assert crypto._DECRYPT_MEMO.get() is None
    with pytest.raises(RuntimeError):
        with crypto.decrypt_memo():
            assert crypto._DECRYPT_MEMO.get() == {}
            raise RuntimeError("run aborted")
    assert crypto._DECRYPT_MEMO.get() is None


def _two_trace_leakage_config():
    """The bundled trace_leakage scenario plus a second traced positive, guest 1,
    who met guest 0 on day 1: the two windows reopen the same records."""
    ref = resources.files("lucasim").joinpath("scenarios", "trace_leakage.json")
    data = json.loads(ref.read_text(encoding="utf-8"))
    data["positives"].append({"guest": 1, "report_day": 2, "traced": True, "window_back": 2})
    return parse_config(data)


def test_memo_lives_for_one_run_only(monkeypatch):
    config = _two_trace_leakage_config()
    pairs = _count_decrypt_body(monkeypatch)
    calls = []
    memoized = crypto.decrypt

    def counted(sk, ciphertext):
        calls.append(1)
        return memoized(sk, ciphertext)

    monkeypatch.setattr(crypto, "decrypt", counted)
    per_run = []
    for _ in range(2):
        del pairs[:], calls[:]
        result = run_scenario(config)
        assert crypto._DECRYPT_MEMO.get() is None
        assert [t.status for t in result.traces] == ["ok", "ok"]
        per_run.append((len(pairs), len(set(pairs)), len(calls)))
    (bodies, distinct, decrypts), second = per_run
    assert second == per_run[0]
    assert bodies == distinct < decrypts


# -- trace ids -------------------------------------------------------------------


@pytest.mark.parametrize("key_len", [0, 32, 64, 65, 100])
def test_trace_ids_equal_rfc2104_hmac(key_len):
    secret = Random(key_len).randbytes(key_len)
    seed = TracingSeed(day=0, secret=secret)
    expected = [hmac.digest(secret, c.to_bytes(8, "big"), "sha256")[:16] for c in range(64)]
    assert [derive_trace_id(seed, c) for c in range(64)] == expected
    assert derive_all_trace_ids(seed, 63) == expected


def test_trace_ids_reject_negative_counters():
    seed = TracingSeed(day=0, secret=b"s" * 32)
    with pytest.raises(ValueError):
        derive_trace_id(seed, -1)
    with pytest.raises(ValueError):
        derive_all_trace_ids(seed, -1)


def test_sym_roundtrip_and_tamper():
    key = Random(1).randbytes(32)
    ct = sym_encrypt(key, b"contact record", Random(2))
    assert sym_decrypt(key, ct) == b"contact record"
    bad = bytearray(ct)
    bad[-1] ^= 1
    with pytest.raises(DecryptionFailure):
        sym_decrypt(key, bytes(bad))
    with pytest.raises(DecryptionFailure):
        sym_decrypt(Random(3).randbytes(32), ct)


def test_trace_id_deterministic():
    seed = TracingSeed(day=0, secret=b"s" * 32)
    assert derive_trace_id(seed, 0) == derive_trace_id(seed, 0)
    assert len(derive_trace_id(seed, 0)) == crypto.TRACE_ID_LEN


def test_trace_id_counter_changes_output():
    seed = TracingSeed(day=0, secret=b"s" * 32)
    assert derive_trace_id(seed, 0) != derive_trace_id(seed, 1)


def test_trace_id_small_collision_scan():
    rng = Random(99)
    seen = set()
    for _ in range(1000):
        seed = TracingSeed(day=0, secret=rng.randbytes(32))
        seen.add(derive_trace_id(seed, rng.randrange(64)))
    assert len(seen) == 1000


def test_derive_all_trace_ids():
    seed = TracingSeed(day=3, secret=b"q" * 32)
    ids = derive_all_trace_ids(seed, 0)
    assert ids == [derive_trace_id(seed, 0)]
    ids = derive_all_trace_ids(seed, 9)
    assert len(ids) == 10
    assert ids[7] == derive_trace_id(seed, 7)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**31), st.integers(0, 1000))
def test_trace_id_pure_function_property(seed_int, counter):
    secret = Random(seed_int).randbytes(32)
    a = derive_trace_id(TracingSeed(0, secret), counter)
    b = derive_trace_id(TracingSeed(0, secret), counter)
    assert a == b


def test_user_reference_two_layers():
    rng = Random(0)
    master = gen_keypair("daily-master", rng)
    venue = gen_keypair("venue", rng)
    contact_key = rng.randbytes(32)
    inner = seal_user_reference(master.public, "ab" * 16, contact_key, rng)
    outer = wrap_reference(inner, venue.public, rng)
    assert outer.layers == 2
    stripped = unwrap_outer(outer, venue.private)
    assert stripped.ciphertext == inner.ciphertext
    user_id, key = open_user_reference(stripped, master.private)
    assert user_id == "ab" * 16
    assert key == contact_key


def test_layer_order_enforced():
    rng = Random(0)
    master = gen_keypair("daily-master", rng)
    venue = gen_keypair("venue", rng)
    inner = seal_user_reference(master.public, "cd" * 16, rng.randbytes(32), rng)
    outer = wrap_reference(inner, venue.public, rng)
    # Master key first never works on a two-layer reference.
    with pytest.raises(DecryptionFailure):
        unwrap_outer(outer, master.private)
    with pytest.raises(ValueError):
        open_user_reference(outer, master.private)


def test_verification_code_alphabet_and_length():
    code = crypto.gen_verification_code(Random(5))
    assert len(code) == crypto.VERIFICATION_CODE_LEN
    assert all(c in crypto.CODE_ALPHABET for c in code)
    assert crypto.gen_verification_code(Random(5), length=12) != code


# A table-based stand-in demonstrating that the protocol only relies on the
# abstract contract of the hybrid scheme, not on any particular cipher.
class _IdealSuite:
    def __init__(self):
        self._table = {}
        self._serial = 0

    def gen_keypair(self, role, rng):
        secret = rng.randbytes(32)
        return crypto.AsymKeyPair(
            crypto.PublicKey(role, b"pub:" + secret), crypto.PrivateKey(role, b"prv:" + secret)
        )

    def encrypt(self, pk, message, rng):
        self._serial += 1
        token = self._serial.to_bytes(8, "big") + rng.randbytes(24)
        self._table[(pk.data[4:], token)] = message
        return token

    def decrypt(self, sk, ciphertext):
        try:
            return self._table[(sk.data[4:], ciphertext)]
        except KeyError:
            raise DecryptionFailure("no such ciphertext under this key")


class _RealSuite:
    gen_keypair = staticmethod(gen_keypair)
    encrypt = staticmethod(encrypt)
    decrypt = staticmethod(decrypt)

    def __init__(self):
        pass


@pytest.mark.parametrize("suite_cls", [_RealSuite, _IdealSuite])
def test_cipher_suites_interchangeable(suite_cls):
    suite = suite_cls()
    rng = Random(11)
    pair = suite.gen_keypair("venue", rng)
    other = suite.gen_keypair("venue", Random(12))
    ct = suite.encrypt(pair.public, b"payload", rng)
    assert suite.decrypt(pair.private, ct) == b"payload"
    with pytest.raises(DecryptionFailure):
        suite.decrypt(other.private, ct)
