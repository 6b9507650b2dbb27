"""Crypto primitive contracts: keygen, hybrid encryption, signatures, trace ids."""

import ast
import gc
import hmac
import json
from collections import Counter
from contextlib import nullcontext
from importlib import resources
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from cryptography.hazmat.primitives import hashes
from cryptography.hazmat.primitives.kdf.hkdf import HKDF

from conftest import run_derived, run_sealed
from lucasim import crypto
from lucasim.crypto import (
    DecryptionFailure,
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
    verify,
)
from lucasim.scenario import load_bundled_config, parse_config, run_scenario


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
    flipped = bytes([sig[0] ^ 1]) + sig[1:]
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


# -- sealed record: a run-made ciphertext opens to the plaintext it was made from --


def _count_decrypt_body(monkeypatch):
    """Record the (key bytes, ciphertext) of every call to the uncached decrypt body."""
    pairs = []
    body = crypto._decrypt

    def counted(sk_data, ciphertext):
        pairs.append((sk_data, ciphertext))
        return body(sk_data, ciphertext)

    monkeypatch.setattr(crypto, "_decrypt", counted)
    return pairs


def _count_exchanges(monkeypatch):
    """Record the (key bytes, ephemeral public key) of every decrypt-side X25519 exchange."""
    calls = []
    exchange = crypto._exchange

    def counted(sk_data, eph_pub):
        calls.append((sk_data, eph_pub))
        return exchange(sk_data, eph_pub)

    monkeypatch.setattr(crypto, "_exchange", counted)
    return calls


def test_memo_repeated_decrypt_returns_equal_bytes_without_computing(monkeypatch):
    pair = gen_keypair("venue", Random(41))
    outside = encrypt(pair.public, b"record", Random(42))
    foreign = encrypt(pair.public, b"foreign", Random(43))
    pairs = _count_decrypt_body(monkeypatch)
    with crypto.run_record():
        ct = encrypt(pair.public, b"record", Random(42))
        assert ct == outside
        assert run_sealed() == {ct: pair.public.data + b"record"}
        assert decrypt(pair.private, ct) == b"record"
        assert decrypt(crypto.PrivateKey("venue", bytes(pair.private.data)), ct) == b"record"
        assert pairs == []
        # A ciphertext made outside the block is not in the record.
        assert decrypt(pair.private, foreign) == b"foreign"
        assert pairs == [(pair.private.data, foreign)]
    # Outside a block every call computes, as it did before.
    assert decrypt(pair.private, ct) == b"record"
    assert decrypt(pair.private, ct) == b"record"
    assert len(pairs) == 3


def test_memo_wrong_key_still_fails_after_a_successful_decrypt(monkeypatch):
    a = gen_keypair("daily-master", Random(43))
    b = gen_keypair("daily-master", Random(44))
    pairs = _count_decrypt_body(monkeypatch)
    with crypto.run_record():
        ct = encrypt(a.public, b"reference", Random(45))
        assert decrypt(a.private, ct) == b"reference"
        for _ in range(2):
            with pytest.raises(DecryptionFailure):
                decrypt(b.private, ct)
        assert decrypt(a.private, ct) == b"reference"
    # The record names the recipient, so the wrong key fails without computing.
    assert pairs == []


@pytest.mark.parametrize("short", [False, True], ids=["wrong-key", "too-short"])
def test_memoized_failure_raises_its_original_message(monkeypatch, short):
    a = gen_keypair("venue", Random(46))
    b = gen_keypair("venue", Random(47))
    pairs = _count_decrypt_body(monkeypatch)
    with crypto.run_record():
        ct = encrypt(a.public, b"hello", Random(48))
        if short:
            ct = ct[:40]
        with pytest.raises(DecryptionFailure) as first:
            decrypt(b.private, ct)
        with pytest.raises(DecryptionFailure) as again:
            decrypt(b.private, ct)
    # A truncated ciphertext is not in the record, so only it computes.
    assert len(pairs) == (2 if short else 0)
    assert type(again.value) is DecryptionFailure
    assert str(again.value) == str(first.value)
    assert str(first.value) == ("ciphertext too short" if short else "authentication failed")


def test_memo_malformed_key_raises_decryption_failure(monkeypatch):
    pair = gen_keypair("venue", Random(63))
    pairs = _count_decrypt_body(monkeypatch)
    with crypto.run_record():
        ct = encrypt(pair.public, b"hello", Random(64))
        for data in (pair.private.data[:31], pair.private.data + b"\x00"):
            with pytest.raises(DecryptionFailure):
                decrypt(crypto.PrivateKey("venue", data), ct)
        assert decrypt(pair.private, ct) == b"hello"
    assert len(pairs) == 2


def test_memo_keeps_the_role_check_in_front(monkeypatch):
    pair = gen_keypair("venue", Random(49))
    pairs = _count_decrypt_body(monkeypatch)
    with crypto.run_record():
        ct = encrypt(pair.public, b"hello", Random(50))
        # The record holds this ciphertext for exactly these key bytes.
        with pytest.raises(ValueError):
            decrypt(crypto.PrivateKey("health-dept-sign", pair.private.data), ct)
        assert decrypt(pair.private, ct) == b"hello"
    assert pairs == []


def test_memo_is_dropped_when_its_block_exits():
    assert run_sealed() is None and run_derived() is None
    with pytest.raises(RuntimeError):
        with crypto.run_record():
            assert run_sealed() == {} and run_derived() == {}
            raise RuntimeError("run aborted")
    assert run_sealed() is None and run_derived() is None


def _two_trace_leakage_config():
    """The bundled trace_leakage scenario plus a second traced positive, guest 1,
    who met guest 0 on day 1: the two windows reopen the same records."""
    ref = resources.files("lucasim").joinpath("scenarios", "trace_leakage.json")
    data = json.loads(ref.read_text(encoding="utf-8"))
    data["positives"].append({"guest": 1, "report_day": 2, "traced": True, "window_back": 2})
    return parse_config(data)


def _count_decrypts(monkeypatch):
    """Record the sealed record in force at every public decrypt call."""
    records = []
    public = crypto.decrypt

    def counted(sk, ciphertext):
        records.append(run_sealed())
        return public(sk, ciphertext)

    monkeypatch.setattr(crypto, "decrypt", counted)
    return records


def test_memo_lives_for_one_run_only(monkeypatch):
    config = _two_trace_leakage_config()
    records = _count_decrypts(monkeypatch)
    per_run = []
    for _ in range(2):
        del records[:]
        result = run_scenario(config)
        assert run_sealed() is None
        assert [t.status for t in result.traces] == ["ok", "ok"]
        assert records and all(r is records[0] for r in records)
        per_run.append(records[0])
    first, second = per_run
    # Equal contents, since the runs replay byte for byte, but a new record.
    assert first is not second and first == second


def _sealed_at_encrypt(monkeypatch):
    """Record the sealed record in force at every encrypt call."""
    records = []
    public = crypto.encrypt

    def counted(pk, message, rng):
        records.append(run_sealed())
        return public(pk, message, rng)

    monkeypatch.setattr(crypto, "encrypt", counted)
    return records


def test_only_a_run_that_can_decrypt_keeps_a_sealed_record(monkeypatch):
    records = _sealed_at_encrypt(monkeypatch)
    # Passive, with no traced positive: nothing in the run decrypts.
    run_scenario(load_bundled_config("honest_baseline"))
    assert records and all(r is None for r in records)
    del records[:]
    run_scenario(load_bundled_config("trace_leakage"))
    assert records and records[0] is not None
    assert all(r is records[0] for r in records)


def test_sealed_record_values_are_untracked_bytes():
    rng = Random(65)
    master = gen_keypair("daily-master", rng)
    venue = gen_keypair("venue", rng)
    with crypto.run_record():
        inner = seal_user_reference(master.public, "ef" * 16, rng.randbytes(32), rng)
        outer = encrypt(venue.public, inner, rng)
        sealed = run_sealed()
    assert list(sealed) == [inner, outer]
    assert sealed[outer] == venue.public.data + inner
    for value in sealed.values():
        assert type(value) is bytes and not gc.is_tracked(value)


def test_sealed_record_opens_a_run_made_ciphertext_without_an_exchange(monkeypatch):
    pair = gen_keypair("venue", Random(51))
    outside = encrypt(pair.public, b"outer layer", Random(52))
    exchanges = _count_exchanges(monkeypatch)
    expected = decrypt(pair.private, outside)
    assert len(exchanges) == 1
    with crypto.run_record():
        ct = encrypt(pair.public, b"outer layer", Random(52))
        del exchanges[:]
        assert ct == outside
        assert decrypt(pair.private, ct) == expected == b"outer layer"
        # Both layers of a check-in reference open from the record.
        rng = Random(53)
        master = gen_keypair("daily-master", rng)
        contact_key = rng.randbytes(32)
        inner = seal_user_reference(master.public, "ab" * 16, contact_key, rng)
        outer = encrypt(pair.public, inner, rng)
        stripped = decrypt(pair.private, outer)
        assert open_user_reference(stripped, master.private) == ("ab" * 16, contact_key)
    assert exchanges == []


def test_sealed_record_wrong_key_still_fails(monkeypatch):
    a = gen_keypair("daily-master", Random(53))
    b = gen_keypair("daily-master", Random(54))
    exchanges = _count_exchanges(monkeypatch)
    with crypto.run_record():
        ct = encrypt(a.public, b"reference", Random(55))
        with pytest.raises(DecryptionFailure, match="authentication failed"):
            decrypt(b.private, ct)
        assert decrypt(a.private, ct) == b"reference"
    assert exchanges == []


def test_sealed_record_flipped_body_still_fails_aead(monkeypatch):
    pair = gen_keypair("venue", Random(56))
    pairs = _count_decrypt_body(monkeypatch)
    with crypto.run_record():
        ct = encrypt(pair.public, b"hello", Random(57))
        flipped = []
        for i in (0, 32, len(ct) - 1):  # ephemeral key, first body byte, last tag byte
            bad = bytearray(ct)
            bad[i] ^= 0x01
            flipped.append(bytes(bad))
            with pytest.raises(DecryptionFailure):
                decrypt(pair.private, flipped[-1])
        assert decrypt(pair.private, ct) == b"hello"
    assert pairs == [(pair.private.data, bad) for bad in flipped]


def test_sealed_record_decides_by_the_recorded_public_key(monkeypatch):
    pair = gen_keypair("venue", Random(58))
    other = gen_keypair("venue", Random(59))
    exchanges = _count_exchanges(monkeypatch)
    with crypto.run_record():
        ct = encrypt(pair.public, b"hello", Random(60))
        # Recorded for a different recipient, and with a different plaintext.
        run_sealed()[ct] = other.public.data + b"forged"
        with pytest.raises(DecryptionFailure, match="authentication failed"):
            decrypt(pair.private, ct)
        assert decrypt(other.private, ct) == b"forged"
    assert exchanges == []


@pytest.mark.parametrize("exit_by", ["return", "exception"])
def test_sealed_record_is_gone_after_its_block_exits(monkeypatch, exit_by):
    pair = gen_keypair("venue", Random(61))
    pairs = _count_decrypt_body(monkeypatch)
    seed = b"s" * 32
    with pytest.raises(RuntimeError) if exit_by == "exception" else nullcontext():
        with crypto.run_record():
            ct = encrypt(pair.public, b"hello", Random(62))
            assert list(run_sealed()) == [ct]
            assert crypto.candidate_trace_ids(seed, 63) == []
            derive_trace_id(seed, 3)
            if exit_by == "exception":
                raise RuntimeError("run aborted")
    assert run_sealed() is None and run_derived() is None
    assert decrypt(pair.private, ct) == b"hello"
    assert crypto.candidate_trace_ids(seed, 63) == derive_all_trace_ids(seed, 63)
    with crypto.run_record():
        assert run_sealed() == {} and run_derived() == {}
        assert decrypt(pair.private, ct) == b"hello"
        assert crypto.candidate_trace_ids(seed, 63) == []
    assert len(pairs) == 2


def test_sealed_record_skips_the_same_exchanges_in_consecutive_runs(monkeypatch):
    config = _two_trace_leakage_config()
    bodies = _count_decrypt_body(monkeypatch)
    exchanges = _count_exchanges(monkeypatch)
    decrypts = _count_decrypts(monkeypatch)
    per_run = []
    for _ in range(2):
        del bodies[:], exchanges[:], decrypts[:]
        result = run_scenario(config)
        assert [t.status for t in result.traces] == ["ok", "ok"]
        per_run.append((len(decrypts), len(bodies), len(exchanges)))
    assert per_run[0] == per_run[1]
    # Every record this scenario opens was sealed in the run to the opener's key.
    (opened, computed, exchanged), _ = per_run
    assert opened > 0 and computed == exchanged == 0


def test_sealed_record_exchanges_exactly_for_wrong_key_attempts(monkeypatch):
    """In the attack matrix, trial decryption with other keys fails, and every
    decrypt, failing or not, is decided by the record without computing."""
    config = load_bundled_config("full_attack_matrix")
    plain = run_scenario(config)
    computed = _count_decrypt_body(monkeypatch)
    failed = []
    public = crypto.decrypt

    def counted_public(sk, ciphertext):
        try:
            return public(sk, ciphertext)
        except DecryptionFailure:
            failed.append((sk.data, ciphertext))
            raise

    monkeypatch.setattr(crypto, "decrypt", counted_public)
    result = run_scenario(config)
    assert result.artifacts() == plain.artifacts()
    assert failed and computed == []


# -- trace ids -------------------------------------------------------------------


@pytest.mark.parametrize("key_len", [0, 32, 64, 65, 100])
def test_trace_ids_equal_rfc2104_hmac(key_len):
    secret = Random(key_len).randbytes(key_len)
    seed = secret
    expected = [hmac.digest(secret, c.to_bytes(8, "big"), "sha256")[:16] for c in range(64)]
    assert [derive_trace_id(seed, c) for c in range(64)] == expected
    assert derive_all_trace_ids(seed, 63) == expected


@settings(max_examples=200, deadline=None)
@given(st.binary(min_size=32, max_size=32), st.binary(min_size=32, max_size=32))
def test_derive_session_equals_hkdf_sha256(shared, eph_pub):
    okm = HKDF(hashes.SHA256(), 44, salt=eph_pub, info=crypto._HKDF_INFO).derive(shared)
    assert crypto._derive_session(shared, eph_pub) == (okm[:32], okm[32:])


def test_trace_id_record_offers_only_derived_counters_below_the_bound():
    seed, underived = b"s" * 32, b"u" * 32
    every = derive_all_trace_ids(seed, 63)
    # Outside a record, every counter is a candidate.
    assert crypto.candidate_trace_ids(seed, 63) == every
    with crypto.run_record():
        for counter in (5, 0, 64, 2, 70):
            derive_trace_id(seed, counter)
        # In counter order, whatever order they were derived in.
        derived = [every[0], every[2], every[5]]
        assert crypto.candidate_trace_ids(seed, 63) == derived
        assert crypto.candidate_trace_ids(seed, 4) == [every[0], every[2]]
        # The record holds counters 64 and 70, but no bound of 63 offers them.
        assert set(run_derived()[seed]) == {0, 2, 5, 64, 70}
        assert crypto.candidate_trace_ids(underived, 63) == []
        # The record is keyed by the secret's value: an equal secret built
        # apart offers the same ids.
        assert crypto.candidate_trace_ids(bytes(bytearray(seed)), 63) == derived


def test_enumerating_trace_ids_in_a_run_leaves_its_record_alone():
    seed = b"e" * 32
    with crypto.run_record():
        derive_trace_id(seed, 3)
        before = {k: dict(ids) for k, ids in run_derived().items()}
        every = derive_all_trace_ids(seed, 63)
        assert len(every) == 64
        derive_all_trace_ids(b"f" * 32, 63)
        assert run_derived() == before
        assert crypto.candidate_trace_ids(seed, 63) == [every[3]]
        assert crypto.candidate_trace_ids(b"f" * 32, 63) == []


def test_trace_ids_reject_negative_counters():
    seed = b"s" * 32
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
    seed = b"s" * 32
    assert derive_trace_id(seed, 0) == derive_trace_id(seed, 0)
    assert len(derive_trace_id(seed, 0)) == crypto.TRACE_ID_LEN


def test_trace_id_counter_changes_output():
    seed = b"s" * 32
    assert derive_trace_id(seed, 0) != derive_trace_id(seed, 1)


def test_trace_id_small_collision_scan():
    rng = Random(99)
    seen = set()
    for _ in range(1000):
        seed = rng.randbytes(32)
        seen.add(derive_trace_id(seed, rng.randrange(64)))
    assert len(seen) == 1000


def test_derive_all_trace_ids():
    seed = b"q" * 32
    ids = derive_all_trace_ids(seed, 0)
    assert ids == [derive_trace_id(seed, 0)]
    ids = derive_all_trace_ids(seed, 9)
    assert len(ids) == 10
    assert ids[7] == derive_trace_id(seed, 7)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**31), st.integers(0, 1000))
def test_trace_id_pure_function_property(seed_int, counter):
    secret = Random(seed_int).randbytes(32)
    a = derive_trace_id(secret, counter)
    b = derive_trace_id(secret, counter)
    assert a == b


def test_user_reference_two_layers():
    rng = Random(0)
    master = gen_keypair("daily-master", rng)
    venue = gen_keypair("venue", rng)
    contact_key = rng.randbytes(32)
    inner = seal_user_reference(master.public, "ab" * 16, contact_key, rng)
    outer = encrypt(venue.public, inner, rng)
    stripped = decrypt(venue.private, outer)
    assert stripped == inner
    user_id, key = open_user_reference(stripped, master.private)
    assert user_id == "ab" * 16
    assert key == contact_key


def test_layer_order_enforced():
    rng = Random(0)
    master = gen_keypair("daily-master", rng)
    venue = gen_keypair("venue", rng)
    # Outside a run AES-GCM rejects a wrong layer's key; inside one the sealed
    # record names another recipient.
    for in_run in (False, True):
        with crypto.run_record() if in_run else nullcontext():
            inner = seal_user_reference(master.public, "cd" * 16, rng.randbytes(32), rng)
            outer = encrypt(venue.public, inner, rng)
            assert (outer in (run_sealed() or {})) is in_run
            # Master key first never works on a two-layer reference, and the
            # venue key never removes the inner layer.
            with pytest.raises(DecryptionFailure):
                decrypt(master.private, outer)
            with pytest.raises(DecryptionFailure):
                open_user_reference(outer, master.private)
            with pytest.raises(DecryptionFailure):
                decrypt(venue.private, inner)


def test_verification_code_alphabet_and_length():
    code = crypto.gen_verification_code(Random(5))
    assert len(code) == crypto.VERIFICATION_CODE_LEN
    assert all(c in crypto.CODE_ALPHABET for c in code)
    assert crypto.gen_verification_code(Random(5)) == code


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


# -- key derivation has one entry point ------------------------------------------


_ASYMMETRIC = "cryptography.hazmat.primitives.asymmetric"


def _imported_modules(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module
            yield from (f"{node.module}.{alias.name}" for alias in node.names)


def test_only_crypto_imports_asymmetric_primitives():
    package = Path(crypto.__file__).parent
    offenders = sorted(
        path.name
        for path in package.glob("*.py")
        if path.name != "crypto.py"
        and any(
            name == _ASYMMETRIC or name.startswith(_ASYMMETRIC + ".")
            for name in _imported_modules(ast.parse(path.read_text(encoding="utf-8")))
        )
    )
    assert "crypto.py" in {path.name for path in package.glob("*.py")}
    assert offenders == []


def test_x25519_public_bytes_matches_gen_keypair():
    for seed in range(5):
        pair = gen_keypair("venue", Random(seed))
        assert crypto.x25519_public_bytes(pair.private.data) == pair.public.data
    with pytest.raises(ValueError):
        crypto.x25519_public_bytes(b"\x00" * 31)


def test_no_secret_key_loads_twice_in_a_run_with_more_than_256_daily_keys(monkeypatch):
    """Consolidation tries every recovered daily master key on every record,
    in day order, so a run of 260 days cycles through 260 keys; the run's
    record derives each secret key's public key once, however many it holds."""
    ref = resources.files("lucasim").joinpath("scenarios", "full_attack_matrix.json")
    data = json.loads(ref.read_text(encoding="utf-8"))
    data["duration_days"] = 260
    data["population"].update(guests=30, visits_per_day=0.3)
    loads = Counter()
    real = crypto.X25519PrivateKey

    class CountedLoads:
        @staticmethod
        def from_private_bytes(data):
            loads[data] += 1
            return real.from_private_bytes(data)

    monkeypatch.setattr(crypto, "X25519PrivateKey", CountedLoads)
    result = run_scenario(parse_config(data))
    assert len(result.world.server.master_keys) > 256
    assert loads and max(loads.values()) == 1
