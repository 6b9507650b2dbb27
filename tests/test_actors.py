"""Protocol flow behaviour: registration, rotation, check-ins, tracing."""

import json
from random import Random

import pytest

from conftest import make_world, populate, replace_venue, run_derived, run_sealed, state_text
from lucasim import actors, crypto
from lucasim.actors import (
    MasterKeyInfo,
    SimulationError,
    fetch_master_pk,
    flow_checkin_scanner,
    flow_checkin_self,
    flow_checkout,
    flow_register_health_dept,
    flow_register_user,
    flow_report_positive,
    flow_rotate_daily_master_key,
    flow_trace,
    hd_get_master_sk,
    hd_open_references,
    master_sign_message,
    venue_decrypt_records,
)
from lucasim.adversary import Adversary, make_attack
from lucasim.model import (
    MAX_CHECKINS_PER_DAY,
    MAX_STAY_S,
    MAX_WINDOW_DAYS,
    MitigationConfig,
    verify_certificate,
    visit_interval,
)
from lucasim.scenario import bundled_scenario_names, load_bundled_config, parse_config, run_scenario
from oracle import intervals_overlap, true_cotenants


def _transcript_text(world) -> str:
    return world.transport.export_transcript_ndjson()


def _server_state_text(world) -> str:
    return state_text(world.server)


def test_register_user_grows_db_and_hides_contact(world):
    assert len(world.server.users) == 4
    blob = _transcript_text(world) + _server_state_text(world)
    for guest in world.guests:
        assert guest.contact["name"] not in blob
        assert guest.contact["phone"] not in blob
        assert world.server.users[guest.user_id].phone_validated


def test_register_user_twice_rejected(world):
    with pytest.raises(SimulationError, match=f"{world.guests[0].label} is already registered"):
        flow_register_user(world, world.guests[0])


def test_hundred_registrations_distinct_user_ids():
    world = make_world("uniq")
    for i in range(100):
        guest = world.new_guest({"name": f"G{i}", "address": "x", "phone": str(i)})
        flow_register_user(world, guest)
    assert len({g.user_id for g in world.guests}) == 100


def test_register_venue_stores_geo_and_owner(world):
    rec = world.server.venues["v000"]
    assert rec.lat and rec.lon
    assert rec.owner_contact.startswith("owner-")
    assert rec.public_key == world.venues[0].keypair.public


def test_venue_private_key_never_in_transcript(world):
    blob = _transcript_text(world) + _server_state_text(world)
    for venue in world.venues:
        assert venue.keypair.private.data.hex() not in blob


def test_venue_lookup_by_scanner_and_id(world):
    for venue in world.venues:
        assert world.venue_by_id(venue.venue_id) is venue
        for sid in venue.scanner_ids + [venue.self_scanner_id]:
            assert world.venue_of_scanner(sid) is venue
    with pytest.raises(SimulationError):
        world.venue_by_id("v999")
    with pytest.raises(SimulationError):
        world.venue_of_scanner("v999:s0")


def test_two_venues_distinct_scanner_namespaces(world):
    # The server files each of a venue's scanners under that venue alone.
    s0, s1 = (
        {sid for sid, vid in world.server.scanner_to_venue.items() if vid == venue.venue_id}
        for venue in world.venues
    )
    for venue, scanners in zip(world.venues, (s0, s1)):
        assert scanners == {*venue.scanner_ids, venue.self_scanner_id}
    assert not s0 & s1


def test_register_hd_without_pki_has_no_certificate(world):
    assert all(rec.enc_cert is None for rec in world.server.hds.values())


def test_register_hd_with_pki_certificate_verifies():
    world = populate(make_world("pki", pki=True), hds=2)
    from lucasim.model import verify_certificate

    rec = world.server.hds["hd000"]
    assert rec.enc_cert is not None
    assert verify_certificate(world.ca_root, rec.enc_cert)
    assert verify_certificate(world.ca_root, rec.sign_cert)


def test_default_hd_count_is_400():
    from lucasim.scenario import parse_config

    cfg = parse_config(
        {
            "name": "hd-default",
            "seed": 1,
            "duration_days": 1,
            "population": {"guests": 1},
            "venues": {"count": 1},
        }
    )
    assert cfg.health_depts == 400
    world = make_world("hd400")
    for _ in range(cfg.health_depts):
        flow_register_health_dept(world)
    assert len(world.server.hds) == 400


def test_rotation_produces_n_minus_one_copies(world):
    info = world.server.master_keys[0]
    assert len(info.copies) == 2  # 3 HDs, rotator keeps its own locally
    assert "hd000" not in info.copies


def test_rotation_every_hd_recovers_private_key(world):
    pair_private = world.hds[0].master_sks[0]
    for hd in world.hds[1:]:
        sk = hd_get_master_sk(world, hd, 0, t=100)
        assert sk.data == pair_private.data


def test_rotation_same_day_twice_rejected(world):
    with pytest.raises(SimulationError, match="day 0 already has a master key"):
        flow_rotate_daily_master_key(world, world.hds[1], 0, 10)


def test_rotation_transcript_never_contains_master_private_key(world):
    blob = _transcript_text(world) + _server_state_text(world)
    assert world.hds[0].master_sks[0].data.hex() not in blob


def test_master_key_signature_verifies(world):
    info = world.server.master_keys[0]
    assert crypto.verify(info.signer_public, master_sign_message(0, info.public), info.signature)


def test_scanner_checkin_record_matches_derivation(world):
    guest = world.guests[0]
    rec = flow_checkin_scanner(world, guest, "v000:s0", 30000)
    assert world.server.by_trace[crypto.derive_trace_id(guest.seeds[0], 0)] == rec.record_id
    assert rec.scanner_id == "v000:s0"
    # The venue key removes the outer layer and leaves the recorded inner one.
    inner = crypto.decrypt(world.venues[0].keypair.private, rec.double_enc_ref)
    assert inner.hex() == world.truth.events[-1].data["inner_ref"]


def test_scanner_checkin_double_decrypt_yields_user_id(world):
    guest = world.guests[1]
    rec = flow_checkin_scanner(world, guest, "v000:s0", 30500)
    inner = crypto.decrypt(world.venues[0].keypair.private, rec.double_enc_ref)
    uid, ckey = crypto.open_user_reference(inner, world.hds[0].master_sks[0])
    assert uid == guest.user_id
    assert ckey == guest.contact_key


def test_poll_observation_joins_address_and_trace_id(world):
    guest = world.guests[2]
    rec = flow_checkin_scanner(world, guest, "v001:s0", 31000)
    polls = [
        o
        for o in world.transport.observations
        if o.message_kind == "checkin_poll"
        and world.server.by_trace[bytes.fromhex(o.trace_id)] == rec.record_id
    ]
    assert len(polls) == 1
    assert polls[0].src_address == guest.identity.address


def test_checkin_without_master_key_fails(world):
    with pytest.raises(SimulationError, match="no master key for day 1"):
        flow_checkin_scanner(world, world.guests[0], "v000:s0", 86400 + 300)  # day 1 not rotated


def test_self_checkin_decrypts_through_both_layers(world):
    guest = world.guests[0]
    rec = flow_checkin_self(world, guest, world.venues[1], 32000)
    inner = crypto.decrypt(world.venues[1].keypair.private, rec.double_enc_ref)
    uid, _ = crypto.open_user_reference(inner, world.hds[0].master_sks[0])
    assert uid == guest.user_id
    assert rec.scanner_id == "v001:self"


def test_self_checkin_with_substituted_venue_key():
    world = populate(make_world("subst"))
    adversary_pair = crypto.gen_keypair("adversary", Random("adv"))
    world.server.hooks.venue_pk_override["v001"] = adversary_pair.public
    guest = world.guests[0]
    rec = flow_checkin_self(world, guest, world.venues[1], 32000)
    inner = crypto.decrypt(adversary_pair.private, rec.double_enc_ref)
    uid, _ = crypto.open_user_reference(inner, world.hds[0].master_sks[0])
    assert uid == guest.user_id
    ev = [e for e in world.truth.events if e.kind == "checkin"][-1]
    assert ev.data["outer_key"] == "substituted"


def test_self_checkin_qr_embedded_key_defeats_substitution():
    world = populate(make_world("qr", mitigations=MitigationConfig(qr_embeds_venue_key=True)))
    adversary_pair = crypto.gen_keypair("adversary", Random("adv"))
    world.server.hooks.venue_pk_override["v001"] = adversary_pair.public
    guest = world.guests[0]
    rec = flow_checkin_self(world, guest, world.venues[1], 32000)
    with pytest.raises(crypto.DecryptionFailure):
        crypto.decrypt(adversary_pair.private, rec.double_enc_ref)
    inner = crypto.decrypt(world.venues[1].keypair.private, rec.double_enc_ref)
    assert crypto.open_user_reference(inner, world.hds[0].master_sks[0])[0] == guest.user_id


def test_scanner_checkin_unaffected_by_venue_key_substitution(world):
    adversary_pair = crypto.gen_keypair("adversary", Random("adv"))
    world.server.hooks.venue_pk_override["v000"] = adversary_pair.public
    guest = world.guests[0]
    rec = flow_checkin_scanner(world, guest, "v000:s0", 33000)
    inner = crypto.decrypt(world.venues[0].keypair.private, rec.double_enc_ref)
    assert crypto.open_user_reference(inner, world.hds[0].master_sks[0])[0] == guest.user_id


# One check-in's messages as (sender, receiver, kind, the payload's action):
# G is the guest's label, S the scanner's, V the venue's, "server" the backend.
def _master_fetch(who, action="fetch_master_key"):
    return [(who, "server", "other", action), ("server", who, "other", None)]


_STRICT = "fetch_master_key:strict"
_VENUE_KEY_FETCH = [("G", "server", "other", "fetch_venue_key"), ("server", "G", "other", None)]
_SCAN = [("S", "G", "scan_handshake", None), ("G", "S", "qr_payload", None)]
_CONFIRM = [("G", "server", "checkin_poll", None), ("server", "G", "other", None)]


def _upload(who):
    return [(who, "server", "other", "upload_checkin")]


_ADVERSARY_PK = crypto.gen_keypair("adversary", Random("adv")).public


def _checkin_messages(mode, *, mitigations=None, hooks=None, substitute_master=False):
    """The messages of one check-in at venue 0, and its check-in event's
    mode, master-key source and outer key."""
    world = populate(make_world("pin", mitigations=mitigations))
    if substitute_master:
        make_attack(Adversary(Random("adv")), "substitute_master_key", {"day": 0}).install(world)
    for name, override in (hooks or {}).items():
        getattr(world.server.hooks, name).update(override)
    guest, venue = world.guests[0], world.venues[0]
    first = world.transport.messages
    if mode == "scanner":
        flow_checkin_scanner(world, guest, "v000:s0", 30000)
    else:
        flow_checkin_self(world, guest, venue, 30000)
    names = {guest.label: "G", "scanner:v000:s0": "S", venue.label: "V", "server": "server"}
    lines = world.transport.export_transcript_ndjson().splitlines()[first:]
    messages = []
    for row in map(json.loads, lines):
        action = row["payload"].get("action")
        if row["payload"].get("strict"):
            action += ":strict"
        messages.append((names[row["sender"]], names[row["receiver"]], row["kind"], action))
    event = world.truth.events[-1]
    assert event.kind == "checkin"
    return messages, (event.data["mode"], event.data["master_source"], event.data["outer_key"])


@pytest.mark.parametrize(
    "mode, options, expected_messages, expected_event",
    [
        (
            "scanner",
            {},
            _master_fetch("S") + _SCAN + _upload("S") + _CONFIRM,
            ("scanner", "honest", "venue"),
        ),
        (
            "self",
            {},
            _master_fetch("G") + _VENUE_KEY_FETCH + _upload("G") + _CONFIRM,
            ("self", "honest", "venue"),
        ),
        (
            "self",
            {"mitigations": MitigationConfig(qr_embeds_venue_key=True)},
            _master_fetch("G") + [("V", "G", "qr_poster", None)] + _upload("G") + _CONFIRM,
            ("self", "honest", "venue"),
        ),
        (
            "self",
            {"hooks": {"venue_pk_override": {"v000": _ADVERSARY_PK}}},
            _master_fetch("G") + _VENUE_KEY_FETCH + _upload("G") + _CONFIRM,
            ("self", "honest", "substituted"),
        ),
        (
            "scanner",
            {"hooks": {"scanner_master_override": {"v000:s0": _ADVERSARY_PK}}},
            _master_fetch("S") + _SCAN + _upload("S") + _CONFIRM,
            ("scanner", "scanner-override", "venue"),
        ),
        (
            "self",
            {"substitute_master": True},
            _master_fetch("G") + _VENUE_KEY_FETCH + _upload("G") + _CONFIRM,
            ("self", "substituted", "venue"),
        ),
        (
            "self",
            {"mitigations": MitigationConfig(pki_enabled=True), "substitute_master": True},
            _master_fetch("G") + _master_fetch("G", _STRICT) + _VENUE_KEY_FETCH + _upload("G") + _CONFIRM,
            ("self", "honest", "venue"),
        ),
        (
            "scanner",
            {"mitigations": MitigationConfig(pki_enabled=True), "substitute_master": True},
            _master_fetch("S") + _master_fetch("S", _STRICT) + _SCAN + _upload("S") + _CONFIRM,
            ("scanner", "honest", "venue"),
        ),
    ],
    ids=[
        "scanner",
        "self",
        "self-qr-poster",
        "self-substituted-venue-key",
        "scanner-master-override",
        "self-substituted-master",
        "self-substituted-master-pki-refetch",
        "scanner-substituted-master-pki-refetch",
    ],
)
def test_checkin_variant_messages_are_pinned(mode, options, expected_messages, expected_event):
    messages, event = _checkin_messages(mode, **options)
    assert messages == expected_messages
    assert event == expected_event


def test_checkout_sets_departure_time(world):
    guest = world.guests[0]
    rec = flow_checkin_scanner(world, guest, "v000:s0", 30000)
    flow_checkout(world, guest, 33600)
    assert world.server.checkins[rec.record_id].checkout_time == 33600


def test_checkout_without_checkin_rejected(world):
    with pytest.raises(SimulationError, match=f"{world.guests[3].label} has no open check-in"):
        flow_checkout(world, world.guests[3], 40000)


def test_missing_checkout_leaves_record_open(world):
    guest = world.guests[0]
    rec = flow_checkin_scanner(world, guest, "v000:s0", 30000)
    # Guest forgets; a later check-in elsewhere supersedes app-side.
    flow_checkin_scanner(world, guest, "v001:s0", 40000)
    assert world.server.checkins[rec.record_id].checkout_time is None


def test_report_positive_unique_codes_and_secret_seeds(world):
    g0, g1 = world.guests[0], world.guests[1]
    flow_checkin_scanner(world, g0, "v000:s0", 30000)
    code0 = flow_report_positive(world, g0, [0], 75600)
    code1 = flow_report_positive(world, g1, [0], 76000)
    assert code0 != code1
    blob = _server_state_text(world)
    for seed in g0.seeds.values():
        assert seed.hex() not in blob


def test_report_observation_carries_guest_address(world):
    guest = world.guests[0]
    code = flow_report_positive(world, guest, [0], 75600)
    upload = world.server.uploads[code]
    obs = world.transport.observations[upload.obs_seq]
    assert obs.src_address == guest.identity.address
    assert obs.message_kind == "positive_upload"


def test_trace_unknown_code(world):
    with pytest.raises(SimulationError, match="unknown verification code NOSUCHCD"):
        flow_trace(world, world.hds[0], "NOSUCHCD", 79200)


def test_trace_finds_overlapping_contacts(world):
    g0, g1, g2, g3 = world.guests
    flow_checkin_scanner(world, g0, "v000:s0", 30000)
    flow_checkin_scanner(world, g1, "v000:s0", 31000)
    flow_checkin_scanner(world, g2, "v000:s0", 32000)
    flow_checkout(world, g0, 33000)
    flow_checkout(world, g1, 33500)
    flow_checkout(world, g2, 36000)
    # g3 visits long after everyone left.
    flow_checkin_scanner(world, g3, "v000:s0", 50000)
    flow_checkout(world, g3, 51000)
    code = flow_report_positive(world, g0, [0], 75600)
    result = flow_trace(world, world.hds[1], code, 79200)
    assert result.status == "ok"
    assert result.contact_user_ids == {g1.user_id, g2.user_id}
    assert result.contact_user_ids == true_cotenants(world.truth, g0.user_id, [0])
    names = {c["name"] for c in result.contacts}
    assert names == {g1.contact["name"], g2.contact["name"]}


def test_trace_no_overlap_returns_empty(world):
    g0, g1 = world.guests[0], world.guests[1]
    flow_checkin_scanner(world, g0, "v000:s0", 30000)
    flow_checkin_scanner(world, g1, "v001:s0", 30500)
    flow_checkout(world, g0, 31000)
    flow_checkout(world, g1, 31500)
    code = flow_report_positive(world, g0, [0], 75600)
    result = flow_trace(world, world.hds[0], code, 79200)
    assert result.contacts == []


def test_trace_server_learns_visited_venues(world):
    g0 = world.guests[0]
    flow_checkin_scanner(world, g0, "v000:s0", 30000)
    flow_checkout(world, g0, 31000)
    flow_checkin_scanner(world, g0, "v001:s0", 35000)
    flow_checkout(world, g0, 36000)
    code = flow_report_positive(world, g0, [0], 75600)
    flow_trace(world, world.hds[0], code, 79200)
    view = world.server.trace_views[-1]
    assert view.index_user_id == g0.user_id
    assert sorted(view.venue_windows) == ["v000", "v001"]


def test_trace_unavailable_venue_yields_no_contacts_there(world):
    g0, g1 = world.guests[0], world.guests[1]
    replace_venue(world, 0, unavailable=True)
    flow_checkin_scanner(world, g0, "v000:s0", 30000)
    flow_checkin_scanner(world, g1, "v000:s0", 30100)
    flow_checkout(world, g0, 33000)
    flow_checkout(world, g1, 33100)
    code = flow_report_positive(world, g0, [0], 75600)
    result = flow_trace(world, world.hds[0], code, 79200)
    assert result.unavailable_venues == ["v000"]
    assert result.contacts == []


def test_trace_of_an_upload_sealed_to_another_key_is_undecryptable(world):
    g0 = world.guests[0]
    flow_checkin_scanner(world, g0, "v000:s0", 30000)
    code = flow_report_positive(world, g0, [0], 75600)
    other = crypto.gen_keypair("daily-master", Random("other"))
    uploads = world.server.uploads
    uploads[code] = uploads[code]._replace(ciphertext=crypto.encrypt(other.public, b"{}", Random("seal")))
    result = flow_trace(world, world.hds[0], code, 79200)
    assert result.status == "upload_undecryptable"
    assert result.contacts == [] and result.index_user_id is None
    assert world.server.trace_views == []
    assert not any(e.kind == "trace_request" for e in world.truth.events)


def test_hd_leaves_out_a_reference_sealed_to_a_minted_master_key(world):
    g0, g1 = world.guests[0], world.guests[1]
    r0 = flow_checkin_scanner(world, g0, "v000:s0", 30000)
    r1 = flow_checkin_scanner(world, g1, "v000:s0", 30100)
    refs = venue_decrypt_records(world, world.venues[0], [r0.record_id, r1.record_id], 31000)
    minted = crypto.gen_keypair("daily-master", Random("minted"))
    refs[r1.record_id] = crypto.seal_user_reference(minted.public, g1.user_id, b"k" * 32, Random("seal"))
    opened = hd_open_references(world, world.hds[1], refs, 32000)
    assert list(opened) == [r0.record_id]
    assert opened[r0.record_id][0] == g0.user_id


def test_master_substitution_accepted_without_pki(world):
    adv_enc = crypto.gen_keypair("daily-master", Random("adv1"))
    adv_sign = crypto.gen_keypair("adversary-sign", Random("adv2"))
    world.server.hooks.master_override[0] = MasterKeyInfo(
        adv_enc.public,
        crypto.sign(adv_sign.private, master_sign_message(0, adv_enc.public)),
        adv_sign.public,
        None,
        {},
    )
    pk, source = fetch_master_pk(world, 0, world.guests[0].identity, "guest#0", 100)
    assert source == "substituted"
    assert pk == adv_enc.public


def test_master_substitution_rejected_under_pki():
    world = populate(make_world("pkisub", pki=True))
    adv_enc = crypto.gen_keypair("daily-master", Random("adv1"))
    adv_sign = crypto.gen_keypair("adversary-sign", Random("adv2"))
    world.server.hooks.master_override[0] = MasterKeyInfo(
        adv_enc.public,
        crypto.sign(adv_sign.private, master_sign_message(0, adv_enc.public)),
        adv_sign.public,
        None,
        {},
    )
    pk, source = fetch_master_pk(world, 0, world.guests[0].identity, "guest#0", 100)
    assert source == "honest"
    assert pk == world.server.master_keys[0].public


def test_rotation_under_pki_excludes_uncertified_extra_key():
    world = populate(make_world("pkirot", pki=True), rotate_days=())
    adversary_pair = crypto.gen_keypair("adversary", Random("adv"))
    world.server.hooks.rotation_extra_keys.append(("hd-imposter", adversary_pair.public, None))
    flow_rotate_daily_master_key(world, world.hds[0], 0, 0)
    assert "hd-imposter" not in world.server.master_keys[0].copies


def test_rotation_under_pki_skips_a_valid_certificate_that_names_another_key():
    world = populate(make_world("pkiswap", pki=True), rotate_days=())
    adversary_pair = crypto.gen_keypair("adversary", Random("adv"))
    # hd001's genuine certificate, presented beside the adversary's key.
    cert = world.server.hds["hd001"].enc_cert
    assert verify_certificate(world.ca_root, cert)
    world.server.hooks.rotation_extra_keys.append(("hd-imposter", adversary_pair.public, cert))
    flow_rotate_daily_master_key(world, world.hds[0], 0, 0)
    assert sorted(world.server.master_keys[0].copies) == ["hd001", "hd002"]


def test_rotation_without_pki_includes_extra_key():
    world = populate(make_world("norot"), rotate_days=())
    adversary_pair = crypto.gen_keypair("adversary", Random("adv"))
    world.server.hooks.rotation_extra_keys.append(("hd-imposter", adversary_pair.public, None))
    flow_rotate_daily_master_key(world, world.hds[0], 0, 0)
    ct = world.server.master_keys[0].copies["hd-imposter"]
    raw = crypto.decrypt(adversary_pair.private, ct)
    assert raw == world.hds[0].master_sks[0].data


def test_trace_id_enumeration_covers_all_guest_checkins(world):
    guest = world.guests[0]
    for i in range(5):
        flow_checkin_scanner(world, guest, "v000:s0", 30000 + i * 4000)
    ids = set(crypto.derive_all_trace_ids(guest.seeds[0], MAX_CHECKINS_PER_DAY - 1))
    produced = {
        bytes.fromhex(e.data["trace_id"])
        for e in world.truth.events
        if e.kind == "checkin" and e.data["user_id"] == guest.user_id
    }
    assert produced <= ids


def test_honest_server_cannot_decrypt_either_layer(world):
    guest = world.guests[0]
    rec = flow_checkin_scanner(world, guest, "v000:s0", 30000)
    # The server holds only public keys; try everything it has as if private.
    for pk in [world.server.venues["v000"].public_key, world.server.master_keys[0].public]:
        sk = crypto.PrivateKey(pk.role, pk.data)
        with pytest.raises(crypto.DecryptionFailure):
            crypto.decrypt(sk, rec.double_enc_ref)


def test_checkin_counter_resets_each_day():
    world = populate(make_world("ctr"), rotate_days=(0, 1))
    guest = world.guests[0]
    flow_checkin_scanner(world, guest, "v000:s0", 30000)
    flow_checkin_scanner(world, guest, "v000:s0", 40000)
    flow_checkin_scanner(world, guest, "v000:s0", 86400 + 30000)
    assert guest.counters == {0: 2, 1: 1}
    days = [e.data["counter"] for e in world.truth.events if e.kind == "checkin"]
    assert days == [0, 1, 0]


def test_records_at_venue_ordered_by_time_then_record_id(world):
    server = world.server
    ref = b""
    # Stored out of time order, with a tie on the check-in time.
    for i, t in enumerate([500, 100, 500, 300]):
        server.store_checkin("v000:s0", bytes([i]) * 16, ref, t)
    server.store_checkin("v001:s0", b"\xff" * 16, ref, 200)
    got = [(r.checkin_time, r.record_id) for r in server.records_at_venue("v000")]
    assert got == [(100, "r000001"), (300, "r000003"), (500, "r000000"), (500, "r000002")]
    assert [r.record_id for r in server.records_at_venue("v001")] == ["r000004"]
    assert server.records_at_venue("v999") == []


def test_records_at_venue_bounds_select_checkin_times(world):
    server = world.server
    ref = b""
    for i, t in enumerate([500, 100, 500, 300]):
        server.store_checkin("v000:s0", bytes([i]) * 16, ref, t)

    def ids(*bounds):
        return [r.record_id for r in server.records_at_venue("v000", *bounds)]

    assert ids(300) == ["r000003", "r000000", "r000002"]
    assert ids(301, 500) == []
    assert ids(100, 501) == ids() == ids(None, None)
    assert ids(None, 300) == ["r000001"]
    assert ids(600) == [] and server.records_at_venue("v999", 0, 10) == []


def test_max_visit_span_tracks_the_longest_closed_visit(world):
    guest, other = world.guests[0], world.guests[1]
    server = world.server
    assert server.max_visit_span("v000") == 0
    flow_checkin_scanner(world, guest, "v000:s0", 30000)
    flow_checkin_scanner(world, other, "v001:s0", 30000)
    assert server.max_visit_span("v000") == 0  # open visits do not count
    flow_checkout(world, other, 30060)
    flow_checkout(world, guest, 37200)
    flow_checkin_scanner(world, guest, "v000:s0", 40000)
    flow_checkout(world, guest, 40600)
    assert (server.max_visit_span("v000"), server.max_visit_span("v001")) == (7200, 60)


def test_records_at_venue_returns_a_copy(world):
    flow_checkin_scanner(world, world.guests[0], "v000:s0", 30000)
    world.server.records_at_venue("v000").clear()
    assert len(world.server.records_at_venue("v000")) == 1


def _seed_payload(guest, days):
    return {str(d): guest.seeds[d].hex() for d in days}


def test_records_for_seeds_in_counter_order(monkeypatch):
    world = populate(make_world(), rotate_days=(0, 1))
    guest, other = world.guests[0], world.guests[1]
    recs = [flow_checkin_scanner(world, guest, "v000:s0", 30000 + i * 4000) for i in range(3)]
    flow_checkin_scanner(world, other, "v001:s0", 50000)
    day1 = [flow_checkin_scanner(world, guest, "v001:s0", 86400 + 30000 + i * 4000) for i in range(2)]
    server = world.server
    assert server.records_for_seeds(_seed_payload(guest, [0])) == [r.record_id for r in recs]
    # Seed by seed in the payload's order, each in counter order.
    assert server.records_for_seeds(_seed_payload(guest, [1, 0])) == [
        r.record_id for r in day1 + recs
    ]
    # Only the first MAX_CHECKINS_PER_DAY check-ins of a day are matched.
    monkeypatch.setattr(actors, "MAX_CHECKINS_PER_DAY", 2)
    assert server.records_for_seeds(_seed_payload(guest, [0])) == [r.record_id for r in recs[:2]]
    monkeypatch.setattr(actors, "MAX_CHECKINS_PER_DAY", 1)
    assert server.records_for_seeds(_seed_payload(guest, [0, 1])) == [
        recs[0].record_id,
        day1[0].record_id,
    ]


# -- trace overlap scan against a brute-force reference ---------------------------


def _brute_force_overlapping_record_ids(at_venue, index_records, seen):
    """Reference scan: every record at the venue against every index interval.

    Also notes the boundary cases it met, so each test can show its input
    exercised them: open visits, intervals touching exactly, and an
    overlapping visit that checked in more than the maximum stay before
    every index visit began (it stayed longer than that).
    """
    index_intervals = [visit_interval(r.checkin_time, r.checkout_time) for r in index_records]
    first_start = min(start for start, _ in index_intervals)
    legit = []
    for r in at_venue:
        ival = visit_interval(r.checkin_time, r.checkout_time)
        if r.checkout_time is None:
            seen.add("open")
        for iv in index_intervals:
            if ival[0] == iv[1]:
                seen.add("touch after")
            if iv[0] == ival[1]:
                seen.add("touch before")
        if any(intervals_overlap(ival, iv) for iv in index_intervals):
            legit.append(r.record_id)
            if ival[0] < first_start - MAX_STAY_S:
                seen.add("long")
    return legit


# A small trace-heavy scenario: half the visits stay open, and scripted
# visits at venue 0 that end exactly at, or one second past, the start of
# guest 0's visit, start exactly at or one second before its end, or stay
# open because the guest checks in elsewhere before checking out (imputed
# to end exactly at, or one second past, its start, or inside it).  At
# venue 1, a visit checks in a minute into day 0 and checks out a day and a
# half later, after guest 0 came on day 1.
_SMALL_TRACE_HEAVY = {
    "name": "small_trace_heavy",
    "seed": 11,
    "duration_days": 3,
    "health_depts": 2,
    "population": {"guests": 30, "p_checkout": 0.5, "visits_per_day": 1.5},
    "venues": {"count": 3},
    "positives": [
        {"guest": g, "report_day": 1, "traced": True, "window_back": 2} for g in range(4)
    ]
    + [{"report_day": day, "traced": True} for day in (0, 1, 1)],
    "script": [
        {"day": 0, "at": 36000, "venue": 0, "guests": [0], "stay_s": 3600},
        {"day": 0, "at": 32400, "venue": 0, "guests": [5], "stay_s": 3600},
        {"day": 0, "at": 32401, "venue": 0, "guests": [6], "stay_s": 3600},
        {"day": 0, "at": 39600, "venue": 0, "guests": [7], "stay_s": 600},
        {"day": 0, "at": 39599, "venue": 0, "guests": [8], "stay_s": 600},
        {"day": 0, "at": 25000, "venue": 0, "guests": [9], "stay_s": 36000},
        {"day": 0, "at": 25060, "venue": 2, "guests": [9], "stay_s": 600},
        {"day": 0, "at": 21600, "venue": 0, "guests": [10], "stay_s": 36000},
        {"day": 0, "at": 21660, "venue": 2, "guests": [10], "stay_s": 600},
        {"day": 0, "at": 21601, "venue": 0, "guests": [12], "stay_s": 36000},
        {"day": 0, "at": 21661, "venue": 2, "guests": [12], "stay_s": 600},
        {"day": 0, "at": 60, "venue": 1, "guests": [11], "stay_s": 129600},
        {"day": 1, "at": 36000, "venue": 1, "guests": [0], "stay_s": 3600},
    ],
}


@pytest.mark.parametrize("name", ["trace_leakage", "full_attack_matrix", "small_trace_heavy"])
def test_overlap_scan_equals_brute_force(monkeypatch, name):
    config = (
        parse_config(_SMALL_TRACE_HEAVY) if name == "small_trace_heavy" else load_bundled_config(name)
    )
    fast = run_scenario(config)
    seen = set()
    monkeypatch.setattr(
        actors,
        "_overlapping_record_ids",
        lambda server, venue_id, index: _brute_force_overlapping_record_ids(
            server.records_at_venue(venue_id), index, seen
        ),
    )
    reference = run_scenario(config)
    views = fast.world.server.trace_views
    assert views == reference.world.server.trace_views
    assert any(legit for view in views for legit in view.venue_windows.values())
    if name == "small_trace_heavy":
        assert len(views) == 7
        assert seen == {"open", "touch after", "touch before", "long"}


def test_an_upload_carries_at_most_max_window_days_of_seeds():
    """MAX_WINDOW_DAYS three-digit days of seeds fit one upload; one day more does not."""
    world = populate(make_world(), rotate_days=(365,))
    guest, t = world.guests[0], 365 * 86400 + 75600
    code = flow_report_positive(world, guest, list(range(366 - MAX_WINDOW_DAYS, 366)), t)
    assert code in world.server.uploads
    with pytest.raises(ValueError, match="plaintext exceeds"):
        flow_report_positive(world, guest, list(range(365 - MAX_WINDOW_DAYS, 366)), t + 1)


# A small scenario in the shape of perfbench's trace_heavy workload: a
# nat_linkage-style population on mixed IPv6/IPv4 carriers whose traced
# positives reach back to day 0.
_TRACE_HEAVY_SMALL = {
    "name": "trace_heavy_small",
    "seed": 3,
    "duration_days": 4,
    "health_depts": 3,
    "adversary": {"posture": "passive"},
    "linkage": {"motorized": True},
    "network": {"carriers": 3, "ipv6_probability": [1.0, 0.5, 0.0], "nat_pool": [16, 64]},
    "population": {
        "group_size_weights": {"1": 0.7, "2": 0.3},
        "guests": 40,
        "p_checkout": 0.9,
        "p_reconnect_per_day": 0.15,
        "visits_per_day": 1.5,
    },
    "positives": [{"report_day": 1 + i % 2, "traced": True} for i in range(12)],
    "venues": {"count": 6},
}


def _matching_configs():
    bundled = [load_bundled_config(name) for name in bundled_scenario_names()]
    traced = [config for config in bundled if any(case.traced for case in config.positives)]
    return traced + [parse_config(_TRACE_HEAVY_SMALL)]


@pytest.mark.parametrize("config", _matching_configs(), ids=lambda config: config.name)
def test_records_for_seeds_from_the_run_record_equal_full_enumeration(monkeypatch, config):
    """Matching from the run's record of derived trace ids finds the same
    records, in the same order, as deriving all MAX_CHECKINS_PER_DAY ids."""
    original = actors.BackendServer.records_for_seeds
    calls = []

    def both(server, seeds):
        assert run_derived() is not None
        inside = original(server, seeds)
        run = crypto._RUN.get()
        derived, run.derived = run.derived, None
        try:
            outside = original(server, seeds)
        finally:
            run.derived = derived
        calls.append((inside, outside))
        return inside

    monkeypatch.setattr(actors.BackendServer, "records_for_seeds", both)
    result = run_scenario(config)
    assert run_derived() is None
    assert calls and all(inside == outside for inside, outside in calls)
    assert any(inside for inside, _ in calls)
    assert all(trace.status == "ok" for trace in result.traces)


def test_no_trace_id_record_outlives_a_run_that_raises(monkeypatch):
    def breach(server, seeds):
        assert run_derived()  # the run has derived its check-ins' ids
        raise SimulationError("synthetic invariant breach")

    monkeypatch.setattr(actors.BackendServer, "records_for_seeds", breach)
    with pytest.raises(SimulationError, match="synthetic"):
        run_scenario(load_bundled_config("trace_leakage"))
    assert run_derived() is None and run_sealed() is None


def test_verification_code_is_redrawn_while_it_names_an_upload():
    world = populate(make_world("redraw"), rotate_days=(0,))
    guest = world.guests[0]
    # The first code the server would draw already names an upload.
    draws = Random()
    draws.setstate(world.rng_server.getstate())
    taken = crypto.gen_verification_code(draws)
    world.server.uploads[taken] = actors.UploadRecord(ciphertext=b"", day=0, obs_seq=0)
    code = flow_report_positive(world, guest, [0], 40000)
    assert code == crypto.gen_verification_code(draws) != taken
    assert world.server.uploads[code].day == 0 and world.server.uploads[taken].ciphertext == b""
