"""Protocol flow behaviour: registration, rotation, check-ins, tracing."""

import json
from random import Random

import pytest

from conftest import make_world, populate
from lucasim import actors, crypto
from lucasim.actors import (
    AlreadyRegistered,
    KeyAlreadyExists,
    MasterOverride,
    NoMasterKey,
    NoOpenCheckin,
    SimulationError,
    UnknownCode,
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
    master_sign_message,
)
from lucasim.model import MitigationConfig, intervals_overlap, visit_interval
from lucasim.scenario import load_bundled_config, parse_config, run_scenario


def _transcript_text(world) -> str:
    return world.transport.export_transcript_ndjson()


def _server_state_text(world) -> str:
    return json.dumps(world.server.state_snapshot(), sort_keys=True)


def test_register_user_grows_db_and_hides_contact(world):
    assert len(world.server.users) == 4
    blob = _transcript_text(world) + _server_state_text(world)
    for guest in world.guests:
        assert guest.contact["name"] not in blob
        assert guest.contact["phone"] not in blob
        assert world.server.users[guest.user_id].phone_validated


def test_register_user_twice_rejected(world):
    with pytest.raises(AlreadyRegistered):
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
    s0 = set(world.server.venues["v000"].scanner_ids)
    s1 = set(world.server.venues["v001"].scanner_ids)
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
    with pytest.raises(KeyAlreadyExists):
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
    assert rec.trace_id == crypto.derive_trace_id(guest.seeds[0], 0)
    assert rec.scanner_id == "v000:s0"
    assert rec.double_enc_ref.layers == 2


def test_scanner_checkin_double_decrypt_yields_user_id(world):
    guest = world.guests[1]
    rec = flow_checkin_scanner(world, guest, "v000:s0", 30500)
    inner = crypto.unwrap_outer(rec.double_enc_ref, world.venues[0].keypair.private)
    uid, ckey = crypto.open_user_reference(inner, world.hds[0].master_sks[0])
    assert uid == guest.user_id
    assert ckey == guest.contact_key


def test_poll_observation_joins_address_and_trace_id(world):
    guest = world.guests[2]
    rec = flow_checkin_scanner(world, guest, "v001:s0", 31000)
    polls = [
        o
        for o in world.transport.observations
        if o.message_kind == "checkin_poll" and o.trace_id == rec.trace_id.hex()
    ]
    assert len(polls) == 1
    assert polls[0].src_address == guest.identity.address


def test_checkin_without_master_key_fails(world):
    with pytest.raises(NoMasterKey):
        flow_checkin_scanner(world, world.guests[0], "v000:s0", 86400 + 300)  # day 1 not rotated


def test_self_checkin_decrypts_through_both_layers(world):
    guest = world.guests[0]
    rec = flow_checkin_self(world, guest, world.venues[1], 32000)
    inner = crypto.unwrap_outer(rec.double_enc_ref, world.venues[1].keypair.private)
    uid, _ = crypto.open_user_reference(inner, world.hds[0].master_sks[0])
    assert uid == guest.user_id
    assert rec.scanner_id == "v001:self"


def test_self_checkin_with_substituted_venue_key():
    world = populate(make_world("subst"))
    adversary_pair = crypto.gen_keypair("adversary", Random("adv"))
    world.server.hooks.venue_pk_override["v001"] = adversary_pair.public
    guest = world.guests[0]
    rec = flow_checkin_self(world, guest, world.venues[1], 32000)
    inner = crypto.unwrap_outer(rec.double_enc_ref, adversary_pair.private)
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
        crypto.unwrap_outer(rec.double_enc_ref, adversary_pair.private)
    inner = crypto.unwrap_outer(rec.double_enc_ref, world.venues[1].keypair.private)
    assert inner.layers == 1


def test_scanner_checkin_unaffected_by_venue_key_substitution(world):
    adversary_pair = crypto.gen_keypair("adversary", Random("adv"))
    world.server.hooks.venue_pk_override["v000"] = adversary_pair.public
    rec = flow_checkin_scanner(world, world.guests[0], "v000:s0", 33000)
    inner = crypto.unwrap_outer(rec.double_enc_ref, world.venues[0].keypair.private)
    assert inner.layers == 1


def test_checkout_sets_departure_time(world):
    guest = world.guests[0]
    rec = flow_checkin_scanner(world, guest, "v000:s0", 30000)
    flow_checkout(world, guest, 33600)
    assert world.server.checkins[rec.record_id].checkout_time == 33600


def test_checkout_without_checkin_rejected(world):
    with pytest.raises(NoOpenCheckin):
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
        assert seed.secret.hex() not in blob


def test_report_observation_carries_guest_address(world):
    guest = world.guests[0]
    code = flow_report_positive(world, guest, [0], 75600)
    upload = world.server.uploads[code]
    obs = world.transport.observations[upload.obs_seq]
    assert obs.src_address == guest.identity.address
    assert obs.message_kind == "positive_upload"


def test_trace_unknown_code(world):
    with pytest.raises(UnknownCode):
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
    assert result.contact_user_ids == world.truth.true_cotenants(g0.user_id, [0], world.policy)
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
    world.venues[0].unavailable = True
    flow_checkin_scanner(world, g0, "v000:s0", 30000)
    flow_checkin_scanner(world, g1, "v000:s0", 30100)
    flow_checkout(world, g0, 33000)
    flow_checkout(world, g1, 33100)
    code = flow_report_positive(world, g0, [0], 75600)
    result = flow_trace(world, world.hds[0], code, 79200)
    assert result.unavailable_venues == ["v000"]
    assert result.contacts == []


def test_include_index_case_flag():
    from lucasim.model import TracingPolicy

    world = populate(make_world("incl", policy=TracingPolicy(include_index_case=True)))
    g0 = world.guests[0]
    flow_checkin_scanner(world, g0, "v000:s0", 30000)
    flow_checkout(world, g0, 31000)
    code = flow_report_positive(world, g0, [0], 75600)
    result = flow_trace(world, world.hds[0], code, 79200)
    assert result.contact_user_ids == {g0.user_id}


def test_master_substitution_accepted_without_pki(world):
    adv_enc = crypto.gen_keypair("daily-master", Random("adv1"))
    adv_sign = crypto.gen_keypair("adversary-sign", Random("adv2"))
    world.server.hooks.master_override[0] = MasterOverride(
        pair=adv_enc,
        signature=crypto.sign(adv_sign.private, master_sign_message(0, adv_enc.public)),
        signer_public=adv_sign.public,
    )
    pk, source = fetch_master_pk(world, 0, world.guests[0].identity, "guest#0", 100)
    assert source == "substituted"
    assert pk == adv_enc.public


def test_master_substitution_rejected_under_pki():
    world = populate(make_world("pkisub", pki=True))
    adv_enc = crypto.gen_keypair("daily-master", Random("adv1"))
    adv_sign = crypto.gen_keypair("adversary-sign", Random("adv2"))
    world.server.hooks.master_override[0] = MasterOverride(
        pair=adv_enc,
        signature=crypto.sign(adv_sign.private, master_sign_message(0, adv_enc.public)),
        signer_public=adv_sign.public,
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
    ids = set(crypto.derive_all_trace_ids(guest.seeds[0], world.policy.max_checkins_per_day - 1))
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
            crypto.decrypt(sk, rec.double_enc_ref.ciphertext)


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
    ref = crypto.EncryptedUserReference(2, b"")
    # Stored out of time order, with a tie on the check-in time.
    for i, t in enumerate([500, 100, 500, 300]):
        server.store_checkin("v000:s0", bytes([i]) * 16, ref, t)
    server.store_checkin("v001:s0", b"\xff" * 16, ref, 200)
    got = [(r.checkin_time, r.record_id) for r in server.records_at_venue("v000")]
    assert got == [(100, "r000001"), (300, "r000003"), (500, "r000000"), (500, "r000002")]
    assert [r.record_id for r in server.records_at_venue("v001")] == ["r000004"]
    assert server.records_at_venue("v999") == []


def test_records_at_venue_returns_a_copy(world):
    flow_checkin_scanner(world, world.guests[0], "v000:s0", 30000)
    world.server.records_at_venue("v000").clear()
    assert len(world.server.records_at_venue("v000")) == 1


def test_records_for_seed_in_counter_order(world):
    guest, other = world.guests[0], world.guests[1]
    recs = [flow_checkin_scanner(world, guest, "v000:s0", 30000 + i * 4000) for i in range(3)]
    flow_checkin_scanner(world, other, "v001:s0", 50000)
    max_counter = world.policy.max_checkins_per_day - 1
    server = world.server
    assert server.records_for_seed(guest.seeds[0], max_counter) == [r.record_id for r in recs]
    assert server.records_for_seed(guest.seeds[0], 1) == [r.record_id for r in recs[:2]]


# -- trace overlap scan against a brute-force reference ---------------------------


def _brute_force_overlapping_record_ids(at_venue, index_records, policy, seen):
    """Reference scan: every record at the venue against every index interval.

    Also notes the boundary cases it met, so each test can show its input
    exercised them: open visits, and intervals touching at exactly the slack.
    """
    slack = policy.overlap_slack_s
    index_intervals = [visit_interval(r.checkin_time, r.checkout_time, policy) for r in index_records]
    legit = []
    for r in at_venue:
        ival = visit_interval(r.checkin_time, r.checkout_time, policy)
        if r.checkout_time is None:
            seen.add("open")
        for iv in index_intervals:
            if ival[0] == iv[1] + slack:
                seen.add("touch after")
            if iv[0] == ival[1] + slack:
                seen.add("touch before")
        if any(intervals_overlap(ival, iv, slack) for iv in index_intervals):
            legit.append(r.record_id)
    return legit


# A small trace-heavy scenario: half the visits stay open, a 10-minute slack,
# and scripted visits at venue 0 that end exactly at, or one second past,
# the slack before guest 0's visit, start exactly at or one second inside
# the slack after it, or stay open.
_SMALL_TRACE_HEAVY = {
    "name": "small_trace_heavy",
    "seed": 11,
    "duration_days": 3,
    "health_depts": 2,
    "population": {"guests": 30, "p_checkout": 0.5, "visits_per_day": 1.5},
    "venues": {"count": 3},
    "tracing": {"overlap_slack_s": 600},
    "positives": [
        {"guest": g, "report_day": 1, "traced": True, "window_back": 2} for g in range(4)
    ]
    + [{"report_day": day, "traced": True} for day in (0, 1, 1)],
    "script": [
        {"day": 0, "at": 36000, "venue": 0, "guests": [0], "stay_s": 3600},
        {"day": 0, "at": 31800, "venue": 0, "guests": [5], "stay_s": 3600},
        {"day": 0, "at": 31801, "venue": 0, "guests": [6], "stay_s": 3600},
        {"day": 0, "at": 40200, "venue": 0, "guests": [7], "stay_s": 600},
        {"day": 0, "at": 40199, "venue": 0, "guests": [8], "stay_s": 600},
        {"day": 0, "at": 25000, "venue": 0, "guests": [9], "checkout": False},
        {"day": 0, "at": 21000, "venue": 0, "guests": [10], "checkout": False},
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
        lambda at_venue, index, policy: _brute_force_overlapping_record_ids(at_venue, index, policy, seen),
    )
    reference = run_scenario(config)
    views = fast.world.server.trace_views
    assert views == reference.world.server.trace_views
    assert any(legit for view in views for legit in view.venue_windows.values())
    if name == "small_trace_heavy":
        assert len(views) == 7
        assert seen == {"open", "touch after", "touch before"}
