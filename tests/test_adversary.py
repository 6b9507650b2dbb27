"""Passive inference and active attack behaviour, all verified against truth."""

import copy
from collections import Counter
from random import Random
from types import SimpleNamespace

import pytest

from conftest import make_world, populate, replace_venue
from lucasim import actors, crypto
from lucasim.actors import (
    SimulationError,
    flow_checkin_scanner,
    flow_checkin_self,
    flow_checkout,
    flow_report_positive,
    flow_rotate_daily_master_key,
    flow_trace,
)
from lucasim import adversary as adversary_module
from lucasim.adversary import (
    CORRELATION_WINDOW_S,
    Adversary,
    AdversaryKnowledge,
    RecordClaim,
    StrippedRecord,
    consented_strip_ids,
    consolidate,
    correlate_trace_requests,
    link_checkins_by_metadata,
    link_groups,
    make_attack,
    observe_trace_leakage,
    score_checkin_linkage,
    venue_occupancy_profile,
    venue_risk_rank,
)
from lucasim.model import MAX_STAY_S, MitigationConfig
from lucasim.netsim import NetworkConfig
from lucasim.scenario import bundled_scenario_names, load_bundled_config, parse_config, run_scenario
from oracle import true_cotenants

MOTORIZED_KMH = 50.0


def _visit(world, guest, scanner, t, stay=3000, checkout=True):
    rec = flow_checkin_scanner(world, guest, scanner, t)
    if checkout:
        flow_checkout(world, guest, t + stay)
    return rec


# -- passive: check-in linkage ---------------------------------------------------


def test_ipv6_linkage_is_exact():
    net = NetworkConfig(carriers=1, ipv6_probability=(1.0,))
    world = populate(make_world("ipv6", network=net), guests=6, venues=3, rotate_days=(0, 1))
    t = 30000
    for day_guest in range(6):
        guest = world.guests[day_guest]
        for k in range(3):
            _visit(world, guest, f"v{k % 3:03d}:s0", t)
            t += 4000
    clusters = link_checkins_by_metadata(world.server, world.transport.observations, MOTORIZED_KMH)
    scores = score_checkin_linkage(clusters, world.truth)
    assert scores["precision"] == 1.0
    assert scores["recall"] == 1.0
    assert all(c.kind == "ipv6" for c in clusters)


def test_single_checkin_yields_singleton_cluster():
    world = populate(make_world("single"), guests=1, venues=1)
    _visit(world, world.guests[0], "v000:s0", 30000)
    clusters = link_checkins_by_metadata(world.server, world.transport.observations, MOTORIZED_KMH)
    assert len(clusters) == 1
    assert len(clusters[0].record_ids) == 1


def test_nat_linkage_chains_follow_port_cursor():
    net = NetworkConfig(carriers=1, ipv6_probability=(0.0,), nat_pool_min=50, nat_pool_max=50, adoption=1.0)
    world = populate(make_world("nat1", network=net), guests=8, venues=2)
    t = 30000
    for rounds in range(3):
        for guest in world.guests:
            _visit(world, guest, "v000:s0" if rounds % 2 else "v001:s0", t, stay=600)
            t += 900
    clusters = link_checkins_by_metadata(world.server, world.transport.observations, MOTORIZED_KMH)
    scores = score_checkin_linkage(clusters, world.truth)
    assert scores["precision"] >= 0.9
    assert scores["recall"] >= 0.6


def test_reconnect_breaks_nat_chain():
    net = NetworkConfig(carriers=1, ipv6_probability=(0.0,))
    world = populate(make_world("nat2", network=net), guests=1, venues=1)
    guest = world.guests[0]
    _visit(world, guest, "v000:s0", 30000)
    world.net.reconnect_event(guest.identity)
    _visit(world, guest, "v000:s0", 50000)
    clusters = link_checkins_by_metadata(world.server, world.transport.observations, MOTORIZED_KMH)
    assert all(len(c.record_ids) == 1 for c in clusters)


# -- passive: group linkage ------------------------------------------------------


def test_scripted_group_recovered_exactly():
    world = populate(make_world("grp"), guests=6, venues=2)
    group = world.guests[:4]
    recs = []
    for i, guest in enumerate(group):
        recs.append(flow_checkin_scanner(world, guest, "v000:s0", 30000 + i * 3))
    for i, guest in enumerate(group):
        flow_checkout(world, guest, 35000 + i * 10)
    hyps = link_groups(world.server)
    assert sorted(r.record_id for r in recs) in hyps


def test_unrelated_guests_an_hour_apart_not_grouped():
    world = populate(make_world("nogrp"), guests=2, venues=1)
    _visit(world, world.guests[0], "v000:s0", 30000)
    _visit(world, world.guests[1], "v000:s0", 33600)
    assert link_groups(world.server) == []


def test_group_recovery_gives_pseudonymous_relationship_edges():
    world = populate(make_world("edges"), guests=6, venues=2)
    pairs = [(0, 1), (2, 3), (4, 5)]
    t = 30000
    expected_edges = set()
    for a, b in pairs:
        ra = flow_checkin_scanner(world, world.guests[a], "v001:s0", t)
        rb = flow_checkin_scanner(world, world.guests[b], "v001:s0", t + 5)
        flow_checkout(world, world.guests[a], t + 2000)
        flow_checkout(world, world.guests[b], t + 2010)
        expected_edges.add(frozenset((ra.record_id, rb.record_id)))
        t += 7200
    hyps = link_groups(world.server)
    found = {frozenset(h) for h in hyps}
    assert found == expected_edges


def test_departure_disagreement_splits_arrival_group():
    world = populate(make_world("split"), guests=2, venues=1)
    flow_checkin_scanner(world, world.guests[0], "v000:s0", 30000)
    flow_checkin_scanner(world, world.guests[1], "v000:s0", 30010)
    flow_checkout(world, world.guests[0], 31000)
    flow_checkout(world, world.guests[1], 36000)  # leaves far later
    assert link_groups(world.server) == []


# -- passive: occupancy and risk -------------------------------------------------


def test_occupancy_empty_venue_flat():
    world = populate(make_world("occ0"), guests=1, venues=2)
    series = venue_occupancy_profile(world.server)
    assert series["v000"] == []
    assert series["v001"] == []


def test_occupancy_three_overlapping_visitors_peak_three():
    world = populate(make_world("occ3"), guests=3, venues=1)
    for i, guest in enumerate(world.guests):
        flow_checkin_scanner(world, guest, "v000:s0", 30000 + i * 100)
    for i, guest in enumerate(world.guests):
        flow_checkout(world, guest, 40000 + i * 100)
    series = venue_occupancy_profile(world.server)["v000"]
    assert max(level for _, level in series) == 3
    assert series[-1][1] == 0


def test_occupancy_counts_open_visits_over_the_tracing_interval():
    # Tracing counts an open visit as lasting the maximum stay.
    world = populate(make_world("occz"), guests=2, venues=1)
    flow_checkin_scanner(world, world.guests[0], "v000:s0", 30000)
    flow_checkin_scanner(world, world.guests[1], "v000:s0", 30000)
    series = venue_occupancy_profile(world.server)["v000"]
    assert series == [(30000, 2), (30000 + MAX_STAY_S, 0)]


def _oracle_occupancy(truth, venue_id, max_stay_s):
    deltas = {}
    checkouts = {
        e.data.record_id: e.t for e in truth.events if e.kind == "checkout"
    }
    for e in truth.events:
        if e.kind != "checkin" or e.data.venue_id != venue_id:
            continue
        end = checkouts.get(e.data.record_id, e.t + max_stay_s)
        deltas[e.t] = deltas.get(e.t, 0) + 1
        deltas[end] = deltas.get(end, 0) - 1
    level, out = 0, []
    for t in sorted(deltas):
        level += deltas[t]
        out.append((t, level))
    return out


def test_occupancy_matches_truth_recomputation():
    world = populate(make_world("occr"), guests=8, venues=3, rotate_days=(0, 1, 2, 3, 4, 5))
    rng = Random(77)
    actions = []
    t = 30000
    for _ in range(40):
        guest = rng.choice(world.guests)
        scanner = f"v{rng.randrange(3):03d}:s0"
        stay = rng.randrange(600, 9000)
        has_checkout = rng.random() < 0.7
        actions.append((t, "in", guest, scanner))
        if has_checkout:
            actions.append((t + stay, "out", guest, scanner))
        t += rng.randrange(9200, 9900)  # sequential per world, no overlap per guest
    for when, kind, guest, scanner in sorted(actions, key=lambda a: a[0]):
        if kind == "in":
            flow_checkin_scanner(world, guest, scanner, when)
        elif guest.open_checkin is not None:
            flow_checkout(world, guest, when)
    series = venue_occupancy_profile(world.server)
    for vid in ("v000", "v001", "v002"):
        assert series[vid] == _oracle_occupancy(world.truth, vid, MAX_STAY_S)


def test_risk_rank_empty_without_traces():
    world = populate(make_world("risk0"))
    assert venue_risk_rank(world.server) == []


def test_risk_rank_orders_by_index_case_visits():
    world = populate(make_world("risk"), guests=3, venues=3)
    g0, g1 = world.guests[0], world.guests[1]
    _visit(world, g0, "v000:s0", 30000)
    _visit(world, g0, "v002:s0", 36000)
    _visit(world, g1, "v000:s0", 42000)
    code0 = flow_report_positive(world, g0, [0], 75600)
    code1 = flow_report_positive(world, g1, [0], 76200)
    flow_trace(world, world.hds[0], code0, 79200)
    flow_trace(world, world.hds[1], code1, 80400)
    ranking = venue_risk_rank(world.server)
    assert ranking[0] == ("v000", 2)
    assert ("v002", 1) in ranking


def test_risk_rank_matches_truth_recount():
    world = populate(make_world("riskr"), guests=6, venues=4)
    rng = Random(33)
    t = 30000
    for _ in range(30):
        _visit(world, rng.choice(world.guests), f"v{rng.randrange(4):03d}:s0", t, stay=1200)
        t += 1500
    codes = []
    for i, guest in enumerate(world.guests[:2]):
        codes.append(flow_report_positive(world, guest, [0], 75600 + i * 300))
    for i, code in enumerate(codes):
        flow_trace(world, world.hds[0], code, 79200 + i * 600)
    ranking = dict(venue_risk_rank(world.server))
    oracle = {}
    for guest in world.guests[:2]:
        for v in world.truth.true_visits(guest.user_id):
            if v.day == 0:
                oracle[v.venue_id] = oracle.get(v.venue_id, 0) + 1
    assert ranking == oracle


# -- passive: trace correlation and leakage --------------------------------------


def test_correlation_single_trace_recovers_pair():
    world = populate(make_world("corr1"))
    g0 = world.guests[0]
    _visit(world, g0, "v000:s0", 30000)
    code = flow_report_positive(world, g0, [0], 75600)
    flow_trace(world, world.hds[0], code, 79200)
    code_to_user, code_to_addr = correlate_trace_requests(world.server, world.transport.observations)
    assert code_to_user == {code: g0.user_id}
    assert code_to_addr[code] == g0.identity.address


def test_correlation_two_spaced_traces_no_cross_pairing():
    world = populate(make_world("corr2"))
    g0, g1 = world.guests[0], world.guests[1]
    _visit(world, g0, "v000:s0", 30000, stay=500)
    _visit(world, g1, "v001:s0", 31000, stay=500)
    code0 = flow_report_positive(world, g0, [0], 75600)
    code1 = flow_report_positive(world, g1, [0], 75900)
    flow_trace(world, world.hds[0], code0, 79200)
    flow_trace(world, world.hds[1], code1, 79200 + 600)
    code_to_user, _ = correlate_trace_requests(world.server, world.transport.observations)
    assert code_to_user == {code0: g0.user_id, code1: g1.user_id}


def test_correlation_empty_without_traces():
    world = populate(make_world("corr0"))
    code_to_user, code_to_addr = correlate_trace_requests(world.server, world.transport.observations)
    assert code_to_user == {}
    assert code_to_addr == {}


def _reference_correlation(server):
    """The pairing loop as first written: every contact fetch for every upload fetch."""
    code_to_user_id = {}
    log = server.request_log
    contact_fetches = [(seq, e) for seq, e in enumerate(log) if e["kind"] == "fetch_contact"]
    used = set()
    for seq, entry in enumerate(log):
        if entry["kind"] != "fetch_upload":
            continue
        for fetch_seq, fetch in contact_fetches:
            if fetch_seq in used or fetch_seq < seq:
                continue
            if not 0 <= fetch["t"] - entry["t"] <= CORRELATION_WINDOW_S:
                continue
            code_to_user_id[entry["param"]] = fetch["param"]
            used.add(fetch_seq)
            break
    return dict(sorted(code_to_user_id.items()))


def test_correlation_equals_reference_on_a_hand_built_log():
    rows = [
        ("fetch_upload", 100, "A"),
        ("fetch_contact", 90, "u-before"),  # later in the log, earlier in time
        ("fetch_upload", 110, "B"),
        ("fetch_contact", 500, "u-late"),  # outside every window
        ("fetch_contact", 120, "u1"),
        ("fetch_contact", 130, "u2"),
        ("fetch_upload", 1000, "C"),
        ("fetch_contact", 1000, "u3"),
        ("fetch_upload", 2000, "D"),
        ("fetch_contact", 1990, "u-neg"),
        ("fetch_contact", 3000, "u-prior"),  # logged before E, never paired with it
        ("fetch_upload", 3000, "E"),
    ]
    server = SimpleNamespace(
        uploads={},
        request_log=[
            {"t": t, "kind": kind, "hd_id": "hd000", "param": param} for kind, t, param in rows
        ],
    )
    code_to_user, _ = correlate_trace_requests(server, [])
    assert code_to_user == {"A": "u1", "B": "u2", "C": "u3"}
    assert code_to_user == _reference_correlation(server)


@pytest.mark.parametrize("name", ["trace_leakage", "full_attack_matrix", "pki_hardened", "qr_hardened"])
def test_correlation_equals_reference_on_bundled_traces(name):
    world = run_scenario(load_bundled_config(name)).world
    code_to_user, _ = correlate_trace_requests(world.server, world.transport.observations)
    assert code_to_user
    assert code_to_user == _reference_correlation(world.server)


def test_trace_leakage_links_all_window_visits():
    world = populate(make_world("leak"), guests=4, venues=3)
    g0 = world.guests[0]
    recs = [
        _visit(world, g0, "v000:s0", 30000),
        _visit(world, g0, "v001:s0", 36000),
        _visit(world, g0, "v002:s0", 42000),
    ]
    code = flow_report_positive(world, g0, [0], 75600)
    flow_trace(world, world.hds[0], code, 79200)
    knowledge = AdversaryKnowledge()
    observe_trace_leakage(world.server, knowledge)
    view = world.server.trace_views[0]
    assert view.index_user_id == g0.user_id
    assert set(view.matched_record_ids) == {r.record_id for r in recs}
    assert sorted(view.venue_windows) == ["v000", "v001", "v002"]
    for r in recs:
        assert knowledge.traced_records[r.record_id].user_id == g0.user_id


def test_trace_leakage_contacts_cover_cotenants():
    world = populate(make_world("leak2"), guests=4, venues=2)
    g0, g1, g2 = world.guests[:3]
    flow_checkin_scanner(world, g0, "v000:s0", 30000)
    flow_checkin_scanner(world, g1, "v000:s0", 30100)
    flow_checkin_scanner(world, g2, "v000:s0", 30200)
    for g, t in ((g0, 33000), (g1, 33100), (g2, 33200)):
        flow_checkout(world, g, t)
    code = flow_report_positive(world, g0, [0], 75600)
    flow_trace(world, world.hds[0], code, 79200)
    contact_ids = set(world.server.trace_views[0].contact_user_ids)
    assert contact_ids >= true_cotenants(world.truth, g0.user_id, [0])


def test_untraced_guests_absent_from_leakage():
    world = populate(make_world("leak3"), guests=3)
    _visit(world, world.guests[2], "v001:s0", 30000)
    knowledge = AdversaryKnowledge()
    observe_trace_leakage(world.server, knowledge)
    assert world.server.trace_views == []
    assert knowledge.traced_records == {}


def test_singleton_contact_attribution():
    world = populate(make_world("leak4"), guests=3, venues=1)
    g0, g1 = world.guests[0], world.guests[1]
    r0 = flow_checkin_scanner(world, g0, "v000:s0", 30000)
    r1 = flow_checkin_scanner(world, g1, "v000:s0", 30100)
    flow_checkout(world, g0, 33000)
    flow_checkout(world, g1, 33100)
    code = flow_report_positive(world, g0, [0], 75600)
    flow_trace(world, world.hds[0], code, 79200)
    knowledge = AdversaryKnowledge()
    observe_trace_leakage(world.server, knowledge)
    claim = knowledge.traced_records[r1.record_id]
    assert claim.user_id == g1.user_id
    assert claim.via == "trace-correlation"


# -- active attacks ---------------------------------------------------------------


def _attack_env(seed="atk", **populate_kw):
    world = make_world(seed)
    adversary = Adversary(Random(f"{seed}:adv"))
    return world, adversary


def _truth_inner(world):
    return {
        e.data.record_id: e.data.inner_ref
        for e in world.truth.events
        if e.kind == "checkin"
    }


def test_venue_oracle_strips_outer_layers():
    world, adversary = _attack_env("oracle")
    populate(world, guests=3, venues=2)
    attack = make_attack(adversary, "venue_decryption_oracle", {"venue": 0})
    recs = [_visit(world, g, "v000:s0", 30000 + i * 500, stay=400) for i, g in enumerate(world.guests)]
    attack.execute(world, 84000)
    knowledge = AdversaryKnowledge()
    outcome = attack.finalize(world, knowledge)
    assert outcome.succeeded
    assert outcome.detectable == "undetectable"
    truth_inner = _truth_inner(world)
    for rec in recs:
        assert adversary.unconsented_strips[rec.record_id].hex() == truth_inner[rec.record_id]


def test_venue_oracle_empty_target_is_no_success():
    world, adversary = _attack_env("oracle0")
    populate(world, guests=1, venues=2)
    attack = make_attack(adversary, "venue_decryption_oracle", {"venue": 1})
    attack.execute(world, 84000)
    outcome = attack.finalize(world, AdversaryKnowledge())
    assert not outcome.succeeded
    assert outcome.details["record_ids"] == []


def test_venue_oracle_always_succeeds_requests_unauthenticated():
    # Both mitigations on: the oracle is inherent to the design.
    world = populate(
        make_world("oracleboth", mitigations=MitigationConfig(True, True), pki=True),
        guests=2,
        venues=1,
    )
    adversary = Adversary(Random("adv"))
    attack = make_attack(adversary, "venue_decryption_oracle", {"venue": 0})
    _visit(world, world.guests[0], "v000:s0", 30000)
    attack.execute(world, 84000)
    assert attack.finalize(world, AdversaryKnowledge()).succeeded


def test_expand_window_decrypts_extras():
    world, adversary = _attack_env("expand")
    populate(world, guests=4, venues=1)
    attack = make_attack(adversary, "expand_window", {"pad_per_venue": 5})
    attack.install(world)
    g0, g1 = world.guests[0], world.guests[1]
    _visit(world, g0, "v000:s0", 30000, stay=2000)
    # Far outside the index window: different guests, much later.
    _visit(world, world.guests[2], "v000:s0", 50000, stay=1000)
    _visit(world, world.guests[3], "v000:s0", 60000, stay=1000)
    code = flow_report_positive(world, g0, [0], 75600)
    flow_trace(world, world.hds[0], code, 79200)
    knowledge = AdversaryKnowledge()
    outcome = attack.finalize(world, knowledge)
    assert outcome.succeeded
    assert len(outcome.details["record_ids"]) == 2  # both out-of-window records
    truth_inner = _truth_inner(world)
    for rid in outcome.details["record_ids"]:
        assert world.server.singly_refs[rid].hex() == truth_inner[rid]


def test_expand_window_zero_pad_equals_honest_trace():
    world, adversary = _attack_env("expand0")
    populate(world, guests=2, venues=1)
    attack = make_attack(adversary, "expand_window", {"pad_per_venue": 0})
    attack.install(world)
    g0 = world.guests[0]
    _visit(world, g0, "v000:s0", 30000)
    code = flow_report_positive(world, g0, [0], 75600)
    flow_trace(world, world.hds[0], code, 79200)
    outcome = attack.finalize(world, AdversaryKnowledge())
    assert not outcome.succeeded  # nothing padded, nothing learned
    assert outcome.details["record_ids"] == []


def test_expand_window_spans_other_days():
    world, adversary = _attack_env("expandd")
    populate(world, guests=3, venues=1, rotate_days=(0, 1))
    attack = make_attack(adversary, "expand_window", {"pad_per_venue": 5})
    attack.install(world)
    _visit(world, world.guests[1], "v000:s0", 30000)  # day 0, out of window
    g0 = world.guests[0]
    _visit(world, g0, "v000:s0", 86400 + 30000)  # day 1 index visit
    code = flow_report_positive(world, g0, [1], 86400 + 75600)
    flow_trace(world, world.hds[0], code, 86400 + 79200)
    outcome = attack.finalize(world, AdversaryKnowledge())
    assert outcome.succeeded
    assert len(outcome.details["record_ids"]) == 1  # the day-0 record was decrypted too


def test_expand_window_pad_stops_after_its_extras(monkeypatch):
    world, adversary = _attack_env("expandn")
    populate(world, guests=1, venues=1)
    attack = make_attack(adversary, "expand_window", {"pad_per_venue": 5})
    attack.install(world)
    server = world.server
    stored = [server.store_checkin("v000:s0", i.to_bytes(16, "big"), b"", 1000 + i) for i in range(300)]
    ids = [rec.record_id for rec in stored]
    legit = [ids[0], ids[2], ids[7]]
    read = []
    at_venue = server.records_at_venue

    def counted(venue_id):
        for rec in at_venue(venue_id):
            read.append(rec.record_id)
            yield rec

    monkeypatch.setattr(server, "records_at_venue", counted)
    extras = server.hooks.trace_padding("v000", legit, server)
    assert extras == [ids[1], ids[3], ids[4], ids[5], ids[6]]  # venue order, legit left out
    assert len(read) <= 5 + len(legit)


def test_substitute_venue_key_affects_self_checkins():
    world, adversary = _attack_env("subv")
    populate(world, guests=4, venues=2)
    attack = make_attack(adversary, "substitute_venue_key", {"venue": 0})
    attack.install(world)
    for i, guest in enumerate(world.guests[:3]):
        flow_checkin_self(world, guest, world.venues[0], 30000 + i * 400)
    outcome = attack.finalize(world, AdversaryKnowledge())
    assert outcome.succeeded
    assert len(outcome.details["record_ids"]) == 3


def test_substitute_venue_key_scanner_flow_unaffected():
    world, adversary = _attack_env("subv2")
    populate(world, guests=2, venues=1)
    attack = make_attack(adversary, "substitute_venue_key", {"venue": 0})
    attack.install(world)
    flow_checkin_scanner(world, world.guests[0], "v000:s0", 30000)
    outcome = attack.finalize(world, AdversaryKnowledge())
    assert not outcome.succeeded  # scanner wraps with the local venue key


def test_substitute_venue_key_fails_with_embedded_qr():
    world = populate(
        make_world("subv3", mitigations=MitigationConfig(qr_embeds_venue_key=True)),
        guests=2,
        venues=1,
    )
    adversary = Adversary(Random("adv"))
    attack = make_attack(adversary, "substitute_venue_key", {"venue": 0})
    attack.install(world)
    flow_checkin_self(world, world.guests[0], world.venues[0], 30000)
    outcome = attack.finalize(world, AdversaryKnowledge())
    assert not outcome.succeeded


def test_exfiltrate_venue_key_on_gen():
    world, adversary = _attack_env("exfv")
    attack = make_attack(adversary, "exfiltrate_venue_key", {"venue": 0, "mode": "exfil_on_gen"})
    attack.install(world)
    populate(world, guests=1, venues=2)
    knowledge = AdversaryKnowledge()
    outcome = attack.finalize(world, knowledge)
    assert outcome.succeeded
    assert adversary.venue_keys["v000"] == world.venues[0].keypair.private.data
    # Untargeted venue's key is not learned.
    assert "v001" not in adversary.venue_keys


def test_exfiltrate_venue_key_backdoor_keygen():
    world, adversary = _attack_env("exfvb")
    attack = make_attack(adversary, "exfiltrate_venue_key", {"venue": 0, "mode": "backdoor_keygen"})
    attack.install(world)
    populate(world, guests=1, venues=1)
    outcome = attack.finalize(world, AdversaryKnowledge())
    assert outcome.succeeded


def test_exfiltrate_venue_key_on_use_deferred_without_use():
    world, adversary = _attack_env("exfvu")
    attack = make_attack(adversary, "exfiltrate_venue_key", {"venue": 0, "mode": "exfil_on_use"})
    attack.install(world)
    populate(world, guests=2, venues=1)
    outcome = attack.finalize(world, AdversaryKnowledge())
    assert not outcome.succeeded
    assert "deferred" in outcome.secrets_learned


def test_exfiltrate_venue_key_on_use_captures_during_trace():
    world, adversary = _attack_env("exfvu2")
    attack = make_attack(adversary, "exfiltrate_venue_key", {"venue": 0, "mode": "exfil_on_use"})
    attack.install(world)
    populate(world, guests=2, venues=1)
    g0 = world.guests[0]
    _visit(world, g0, "v000:s0", 30000)
    code = flow_report_positive(world, g0, [0], 75600)
    flow_trace(world, world.hds[0], code, 79200)
    outcome = attack.finalize(world, AdversaryKnowledge())
    assert outcome.succeeded


def test_substitute_master_key_decrypts_day_and_upload():
    world, adversary = _attack_env("subm")
    populate(world, guests=3, venues=1)
    attack = make_attack(adversary, "substitute_master_key", {"day": 0})
    attack.install(world)
    g0, g1 = world.guests[0], world.guests[1]
    _visit(world, g0, "v000:s0", 30000)
    _visit(world, g1, "v000:s0", 40000)
    flow_report_positive(world, g0, [0], 75600)
    knowledge = AdversaryKnowledge()
    outcome = attack.finalize(world, knowledge)
    assert outcome.succeeded
    assert len(outcome.details["record_ids"]) == 2
    assert len(outcome.details["upload_codes"]) == 1


def test_substitute_master_key_fails_under_pki():
    world = populate(make_world("subm2", pki=True), guests=2, venues=1, rotate_days=())
    adversary = Adversary(Random("adv"))
    attack = make_attack(adversary, "substitute_master_key", {"day": 0})
    attack.install(world)
    flow_rotate_daily_master_key(world, world.hds[0], 0, 0)
    _visit(world, world.guests[0], "v000:s0", 30000)
    outcome = attack.finalize(world, AdversaryKnowledge())
    assert not outcome.succeeded
    assert "rejected" in outcome.secrets_learned


def test_impersonate_hd_recovers_master_key_stealthily():
    world, adversary = _attack_env("imp")
    attack = make_attack(adversary, "impersonate_hd", {})
    attack.install(world)
    populate(world, guests=2, venues=1)
    g0 = world.guests[0]
    rec = flow_checkin_scanner(world, g0, "v000:s0", 30000)
    knowledge = AdversaryKnowledge()
    outcome = attack.finalize(world, knowledge)
    assert outcome.succeeded
    assert outcome.details["days"] == [0]
    assert outcome.details["published_key_untouched"]
    # The recovered key decrypts an honest guest's reference.
    inner = crypto.decrypt(world.venues[0].keypair.private, rec.double_enc_ref)
    uid, _ = crypto.open_user_reference(
        inner, crypto.PrivateKey("daily-master", adversary.master_keys[0])
    )
    assert uid == g0.user_id


def test_impersonate_hd_fails_under_pki():
    world = populate(make_world("imp2", pki=True), rotate_days=())
    adversary = Adversary(Random("adv"))
    attack = make_attack(adversary, "impersonate_hd", {})
    attack.install(world)
    flow_rotate_daily_master_key(world, world.hds[0], 0, 0)
    outcome = attack.finalize(world, AdversaryKnowledge())
    assert not outcome.succeeded


def test_hd_oracle_returns_correct_user_ids():
    world, adversary = _attack_env("hdo")
    populate(world, guests=5, venues=1)
    venue_oracle = make_attack(adversary, "venue_decryption_oracle", {"venue": 0})
    hd_oracle = make_attack(adversary, "hd_decryption_oracle", {"hd": 0})
    recs = [_visit(world, g, "v000:s0", 30000 + i * 600, stay=500) for i, g in enumerate(world.guests)]
    venue_oracle.execute(world, 84000)
    hd_oracle.execute(world, 84060)
    knowledge = AdversaryKnowledge()
    outcome = hd_oracle.finalize(world, knowledge)
    assert outcome.succeeded
    assert outcome.detectable == "detectable-by-HD"
    assert len(outcome.details["record_ids"]) == 5
    for rec, guest in zip(recs, world.guests):
        assert knowledge.decrypted_refs[rec.record_id].user_id == guest.user_id
        # The outer layer came off outside any consent scope.
        assert rec.record_id in adversary.unconsented_strips


def test_hd_oracle_lets_invariant_breaches_propagate(monkeypatch):
    world, adversary = _attack_env("hdo-bug")
    populate(world, guests=2, venues=1)
    venue_oracle = make_attack(adversary, "venue_decryption_oracle", {"venue": 0})
    hd_oracle = make_attack(adversary, "hd_decryption_oracle", {"hd": 0})
    _visit(world, world.guests[0], "v000:s0", 30000, stay=500)
    venue_oracle.execute(world, 84000)

    def breach(*_args):
        raise SimulationError("hd000 has no encrypted master copy for day 0")

    monkeypatch.setattr(actors, "hd_get_master_sk", breach)
    with pytest.raises(SimulationError):
        hd_oracle.execute(world, 84060)


def test_hd_oracle_empty_input_learns_nothing():
    world, adversary = _attack_env("hdo0")
    populate(world)
    attack = make_attack(adversary, "hd_decryption_oracle", {"hd": 0})
    attack.execute(world, 84000)
    outcome = attack.finalize(world, AdversaryKnowledge())
    assert not outcome.succeeded
    assert outcome.details["record_ids"] == []


def test_modify_scanner_targets_one_scanner():
    world, adversary = _attack_env("mods")
    populate(world, guests=3, venues=2, scanners=2)
    attack = make_attack(adversary, "modify_scanner", {"venue": 0, "scanner": 0})
    attack.install(world)
    g0, g1, g2 = world.guests
    r_target = flow_checkin_scanner(world, g0, "v000:s0", 30000)
    r_other = flow_checkin_scanner(world, g1, "v000:s1", 31000)
    r_other_venue = flow_checkin_scanner(world, g2, "v001:s0", 32000)
    knowledge = AdversaryKnowledge()
    outcome = attack.finalize(world, knowledge)
    assert outcome.succeeded
    assert outcome.details["record_ids"] == [r_target.record_id]
    # Other scanners' uploads remain under the honest master key.
    for rec in (r_other, r_other_venue):
        inner_hex = {
            e.data.record_id: e.data.inner_ref
            for e in world.truth.events
            if e.kind == "checkin"
        }[rec.record_id]
        uid, _ = crypto.open_user_reference(bytes.fromhex(inner_hex), world.hds[0].master_sks[0])
        assert uid in (g1.user_id, g2.user_id)


def test_modify_scanner_poll_still_confirms():
    world, adversary = _attack_env("mods2")
    populate(world, guests=1, venues=1)
    attack = make_attack(adversary, "modify_scanner", {"venue": 0, "scanner": 0})
    attack.install(world)
    guest = world.guests[0]
    rec = flow_checkin_scanner(world, guest, "v000:s0", 30000)
    trace_id = crypto.derive_trace_id(guest.seeds[0], 0)
    assert world.server.by_trace[trace_id] == rec.record_id  # confirmed normally


def test_exfiltrate_hd_key_sweeps_all_days():
    world, adversary = _attack_env("exfh")
    attack = make_attack(adversary, "exfiltrate_hd_key", {"hd": 1, "mode": "exfil_on_gen"})
    attack.install(world)
    populate(world, guests=2, venues=1, rotate_days=(0, 1, 2))
    knowledge = AdversaryKnowledge()
    outcome = attack.finalize(world, knowledge)
    assert outcome.succeeded
    assert outcome.details["days"] == [0, 1, 2]
    for day in (0, 1, 2):
        assert adversary.master_keys[day] == world.hds[0].master_sks[day].data


def test_exfiltrate_hd_key_untargeted_hd_not_learned():
    world, adversary = _attack_env("exfh2")
    attack = make_attack(adversary, "exfiltrate_hd_key", {"hd": 1, "mode": "exfil_on_gen"})
    attack.install(world)
    populate(world)
    attack.finalize(world, AdversaryKnowledge())
    assert adversary.enc_pair.private.data != world.hds[2].enc_pair.private.data


def test_passive_separation_no_attacks_no_decryptions():
    world = populate(make_world("sep"), guests=3)
    g0 = world.guests[0]
    _visit(world, g0, "v000:s0", 30000)
    code = flow_report_positive(world, g0, [0], 75600)
    flow_trace(world, world.hds[0], code, 79200)
    knowledge = AdversaryKnowledge()
    observe_trace_leakage(world.server, knowledge)
    consolidate(world, None, knowledge)
    # No key opened anything: every strip came from the trace itself.
    assert {s.via for s in knowledge.stripped_records.values()} == {"trace"}
    assert knowledge.decrypted_refs == {}
    # Consented strips are held, but none without consent.
    assert knowledge.stripped_records.keys() <= world.truth.view().consented


def test_consolidation_chains_keys_into_contact_data():
    world, adversary = _attack_env("chain")
    exf_v = make_attack(adversary, "exfiltrate_venue_key", {"venue": 0, "mode": "exfil_on_gen"})
    exf_h = make_attack(adversary, "exfiltrate_hd_key", {"hd": 1, "mode": "exfil_on_gen"})
    exf_v.install(world)
    exf_h.install(world)
    populate(world, guests=2, venues=1)
    g0 = world.guests[0]
    rec = _visit(world, g0, "v000:s0", 30000)
    knowledge = AdversaryKnowledge()
    exf_v.finalize(world, knowledge)
    exf_h.finalize(world, knowledge)
    consolidate(world, adversary, knowledge)
    claim = knowledge.decrypted_refs[rec.record_id]
    assert claim.user_id == g0.user_id
    assert knowledge.stripped_records[rec.record_id].via == "exfiltrated_venue_key:v000"
    assert knowledge.contact_data[g0.user_id].contact == g0.contact


def test_exfiltrate_hd_key_backdoor_keygen():
    world, adversary = _attack_env("exfhb")
    attack = make_attack(adversary, "exfiltrate_hd_key", {"hd": 1, "mode": "backdoor_keygen"})
    attack.install(world)
    populate(world, rotate_days=(0,))
    outcome = attack.finalize(world, AdversaryKnowledge())
    assert outcome.succeeded
    assert adversary.master_keys[0] == world.hds[0].master_sks[0].data


def test_exfiltrate_hd_key_on_use_captures_on_master_fetch():
    from lucasim.actors import hd_get_master_sk

    world, adversary = _attack_env("exfhu")
    attack = make_attack(adversary, "exfiltrate_hd_key", {"hd": 1, "mode": "exfil_on_use"})
    attack.install(world)
    populate(world, rotate_days=(0,))
    assert not attack.finalize(world, AdversaryKnowledge()).succeeded  # not used yet
    hd_get_master_sk(world, world.hds[1], 0, t=100)
    outcome = attack.finalize(world, AdversaryKnowledge())
    assert outcome.succeeded


def test_exfiltrate_hd_key_skip_checks_reopens_impersonation_under_pki():
    world = make_world("exfhs", pki=True)
    adversary = Adversary(Random("adv"))
    skip = make_attack(adversary, "exfiltrate_hd_key", {"hd": 0, "mode": "skip_checks"})
    imp = make_attack(adversary, "impersonate_hd", {})
    skip.install(world)
    imp.install(world)
    populate(world)  # hd000 rotates with its certificate checks disabled
    outcome = imp.finalize(world, AdversaryKnowledge())
    assert outcome.succeeded
    assert skip.finalize(world, AdversaryKnowledge()).succeeded


_VENUE_OK = "venue private key recovered"
_HD_OK = "HD private key recovered; daily master keys for days [0]"


@pytest.mark.parametrize(
    "attack_id, mode, use, rotated, succeeded, learned, details",
    [
        ("exfiltrate_venue_key", "exfil_on_gen", False, False, True, _VENUE_OK,
         {"venue_id": "v001", "mode": "exfil_on_gen"}),
        ("exfiltrate_venue_key", "exfil_on_use", False, False, False,
         "no key yet (venue key not used; success deferred)",
         {"venue_id": "v001", "mode": "exfil_on_use"}),
        ("exfiltrate_venue_key", "exfil_on_use", True, False, True, _VENUE_OK,
         {"venue_id": "v001", "mode": "exfil_on_use"}),
        ("exfiltrate_venue_key", "backdoor_keygen", False, False, True, _VENUE_OK,
         {"venue_id": "v001", "mode": "backdoor_keygen"}),
        ("exfiltrate_venue_key", "skip_checks", False, False, True,
         "no additional venue-side checks exist in the baseline design",
         {"venue_id": "v001", "mode": "skip_checks"}),
        ("exfiltrate_venue_key", "exfil_on_gen", False, True, False,
         "captured key does not match", {"venue_id": "v001", "mode": "exfil_on_gen"}),
        ("exfiltrate_hd_key", "exfil_on_gen", False, False, True, _HD_OK,
         {"hd_id": "hd001", "days": [0]}),
        ("exfiltrate_hd_key", "exfil_on_use", False, False, False,
         "no key yet (HD key not used; success deferred)",
         {"hd_index": 1, "mode": "exfil_on_use"}),
        ("exfiltrate_hd_key", "exfil_on_use", True, False, True, _HD_OK,
         {"hd_id": "hd001", "days": [0]}),
        ("exfiltrate_hd_key", "backdoor_keygen", False, False, True, _HD_OK,
         {"hd_id": "hd001", "days": [0]}),
        ("exfiltrate_hd_key", "skip_checks", False, False, True,
         "HD frontend certificate checks disabled; rotation accepts any key",
         {"hd_id": "hd001", "mode": "skip_checks"}),
        ("exfiltrate_hd_key", "exfil_on_gen", False, True, False,
         "captured key does not match", {"hd_index": 1}),
    ],
)
def test_key_exfiltration_outcomes_are_pinned(
    attack_id, mode, use, rotated, succeeded, learned, details
):
    """Exact outcome of every exfiltration mode against the venue and the HD.

    ``use`` makes the frontend use its key after install; ``rotated`` replaces
    the frontend's key after the leak, so the captured key no longer matches.
    """
    from lucasim.actors import hd_get_master_sk, venue_decrypt_records

    world, adversary = _attack_env(f"pin:{attack_id}:{mode}")
    venue_attack = attack_id == "exfiltrate_venue_key"
    target = {"venue": 1} if venue_attack else {"hd": 1}
    attack = make_attack(adversary, attack_id, {**target, "mode": mode})
    attack.install(world)
    populate(world, rotate_days=(0,))
    if use and venue_attack:
        venue_decrypt_records(world, world.venues[1], [], 100)
    elif use:
        hd_get_master_sk(world, world.hds[1], 0, t=100)
    if rotated and venue_attack:
        replace_venue(world, 1, keypair=crypto.gen_keypair("venue", Random("rotated")))
    elif rotated:
        rotated_pair = crypto.gen_keypair("health-dept-enc", Random("rotated"))
        world.hds[1] = world.hds[1]._replace(enc_pair=rotated_pair)
    knowledge = AdversaryKnowledge()
    outcome = attack.finalize(world, knowledge)
    assert outcome.attack_id == attack_id
    assert outcome.detectable == "undetectable"
    assert outcome.succeeded is succeeded
    assert outcome.secrets_learned == learned
    assert outcome.details == details
    # The keys the adversary holds afterwards: the venue's own key, or the
    # daily master key that the HD's key opens.
    venue_keys, master_keys = {}, {}
    if succeeded and mode != "skip_checks" and venue_attack:
        venue_keys = {"v001": world.venues[1].keypair.private.data}
    elif succeeded and mode != "skip_checks":
        master_keys = {0: world.hds[0].master_sks[0].data}
    assert adversary.venue_keys == venue_keys
    assert adversary.master_keys == master_keys


# -- verifiers that say no -----------------------------------------------------
# Each test hands a verifier loot that does not decrypt, after install, and
# checks that the decrypt failed and that nothing is claimed for it.


def _decrypt_failures(monkeypatch, name):
    """The calls to ``crypto.<name>`` that raise DecryptionFailure, from now on."""
    failures = []
    original = getattr(crypto, name)

    def counted(*args):
        try:
            return original(*args)
        except crypto.DecryptionFailure:
            failures.append(args)
            raise

    monkeypatch.setattr(crypto, name, counted)
    return failures


def test_modify_scanner_with_a_fresh_key_verifies_no_inner_layer(monkeypatch):
    world, adversary = _attack_env("mods-no")
    populate(world, guests=2, venues=1)
    attack = make_attack(adversary, "modify_scanner", {"venue": 0, "scanner": 0})
    attack.install(world)
    _visit(world, world.guests[0], "v000:s0", 30000)
    attack.pair = crypto.gen_keypair("daily-master", Random("fresh"))
    failures = _decrypt_failures(monkeypatch, "decrypt")
    outcome = attack.finalize(world, AdversaryKnowledge())
    assert failures
    assert not outcome.succeeded
    assert outcome.details["record_ids"] == []


def test_exfiltrate_hd_key_recovers_no_copy_addressed_to_another_hd(monkeypatch):
    world, adversary = _attack_env("exfh-no")
    attack = make_attack(adversary, "exfiltrate_hd_key", {"hd": 1, "mode": "exfil_on_gen"})
    attack.install(world)
    populate(world, guests=1, venues=1)
    copies = world.server.master_keys[0].copies
    copies["hd001"] = copies["hd002"]
    failures = _decrypt_failures(monkeypatch, "decrypt")
    outcome = attack.finalize(world, AdversaryKnowledge())
    assert failures
    assert not outcome.succeeded
    assert outcome.details["days"] == []
    assert adversary.master_keys == {}


def test_substitute_venue_key_with_a_fresh_key_strips_nothing(monkeypatch):
    world, adversary = _attack_env("subv-no")
    populate(world, guests=2, venues=1)
    attack = make_attack(adversary, "substitute_venue_key", {"venue": 0})
    attack.install(world)
    flow_checkin_self(world, world.guests[0], world.venues[0], 30000)
    adversary.enc_pair = crypto.gen_keypair("adversary", Random("fresh"))
    failures = _decrypt_failures(monkeypatch, "decrypt")
    outcome = attack.finalize(world, AdversaryKnowledge())
    assert failures
    assert not outcome.succeeded
    assert outcome.details["record_ids"] == []


def test_substitute_master_key_counts_no_upload_sealed_to_another_key(monkeypatch):
    world, adversary = _attack_env("subm-no")
    populate(world, guests=2, venues=1)
    attack = make_attack(adversary, "substitute_master_key", {"day": 0})
    attack.install(world)
    code = flow_report_positive(world, world.guests[0], [0], 75600)
    upload = world.server.uploads[code]
    payload = crypto.decrypt(attack.pair.private, upload.ciphertext)
    other = crypto.gen_keypair("daily-master", Random("other"))
    resealed = crypto.encrypt(other.public, payload, Random("reseal"))
    world.server.uploads[code] = upload._replace(ciphertext=resealed)
    failures = _decrypt_failures(monkeypatch, "decrypt")
    outcome = attack.finalize(world, AdversaryKnowledge())
    assert failures
    assert not outcome.succeeded
    assert outcome.details["upload_codes"] == []


def test_consolidation_claims_no_contact_its_key_does_not_open(monkeypatch):
    world, adversary = _attack_env("chain-no")
    exf_v = make_attack(adversary, "exfiltrate_venue_key", {"venue": 0, "mode": "exfil_on_gen"})
    exf_h = make_attack(adversary, "exfiltrate_hd_key", {"hd": 1, "mode": "exfil_on_gen"})
    exf_v.install(world)
    exf_h.install(world)
    populate(world, guests=2, venues=1)
    g0, g1 = world.guests
    rec = _visit(world, g0, "v000:s0", 30000)
    knowledge = AdversaryKnowledge()
    exf_v.finalize(world, knowledge)
    exf_h.finalize(world, knowledge)
    # The stored contact record is another user's, sealed under their key.
    users = world.server.users
    users[g0.user_id] = users[g0.user_id]._replace(encrypted_contact=users[g1.user_id].encrypted_contact)
    failures = _decrypt_failures(monkeypatch, "sym_decrypt")
    consolidate(world, adversary, knowledge)
    assert failures
    assert knowledge.decrypted_refs[rec.record_id].user_id == g0.user_id
    assert knowledge.contact_data == {}


def test_consolidation_skips_a_claim_naming_a_user_the_server_does_not_know(monkeypatch):
    world, adversary = _attack_env("chain-nouser")
    populate(world, guests=1, venues=1)
    g0 = world.guests[0]
    _visit(world, g0, "v000:s0", 30000)
    knowledge = AdversaryKnowledge()
    # The contact key would open g0's stored record, but the claim names no
    # registered user, so there is no stored record to open.
    knowledge.decrypted_refs["r-injected"] = RecordClaim(
        "u-unregistered", "injected", g0.contact_key.hex()
    )
    failures = _decrypt_failures(monkeypatch, "sym_decrypt")
    consolidate(world, adversary, knowledge)
    assert failures == []
    assert knowledge.contact_data == {}
    assert knowledge.code_to_user_id == {}
    assert knowledge.traced_records == {}


def test_consolidation_attributes_no_upload_that_no_held_key_opens(monkeypatch):
    world, adversary = _attack_env("chain-noupload")
    exf_h = make_attack(adversary, "exfiltrate_hd_key", {"hd": 1, "mode": "exfil_on_gen"})
    exf_h.install(world)
    populate(world, guests=1, venues=1)
    g0 = world.guests[0]
    _visit(world, g0, "v000:s0", 30000)
    knowledge = AdversaryKnowledge()
    exf_h.finalize(world, knowledge)
    assert set(adversary.master_keys) == {0}
    # The upload is sealed to day 1's master key, which the adversary never held.
    flow_rotate_daily_master_key(world, world.hds[0], 1, 86400)
    code = flow_report_positive(world, g0, [0], 90000)
    failures = _decrypt_failures(monkeypatch, "decrypt")
    consolidate(world, adversary, knowledge)
    assert world.server.uploads[code].ciphertext in [args[1] for args in failures]
    assert knowledge.contact_data == {}
    assert knowledge.code_to_user_id == {}
    assert knowledge.traced_records == {}


# -- consolidation: every held key on every record and upload ---------------------


def _brute_force_consolidate(world, adversary, knowledge):
    """Reference consolidation: every held outer key on every record and every
    held inner key on every stripped record, whatever its venue or day.

    The steps after the two trial-decryption loops are left to ``consolidate``,
    which then finds both layers of every record already handled.
    """
    server = world.server
    consented = consented_strip_ids(server)
    for rid, ct in sorted(server.singly_refs.items()):
        via = "trace" if rid in consented else "decryption_oracle"
        knowledge.stripped_records.setdefault(rid, StrippedRecord(inner_ciphertext=ct, via=via))
    outer_keys = [("substitute_venue_key", adversary.enc_pair.private)] + [
        (f"exfiltrated_venue_key:{vid}", crypto.PrivateKey("venue", raw))
        for vid, raw in sorted(adversary.venue_keys.items())
    ]
    for rid, rec in sorted(server.checkins.items()):
        if rid in knowledge.stripped_records:
            continue
        for via, sk in outer_keys:
            try:
                inner = crypto.decrypt(sk, rec.double_enc_ref)
            except crypto.DecryptionFailure:
                continue
            knowledge.stripped_records[rid] = StrippedRecord(inner_ciphertext=inner, via=via)
            break
    inner_keys = [
        (f"master_key:day{day}", crypto.PrivateKey("daily-master", raw))
        for day, raw in sorted(adversary.master_keys.items())
    ] + [(f"minted_master:{i}", p.private) for i, p in enumerate(adversary.minted_master_pairs)]
    for rid, stripped in sorted(knowledge.stripped_records.items()):
        if rid in knowledge.decrypted_refs:
            continue
        for via, sk in inner_keys:
            try:
                uid, ckey = crypto.open_user_reference(stripped.inner_ciphertext, sk)
            except crypto.DecryptionFailure:
                continue
            knowledge.decrypted_refs[rid] = RecordClaim(
                user_id=uid, via=f"{stripped.via}+{via}", contact_key_hex=ckey.hex()
            )
            break
    consolidate(world, adversary, knowledge)


def _run_with_consolidation(monkeypatch, config, step):
    """Run ``config`` with ``step(world, adversary, knowledge)`` standing in
    for its consolidation; returns the run and what ``step`` returned."""
    out = {}

    def replaced(world, adversary, knowledge):
        out["value"] = step(world, adversary, knowledge)

    monkeypatch.setattr(adversary_module, "consolidate", replaced)
    return run_scenario(config), out["value"]


@pytest.mark.parametrize("name", ["full_attack_matrix", "pki_hardened", "qr_hardened"])
def test_scoped_consolidation_equals_brute_force(monkeypatch, name):
    def both(world, adversary, knowledge):
        reference = copy.deepcopy(knowledge)
        _brute_force_consolidate(world, adversary, reference)
        consolidate(world, adversary, knowledge)
        return reference

    result, reference = _run_with_consolidation(monkeypatch, load_bundled_config(name), both)
    scoped = result.knowledge
    assert scoped.stripped_records == reference.stripped_records
    assert scoped.decrypted_refs == reference.decrypted_refs
    assert scoped.contact_data == reference.contact_data
    assert scoped.traced_records == reference.traced_records
    if name == "full_attack_matrix":
        vias = {claim.via for claim in scoped.decrypted_refs.values()}
        assert any(v.startswith("substitute_venue_key+") for v in vias)
        assert any(v.startswith("exfiltrated_venue_key:") for v in vias)


# An active run over six days: the adversary recovers every day's master
# key (impersonate_hd) and strips the outer layer of every record at venue 0
# on the last day (venue_decryption_oracle); one positive uploads on day 4.
_MULTI_DAY_ACTIVE = {
    "name": "multi_day_active",
    "seed": 7,
    "duration_days": 6,
    "health_depts": 1,
    "population": {"guests": 16, "visits_per_day": 1.0},
    "venues": {"count": 2},
    "adversary": {
        "posture": "active",
        "attacks": [
            {"attack": "impersonate_hd", "day": 0, "params": {}},
            {"attack": "venue_decryption_oracle", "day": 5, "params": {"venue": 0}},
        ],
    },
    "positives": [{"guest": 0, "report_day": 4, "traced": False, "window_back": 3}],
}


def test_consolidation_opens_what_a_day_key_sealed_at_the_first_attempt(monkeypatch):
    """Consolidation tries the key of a record's check-in day, and of an
    upload's day, before the other held keys."""
    tried = Counter()  # ciphertext -> keys tried on it, references and uploads apart
    open_reference, decrypt = crypto.open_user_reference, crypto.decrypt

    def counted_open(inner, sk):
        tried["reference", inner] += 1
        return open_reference(inner, sk)

    def counted_decrypt(sk, ciphertext):
        tried["upload", ciphertext] += 1
        return decrypt(sk, ciphertext)

    def step(world, adversary, knowledge):
        with monkeypatch.context() as patched:
            patched.setattr(crypto, "open_user_reference", counted_open)
            patched.setattr(crypto, "decrypt", counted_decrypt)
            consolidate(world, adversary, knowledge)

    result, _ = _run_with_consolidation(monkeypatch, parse_config(_MULTI_DAY_ACTIVE), step)
    knowledge = result.knowledge
    days = set()
    for rid, claim in knowledge.decrypted_refs.items():
        assert claim.via.startswith("decryption_oracle+master_key:day"), rid
        days.add(claim.via.rpartition("day")[2])
        assert tried["reference", knowledge.stripped_records[rid].inner_ciphertext] == 1, rid
    assert len(days) == 6
    (upload,) = result.world.server.uploads.values()
    assert tried["upload", upload.ciphertext] == 1


@pytest.mark.parametrize("name", ["full_attack_matrix", "pki_hardened", "qr_hardened"])
def test_sealed_record_changes_only_the_cost_of_consolidation(monkeypatch, name):
    # Consolidating again after the run, outside its sealed record, makes
    # every wrong-key trial compute and fail; the attributions must not move.
    def keep_inputs(world, adversary, knowledge):
        unconsolidated = copy.deepcopy(knowledge)
        consolidate(world, adversary, knowledge)
        return adversary, unconsolidated

    config = load_bundled_config(name)
    result, (adversary, outside) = _run_with_consolidation(monkeypatch, config, keep_inputs)
    computed = []
    body = crypto._decrypt

    def counted(sk_data, ciphertext):
        computed.append(ciphertext)
        return body(sk_data, ciphertext)

    monkeypatch.setattr(crypto, "_decrypt", counted)
    consolidate(result.world, adversary, outside)
    assert computed
    in_run = result.knowledge
    assert outside.stripped_records == in_run.stripped_records
    assert outside.decrypted_refs == in_run.decrypted_refs
    assert outside.contact_data == in_run.contact_data
    assert outside.traced_records == in_run.traced_records
    assert outside.code_to_user_id == in_run.code_to_user_id
    assert outside.cluster_to_user_id == in_run.cluster_to_user_id


@pytest.mark.parametrize("name", bundled_scenario_names())
def test_no_decrypt_computes_inside_a_bundled_run(monkeypatch, name):
    # Every ciphertext a run opens, or tries to open with a wrong key, was
    # sealed in that run, so the sealed record decides each outcome.
    computed = []
    body = crypto._decrypt

    def counted(sk_data, ciphertext):
        computed.append(ciphertext)
        return body(sk_data, ciphertext)

    monkeypatch.setattr(crypto, "_decrypt", counted)
    run_scenario(load_bundled_config(name))
    assert computed == []


def test_a_poll_from_a_device_outside_device_types_is_no_linkage_anchor(world):
    guest = world.guests[0]
    rec = flow_checkin_scanner(world, guest, "v000:s0", 30000)
    trace_hex = crypto.derive_trace_id(guest.seeds[0], 0).hex()
    [poll] = [
        o
        for o in world.transport.observations
        if o.message_kind == "checkin_poll" and o.trace_id == trace_hex
    ]
    foreign = copy.copy(poll)
    foreign.device_type = "desktop"
    anchors = adversary_module._poll_anchor_per_record
    assert anchors(world.server, [poll]) == {rec.record_id: poll}
    assert anchors(world.server, [foreign]) == {}
