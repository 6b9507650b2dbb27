"""Ground-truth log ordering, visit oracles, and certificate checks."""

import json
from random import Random

import pytest

from lucasim import crypto
from lucasim.model import (
    CHECKIN,
    CHECKOUT,
    DAY_SECONDS,
    REGISTER_USER,
    REPORT_POSITIVE,
    SUBKIND_VENUE_CONSENT,
    TRACE_REQUEST,
    CertificateAuthority,
    MAX_STAY_S,
    GroundTruthLog,
    SimulationError,
    verify_certificate,
    visit_interval,
)
from lucasim.scenario import load_bundled_config, run_scenario
from oracle import checkout_times, intervals_overlap, true_cotenants


def _register(log, uid):
    log.record_event(
        REGISTER_USER,
        0,
        {"user_id": uid, "guest_index": 0, "contact": {"name": uid}, "contact_key": "00"},
    )


def _checkin(log, t, uid, venue, rid):
    log.record_event(
        CHECKIN,
        t,
        {
            "user_id": uid,
            "venue_id": venue,
            "scanner_id": f"{venue}:s0",
            "record_id": rid,
            "trace_id": rid * 2,
            "day": t // 86400,
            "counter": 0,
            "mode": "scanner",
            "inner_ref": "aa",
            "master_source": "honest",
            "outer_key": "venue",
        },
    )


def _checkout(log, t, uid, venue, rid):
    log.record_event(CHECKOUT, t, {"user_id": uid, "record_id": rid, "venue_id": venue})


def test_record_event_order_preserved():
    log = GroundTruthLog()
    _register(log, "u1")
    _checkin(log, 1, "u1", "v000", "r1")
    _checkout(log, 2, "u1", "v000", "r1")
    rows = [json.loads(line) for line in log.export_ndjson().splitlines()]
    assert [(row["seq"], row["kind"]) for row in rows] == [
        (0, REGISTER_USER),
        (1, CHECKIN),
        (2, CHECKOUT),
    ]


def test_out_of_order_rejected():
    log = GroundTruthLog()
    _register(log, "u1")
    _checkin(log, 2, "u1", "v000", "r1")
    with pytest.raises(SimulationError, match="t=1 before t=2"):
        _checkout(log, 1, "u1", "v000", "r1")


def test_unknown_event_kind_rejected():
    log = GroundTruthLog()
    with pytest.raises(SimulationError, match="unknown event kind"):
        log.record_event("mystery", 0, {})


def test_true_visits_empty_and_unknown():
    log = GroundTruthLog()
    _register(log, "u1")
    assert log.true_visits("u1") == []
    with pytest.raises(SimulationError, match="unknown user nobody"):
        log.true_visits("nobody")


def test_true_visits_open_interval():
    log = GroundTruthLog()
    _register(log, "u1")
    _checkin(log, 100, "u1", "v000", "r1")
    visits = log.true_visits("u1")
    assert len(visits) == 1
    checkout_t = checkout_times(log).get(visits[0].record_id)
    assert checkout_t is None
    assert visit_interval(visits[0].checkin_t, checkout_t) == (100, 100 + MAX_STAY_S)


def test_true_visits_ordered():
    log = GroundTruthLog()
    _register(log, "u1")
    _checkin(log, 100, "u1", "v000", "r1")
    _checkout(log, 200, "u1", "v000", "r1")
    _checkin(log, 300, "u1", "v001", "r2")
    _checkout(log, 400, "u1", "v001", "r2")
    _checkin(log, 500, "u1", "v000", "r3")
    assert [v.record_id for v in log.true_visits("u1")] == ["r1", "r2", "r3"]


def test_view_rebuilt_only_after_an_append():
    log = GroundTruthLog()
    _register(log, "u1")
    first = log.view()
    assert log.view() is first
    _checkin(log, 100, "u1", "v000", "r1")
    second = log.view()
    assert second is not first
    assert log.view() is second
    assert list(second.checkins) == ["r1"] and list(first.checkins) == []


def _reference_view(events):
    """Every view map recomputed by its own scan of the events."""
    checkins = [e for e in events if e.kind == CHECKIN]
    reports = [e for e in events if e.kind == REPORT_POSITIVE]
    windows = {}
    for e in reports:
        windows.setdefault(e.data["user_id"], set()).update(e.data["days"])
    return {
        "checkins": {e.data["record_id"]: e.data for e in checkins},
        "contact_keys": {
            e.data["user_id"]: e.data["contact_key"] for e in events if e.kind == REGISTER_USER
        },
        "windows": windows,
        "consented": {
            rid
            for e in events
            if e.kind == TRACE_REQUEST and e.data.get("subkind") == SUBKIND_VENUE_CONSENT
            for rid in e.data["record_ids"]
        },
        "infected": {e.data["user_id"] for e in reports},
        "record_user": {e.data["record_id"]: e.data["user_id"] for e in checkins},
        "record_day": {e.data["record_id"]: e.t // DAY_SECONDS for e in checkins},
        "inner_refs": {e.data["record_id"]: e.data["inner_ref"] for e in checkins},
    }


@pytest.mark.parametrize("name", ["full_attack_matrix", "trace_leakage"])
def test_view_matches_brute_force_on_bundled(name):
    log = run_scenario(load_bundled_config(name)).world.truth
    view = log.view()
    reference = _reference_view(log.events)
    for field, expected in reference.items():
        assert getattr(view, field) == expected, field
    assert all(view.checkins[rid] is data for rid, data in reference["checkins"].items())
    assert view.consented and view.infected


def test_cotenants_sole_visitor_empty():
    log = GroundTruthLog()
    _register(log, "u1")
    _checkin(log, 100, "u1", "v000", "r1")
    _checkout(log, 200, "u1", "v000", "r1")
    assert true_cotenants(log, "u1", [0]) == set()


def test_cotenants_symmetric():
    log = GroundTruthLog()
    _register(log, "u1")
    _register(log, "u2")
    _checkin(log, 100, "u1", "v000", "r1")
    _checkin(log, 400, "u2", "v000", "r2")
    _checkout(log, 700, "u1", "v000", "r1")
    _checkout(log, 1000, "u2", "v000", "r2")
    assert true_cotenants(log, "u1", [0]) == {"u2"}
    assert true_cotenants(log, "u2", [0]) == {"u1"}


def test_cotenants_no_overlap_different_venue():
    log = GroundTruthLog()
    _register(log, "u1")
    _register(log, "u2")
    _checkin(log, 100, "u1", "v000", "r1")
    _checkin(log, 150, "u2", "v001", "r2")
    _checkout(log, 200, "u1", "v000", "r1")
    _checkout(log, 250, "u2", "v001", "r2")
    assert true_cotenants(log, "u1", [0]) == set()


def test_interval_overlap_half_open():
    assert not intervals_overlap((0, 100), (100, 200))
    assert intervals_overlap((0, 101), (100, 200))


def test_export_ndjson_shape():
    log = GroundTruthLog()
    _register(log, "u1")
    _checkin(log, 5, "u1", "v000", "r1")
    lines = log.export_ndjson().strip().split("\n")
    assert len(lines) == 2
    import json

    parsed = [json.loads(line) for line in lines]
    assert parsed[0]["kind"] == "register_user"
    assert parsed[1]["t"] == 5


def test_certificates_verify_and_reject_forgery():
    ca = CertificateAuthority(crypto.gen_keypair("ca", Random(1)))
    subject = crypto.gen_keypair("health-dept-enc", Random(2))
    cert = ca.issue(subject.public, "health-dept-enc")
    assert verify_certificate(ca.root_public, cert)
    # A certificate forged under a non-CA key must not verify under the root.
    impostor = CertificateAuthority(crypto.gen_keypair("ca", Random(3)))
    forged = impostor.issue(subject.public, "health-dept-enc")
    assert not verify_certificate(ca.root_public, forged)
