"""Acceptance suite: one test per release criterion, tolerances pinned here.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion.
"""

import json
import time
from random import Random

import pytest

from conftest import state_text
from oracle import true_cotenants
from lucasim import crypto
from lucasim.report import compare_reports
from lucasim.scenario import (
    bundled_scenario_names,
    load_bundled_config,
    parse_config,
    run_scenario,
)

ALL_ATTACKS = {
    "venue_decryption_oracle",
    "expand_window",
    "substitute_venue_key",
    "exfiltrate_venue_key",
    "substitute_master_key",
    "impersonate_hd",
    "hd_decryption_oracle",
    "modify_scanner",
    "exfiltrate_hd_key",
}
PKI_MITIGATED = {"substitute_master_key", "impersonate_hd"}
QR_MITIGATED = {"substitute_venue_key"}


def _pass(criterion: int, message: str) -> None:
    print(f"[ACCEPTANCE] criterion {criterion}: PASS - {message}")


@pytest.fixture(scope="module")
def bundled_runs():
    return {name: run_scenario(load_bundled_config(name)) for name in bundled_scenario_names()}


def test_criterion_1_honest_tracing_matches_oracle():
    worst = 0.0
    traces_checked = 0
    for seed in range(100):
        rng = Random(f"accept1:{seed}")
        days = rng.randint(2, 3)
        config = parse_config(
            {
                "name": f"random-{seed:03d}",
                "seed": seed,
                "duration_days": days,
                "population": {
                    "guests": rng.randint(20, 45),
                    "group_size_weights": {"1": 0.6, "2": 0.3, "3": 0.1},
                    "visits_per_day": round(rng.uniform(0.8, 1.6), 2),
                    "p_checkout": round(rng.uniform(0.7, 1.0), 2),
                    "self_checkin_fraction": round(rng.uniform(0.0, 0.4), 2),
                },
                "venues": {"count": rng.randint(4, 8)},
                "health_depts": 3,
                "positives": [
                    {"report_day": rng.randint(0, days - 1)} for _ in range(rng.randint(1, 2))
                ],
                "adversary": {"posture": "passive"},
            }
        )
        started = time.monotonic()
        result = run_scenario(config)
        elapsed = time.monotonic() - started
        worst = max(worst, elapsed)
        assert elapsed < 60.0, f"seed {seed} took {elapsed:.1f}s"
        report_days = {
            e.data["code"]: e.data["days"]
            for e in result.world.truth.events
            if e.kind == "report_positive"
        }
        for trace in result.traces:
            assert trace.status == "ok", (seed, trace.status)
            expected = true_cotenants(
                result.world.truth, trace.index_user_id, report_days[trace.code]
            )
            assert trace.contact_user_ids == expected, (seed, trace.code)
            traces_checked += 1
    assert traces_checked >= 100
    _pass(1, f"{traces_checked} traces across 100 scenarios match the oracle; "
             f"slowest scenario {worst:.2f}s")


def _secret_material(world):
    secrets = []
    for venue in world.venues:
        secrets.append((f"venue sk {venue.venue_id}", venue.keypair.private.data.hex()))
    for hd in world.hds:
        secrets.append((f"hd enc sk {hd.hd_id}", hd.enc_pair.private.data.hex()))
        secrets.append((f"hd sign sk {hd.hd_id}", hd.sign_pair.private.data.hex()))
        for day, sk in hd.master_sks.items():
            secrets.append((f"master sk day {day}", sk.data.hex()))
    for guest in world.guests:
        for field in ("name", "address", "phone"):
            secrets.append((f"contact {field} {guest.label}", guest.contact[field]))
    return secrets


def test_criterion_2_honest_mode_secrecy_byte_scan(bundled_runs):
    scanned = 0
    for name, result in bundled_runs.items():
        world = result.world
        blob = (
            world.transport.export_transcript_ndjson()
            + state_text(world.server)
            + world.transport.export_observations_ndjson()
        )
        for what, needle in _secret_material(world):
            assert needle not in blob, f"{name}: {what} leaked into transcript/server state"
            scanned += 1
    _pass(2, f"{scanned} secret values absent from transcripts and server state "
             f"across {len(bundled_runs)} bundled scenarios")


def test_criterion_3_attack_matrix_exact(bundled_runs):
    both_raw = json.loads(json.dumps(load_bundled_config("full_attack_matrix").raw))
    both_raw["name"] = "both_hardened"
    both_raw["mitigations"] = {"pki_enabled": True, "qr_embeds_venue_key": True}
    runs = {
        "off/off": bundled_runs["full_attack_matrix"],
        "pki": bundled_runs["pki_hardened"],
        "qr": bundled_runs["qr_hardened"],
        "both": run_scenario(parse_config(both_raw)),
    }
    expected_failures = {
        "off/off": set(),
        "pki": PKI_MITIGATED,
        "qr": QR_MITIGATED,
        "both": PKI_MITIGATED | QR_MITIGATED,
    }
    for label, result in runs.items():
        outcomes = {a["attack_id"]: a["succeeded"] for a in result.report["attacks"]}
        assert set(outcomes) == ALL_ATTACKS, label
        failures = {aid for aid, ok in outcomes.items() if not ok}
        assert failures == expected_failures[label], (label, failures)
    # The same fact as a report diff: PKI flips exactly its two attacks.
    diff = compare_reports(
        runs["off/off"].report, runs["pki"].report
    )
    assert set(diff["attacks"]) == PKI_MITIGATED
    diff_qr = compare_reports(runs["off/off"].report, runs["qr"].report)
    assert set(diff_qr["attacks"]) == QR_MITIGATED
    _pass(3, "9x4 attack/mitigation table matches exactly")


def test_criterion_4_ipv6_linkage_exact(bundled_runs):
    scores = bundled_runs["ipv6_linkage"].report["linkage"]["checkins"]
    assert scores["precision"] == 1.0
    assert scores["recall"] == 1.0
    assert scores["pairs_true"] > 0
    _pass(4, f"precision=recall=1.0 over {scores['pairs_true']} true pairs")


def test_criterion_5_nat_linkage_thresholds(bundled_runs):
    scores = bundled_runs["nat_linkage"].report["linkage"]["checkins"]
    assert scores["precision"] >= 0.9, scores
    assert scores["recall"] >= 0.6, scores
    _pass(5, f"precision={scores['precision']:.3f} recall={scores['recall']:.3f} "
             f"(thresholds 0.9 / 0.6)")


def test_criterion_6_group_linkage(bundled_runs):
    result = bundled_runs["group_linkage"]
    config = result.config
    truth = result.world.truth
    hypotheses = {tuple(h) for h in result.knowledge.group_hypotheses}
    scripted_checked = 0
    for sv in config.script:
        if len(sv.guests) < 2:
            continue
        member_ids = sorted(result.world.guests[i].user_id for i in sv.guests)
        events = [
            e
            for e in truth.events
            if e.kind == "group_arrival"
            and e.data["user_ids"] == member_ids
            and e.data["venue_id"] == f"v{sv.venue:03d}"
        ]
        assert events, f"scripted group {sv.guests} missing from ground truth"
        for event in events:
            assert tuple(sorted(event.data["record_ids"])) in hypotheses, (
                f"scripted group {sv.guests} not recovered exactly"
            )
            scripted_checked += 1
    # Randomized variant: same scenario under a different seed.
    raw = json.loads(json.dumps(config.raw))
    raw["seed"] = config.seed + 1
    randomized = run_scenario(parse_config(raw))
    scores = randomized.report["linkage"]["groups"]
    assert scores["precision"] >= 0.95, scores
    _pass(6, f"{scripted_checked} scripted groups recovered exactly; randomized "
             f"variant precision={scores['precision']:.3f} (threshold 0.95)")


def test_criterion_7_objective_violations_reproduced(bundled_runs):
    baseline = {
        v["objective"]: v["holds"] for v in bundled_runs["honest_baseline"].report["objectives"]
    }
    assert all(baseline.values()), baseline
    violated_somewhere = {f"O{i}": [] for i in range(1, 7)}
    for name, result in bundled_runs.items():
        for verdict in result.report["objectives"]:
            if not verdict["holds"]:
                assert verdict["witness"], (name, verdict["objective"])
                violated_somewhere[verdict["objective"]].append(name)
    missing = [o for o, names in violated_somewhere.items() if not names]
    assert not missing, f"objectives never violated: {missing}"
    # Violations persist under each single mitigation (the unmitigated attack
    # surface suffices for every objective).
    for hardened in ("pki_hardened", "qr_hardened"):
        verdicts = {v["objective"]: v["holds"] for v in bundled_runs[hardened].report["objectives"]}
        assert not any(verdicts.values()), (hardened, verdicts)
    _pass(7, "every objective violated in some bundled scenario with a verified "
             "witness; honest baseline fully clean")


def test_criterion_8_trace_leakage_chain(bundled_runs):
    result = bundled_runs["trace_leakage"]
    world = result.world
    knowledge = result.knowledge
    report_events = [e for e in world.truth.events if e.kind == "report_positive"]
    assert len(report_events) == 1
    code = report_events[0].data["code"]
    index_uid = report_events[0].data["user_id"]
    window_days = set(report_events[0].data["days"])
    assert knowledge.code_to_user_id[code] == index_uid
    index_guest = next(g for g in world.guests if g.user_id == index_uid)
    assert knowledge.code_to_address[code] == index_guest.identity.address
    leak = next(v for v in world.server.trace_views if v.code == code)
    assert leak.index_user_id == index_uid
    expected_records = {
        v.record_id for v in world.truth.true_visits(index_uid) if v.day in window_days
    }
    assert set(leak.matched_record_ids) == expected_records
    expected_venues = sorted(
        {v.venue_id for v in world.truth.true_visits(index_uid) if v.day in window_days}
    )
    assert sorted(leak.venue_windows) == expected_venues
    # The adversary folded every matched record into its claims.
    assert {
        rid for rid, c in knowledge.traced_records.items() if c.user_id == index_uid
    } >= expected_records
    _pass(8, f"code/address/user_id and all {len(expected_records)} in-window "
             "visits recovered exactly")


def test_criterion_9_determinism(bundled_runs):
    for name, first in bundled_runs.items():
        second = run_scenario(load_bundled_config(name))
        a, b = first.artifacts(), second.artifacts()
        assert sorted(a) == sorted(b) == sorted(
            ["report.json", "events.ndjson", "transcript.ndjson", "observations.ndjson"]
        )
        for filename in a:
            assert a[filename] == b[filename], f"{name}/{filename} differs between runs"
    _pass(9, f"{len(bundled_runs)} scenarios x 2 runs produce byte-identical artifacts")


def test_criterion_10_crypto_property_suites():
    rng = Random("accept10")
    roles = sorted(crypto.ENCRYPTION_ROLES)
    # Round-trip, wrong-key rejection, tamper rejection: 1000 cases each.
    for i in range(1000):
        role = roles[i % len(roles)]
        pair = crypto.gen_keypair(role, rng)
        other = crypto.gen_keypair(role, rng)
        message = rng.randbytes(rng.randint(1, 4096))
        ct = crypto.encrypt(pair.public, message, rng)
        assert crypto.decrypt(pair.private, ct) == message
        with pytest.raises(crypto.DecryptionFailure):
            crypto.decrypt(other.private, ct)
        corrupted = bytearray(ct)
        corrupted[rng.randrange(len(corrupted))] ^= 1 + rng.randrange(255)
        with pytest.raises(crypto.DecryptionFailure):
            crypto.decrypt(pair.private, bytes(corrupted))
    # Signature correctness: valid accepted, wrong key and tamper rejected.
    for _ in range(1000):
        pair = crypto.gen_keypair("health-dept-sign", rng)
        other = crypto.gen_keypair("health-dept-sign", rng)
        message = rng.randbytes(rng.randint(1, 256))
        sig = crypto.sign(pair.private, message)
        assert crypto.verify(pair.public, message, sig)
        assert not crypto.verify(other.public, message, sig)
        assert not crypto.verify(pair.public, message + b"x", sig)
    # Trace id determinism.
    for _ in range(1000):
        seed = rng.randbytes(32)
        counter = rng.randrange(64)
        assert crypto.derive_trace_id(seed, counter) == crypto.derive_trace_id(seed, counter)
    # Collision scan over 10^4 random (seed, counter) pairs.
    seen = set()
    for _ in range(10_000):
        seed = rng.randbytes(32)
        seen.add(crypto.derive_trace_id(seed, rng.randrange(64)))
    assert len(seen) == 10_000
    _pass(10, "1000-case suites for roundtrip/wrong-key/tamper/signatures/"
              "trace-id determinism; 10^4 trace-id samples collision-free")
