"""Scenario config validation, bundled runs, report comparison, CLI surface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import lucasim
from lucasim.actors import SimulationError
from lucasim.cli import main as cli_main
from lucasim.report import SCHEMA_VERSION, CompareError, compare_reports, report_digest
from lucasim.model import MAX_WINDOW_DAYS
from lucasim.scenario import (
    MAX_DURATION_DAYS,
    MAX_EXACT_VISITS,
    MAX_GUESTS,
    MAX_HEALTH_DEPTS,
    MAX_PLANNED_VISITS,
    MAX_SCANNERS_PER_VENUE,
    MAX_VENUES,
    ConfigError,
    bundled_scenario_names,
    load_bundled_config,
    parse_config,
    run_scenario,
)

MINIMAL = {
    "name": "mini",
    "seed": 7,
    "duration_days": 1,
    "population": {"guests": 3, "p_checkout": 1.0},
    "venues": {"count": 2},
    "health_depts": 2,
}


def test_minimal_config_valid():
    cfg = parse_config(MINIMAL)
    assert cfg.name == "mini"
    assert cfg.speed_kmh == 5.0


def test_missing_seed_names_field():
    bad = {k: v for k, v in MINIMAL.items() if k != "seed"}
    with pytest.raises(ConfigError) as err:
        parse_config(bad)
    assert err.value.path == "seed"


def test_negative_duration_rejected():
    bad = dict(MINIMAL, duration_days=-1)
    with pytest.raises(ConfigError) as err:
        parse_config(bad)
    assert "duration_days" in err.value.path


def test_unknown_top_level_field_rejected():
    with pytest.raises(ConfigError) as err:
        parse_config(dict(MINIMAL, misspelled=True))
    assert err.value.path == "misspelled"


def test_report_day_beyond_duration_rejected():
    bad = dict(MINIMAL, positives=[{"report_day": 5}])
    with pytest.raises(ConfigError) as err:
        parse_config(bad)
    assert "report_day" in err.value.path


def test_attacks_require_active_posture():
    bad = dict(
        MINIMAL,
        adversary={"posture": "passive", "attacks": [{"attack": "impersonate_hd"}]},
    )
    with pytest.raises(ConfigError):
        parse_config(bad)


def test_unknown_attack_rejected():
    bad = dict(
        MINIMAL,
        adversary={"posture": "active", "attacks": [{"attack": "warp_drive"}]},
    )
    with pytest.raises(ConfigError) as err:
        parse_config(bad)
    assert "attacks[0]" in err.value.path


def test_script_guest_index_validated():
    bad = dict(MINIMAL, script=[{"day": 0, "venue": 0, "guests": [99]}])
    with pytest.raises(ConfigError):
        parse_config(bad)


def _cli(*args, timeout=60):
    """Run the CLI in a fresh interpreter; a hang fails the test instead of stalling it."""
    src = str(Path(lucasim.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-m", "lucasim.cli", *args],
        env={**os.environ, "PYTHONPATH": pythonpath},
        capture_output=True,
        text=True,
        timeout=timeout,
    )


@pytest.mark.parametrize("guest", [-1, 3, 99])
def test_positive_guest_out_of_range_rejected(tmp_path, guest):
    bad = dict(MINIMAL, positives=[{"guest": guest, "report_day": 0}])
    with pytest.raises(ConfigError) as err:
        parse_config(bad)
    assert err.value.path == "positives[0].guest"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    proc = _cli("validate", "--config", str(path))
    assert proc.returncode == 2
    assert "positives[0].guest" in proc.stderr


@pytest.mark.parametrize(
    "positives",
    [
        # More cases without a guest than there are guests.
        [{"report_day": 0}] * 4,
        # Two named guests leave one guest for two random draws.
        [{"guest": 0, "report_day": 0}, {"guest": 1, "report_day": 0}]
        + [{"report_day": 0}] * 2,
    ],
)
def test_positives_beyond_population_rejected(tmp_path, positives):
    bad = dict(MINIMAL, positives=positives)
    with pytest.raises(ConfigError) as err:
        parse_config(bad)
    assert err.value.path == "positives"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    proc = _cli("validate", "--config", str(path))
    assert proc.returncode == 2
    assert "error: positives:" in proc.stderr


def _attack(attack, params):
    return {"adversary": {"posture": "active", "attacks": [{"attack": attack, "params": params}]}}


_PARAMS = "adversary.attacks[0].params"
_NAN, _INF = float("nan"), float("inf")
# A 401-digit JSON integer: a valid int that no float can hold.
_HUGE = 10**400


def _pop(**fields):
    return {"population": {"guests": 3, **fields}}


def _venues(**fields):
    return {"venues": {"count": 2, **fields}}


# Cases that set a removed field to a mistyped value.  Any value of a removed
# field is an unknown key, so these check the path in-process only; the
# CLI's exit 2 on that path is run once, by the field's ``removed_*`` case.
_REMOVED_FIELD_VALUES = frozenset(
    {
        "stay_minutes_str",
        "stay_minutes_float",
        "bbox_str",
        "bbox_nan",
        "bbox_huge_int",
        "type_mix_empty",
        "type_mix_str",
        "type_mix_zero_total",
        "type_mix_nan",
        "type_mix_negative",
        "type_mix_huge_int",
        "max_stay_hours_nan",
        "max_stay_hours_inf",
        "max_stay_hours_overflow",
        "speed_kmh_inf",
        "speed_kmh_huge_int",
        "attack_max_records_str",
        "tracing_key_misspelled",
        "correlation_window_under_tracing",
    }
)


@pytest.mark.parametrize(
    "change, field",
    [
        ({"seed": True}, "seed"),
        ({"network": {"nat_pool": ["16", 64]}}, "network.nat_pool"),
        ({"population": {"guests": 3, "stay_minutes": [30, "120"]}}, "population.stay_minutes"),
        # Fractional pair entries, which int() would truncate.
        (_pop(stay_minutes=[1.5, 1.7]), "population.stay_minutes"),
        ({"network": {"nat_pool": [1.5, 1.7]}}, "network.nat_pool"),
        ({"venues": {"count": 2, "bbox": [52.45, "x", 52.55, 13.45]}}, "venues.bbox"),
        ({"venues": {"count": 2, "bbox": [52.45, float("nan"), 52.55, 13.45]}}, "venues.bbox"),
        ({"venues": {"count": 2, "unavailable": ["x"]}}, "venues.unavailable"),
        ({"venues": {"count": 2, "unavailable": [50]}}, "venues.unavailable"),
        ({"population": {"guests": 3, "exact_visits_total": True}}, "population.exact_visits_total"),
        ({"population": {"guests": 3, "exact_visits_total": -3}}, "population.exact_visits_total"),
        ({"positives": [{"report_day": 0, "window_back": -2}]}, "positives[0].window_back"),
        ({"script": [{"day": 0, "venue": 0, "guests": [0], "scanner": 1}]}, "script[0].scanner"),
        (_attack("exfiltrate_venue_key", {"mode": "bogus"}), f"{_PARAMS}.mode"),
        (_attack("exfiltrate_hd_key", {"mode": 3}), f"{_PARAMS}.mode"),
        (_attack("substitute_master_key", {}), f"{_PARAMS}.day"),
        (_attack("substitute_master_key", {"day": 1}), f"{_PARAMS}.day"),
        (_attack("venue_decryption_oracle", {"venue": 99}), f"{_PARAMS}.venue"),
        (_attack("exfiltrate_hd_key", {"hd": 9}), f"{_PARAMS}.hd"),
        (_attack("modify_scanner", {"scanner": 99}), f"{_PARAMS}.scanner"),
        # The HD exfiltration targets hd 1 by default, which one HD lacks.
        (dict(_attack("exfiltrate_hd_key", {}), health_depts=1), f"{_PARAMS}.hd"),
        (_attack("venue_decryption_oracle", {"max_records": "x"}), f"{_PARAMS}.max_records"),
        (_attack("expand_window", {"pad_per_venue": -1}), f"{_PARAMS}.pad_per_venue"),
        (
            {"adversary": {"posture": "active", "attacks": [{"attack": "impersonate_hd", "day": 1}]}},
            "adversary.attacks[0].day",
        ),
        # JSON NaN / Infinity literals load through json.load.
        (_pop(visits_per_day=_NAN), "population.visits_per_day"),
        (_pop(p_checkout=_NAN), "population.p_checkout"),
        ({"tracing": {"max_stay_hours": _NAN}}, "tracing"),
        ({"tracing": {"max_stay_hours": _INF}}, "tracing"),
        ({"network": {"adoption": _NAN}}, "network.adoption"),
        ({"linkage": {"speed_kmh": _INF}}, "linkage.speed_kmh"),
        (_venues(type_mix={}), "venues.type_mix"),
        (_venues(type_mix={"bar": "x"}), "venues.type_mix"),
        (_venues(type_mix={"bar": 0}), "venues.type_mix"),
        (_venues(type_mix={"bar": _NAN}), "venues.type_mix"),
        (_venues(type_mix={"bar": -1, "restaurant": 2}), "venues.type_mix"),
        ({"network": {"ipv6_probability": [True, 1.0, 0.0]}}, "network.ipv6_probability"),
        (_pop(group_size_weights={"2": True}), "population.group_size_weights"),
        (_pop(group_size_weights={"1": _NAN}), "population.group_size_weights"),
        (_pop(group_size_weights={"1": _INF}), "population.group_size_weights"),
        # "01" names group size 1 again; one weight would be dropped.
        (_pop(group_size_weights={"1": 1, "01": 0}), "population.group_size_weights"),
        ({"script": [{"day": 0, "venue": 0, "guests": [True]}]}, "script[0].guests"),
        (_pop(visits_per_day=_HUGE), "population.visits_per_day"),
        (_venues(bbox=[52.45, _HUGE, 52.55, 13.45]), "venues.bbox"),
        (_venues(type_mix={"bar": _HUGE}), "venues.type_mix"),
        (_pop(group_size_weights={"1": _HUGE}), "population.group_size_weights"),
        ({"linkage": {"speed_kmh": _HUGE}}, "linkage.speed_kmh"),
        ({"tracing": {"max_stay_hours": 1e308}}, "tracing"),
        # Check-ins and reports after the last day find no master key.
        (_pop(arrival_spread_s=7201), "population.arrival_spread_s"),
        (
            {"script": [{"day": 0, "venue": 0, "guests": [0, 1], "at": 86000, "spread_s": 400}]},
            "script[0].spread_s",
        ),
        (
            {"population": {"guests": 40}, "positives": [{"report_day": 0}] * 37},
            "positives[36].report_day",
        ),
        # Gateway addresses have one first octet per carrier, 100 to 255.
        ({"network": {"carriers": _HUGE}}, "network.carriers"),
        ({"network": {"carriers": 200}}, "network.carriers"),
        # A gateway has 64,512 source ports, and each slot of its pool costs a draw.
        ({"network": {"nat_pool": [_HUGE, _HUGE]}}, "network.nat_pool"),
        ({"network": {"nat_pool": [64513, 64513]}}, "network.nat_pool"),
        # A misspelled key in any section would leave its default in force.
        (_pop(visits_per_dya=2), "population.visits_per_dya"),
        ({"tracing": {"max_stay_hour": 2}}, "tracing"),
        ({"linkage": {"speed_kph": 50}}, "linkage.speed_kph"),
        # The adversary's correlation window is fixed, not a setting.
        ({"tracing": {"correlation_window_s": 30}}, "tracing"),
        ({"linkage": {"correlation_window_s": 30}}, "linkage.correlation_window_s"),
        # A param the attack does not read is rejected, not ignored.
        (
            _attack("impersonate_hd", {"venue": 0, "scanner": 0, "max_records": 3}),
            f"{_PARAMS}.max_records",
        ),
        (_attack("expand_window", {"venue": 0}), f"{_PARAMS}.venue"),
        (_attack("exfiltrate_venue_key", {"hd": 0}), f"{_PARAMS}.hd"),
        (_attack("modify_scanner", {"pad_per_venue": 2}), f"{_PARAMS}.pad_per_venue"),
        (_attack("venue_decryption_oracle", {"venu": 1}), f"{_PARAMS}.venu"),
        ({"script": [{"day": 0, "venue": 0, "guests": [0], "stay": 600}]}, "script[0].stay"),
        # One guest cannot arrive with itself as a group.
        ({"script": [{"day": 0, "venue": 0, "guests": [0, 0]}]}, "script[0].guests"),
        # Passive analyses always run; the old switches are an unknown section.
        ({"analysis": {"link_groups": False}}, "analysis"),
        # A member arriving after its own checkout would keep an open visit.
        (
            {"script": [{"day": 0, "venue": 0, "guests": [0, 1], "stay_s": 60, "spread_s": 600}]},
            "script[0].spread_s",
        ),
        (
            {"script": [{"day": 0, "venue": 0, "guests": [0], "stay_s": 60, "spread_s": 60}]},
            "script[0].spread_s",
        ),
        (_pop(arrival_spread_s=1800), "population.arrival_spread_s"),
        # Removed fields are rejected even at their old defaults: the stay,
        # the venues' types and box, the tracing section, the linkage windows
        # and speed, a script visit's checkout and the oracles' record limits.
        (_pop(stay_minutes=[30, 120]), "population.stay_minutes"),
        (_venues(type_mix={"bar": 1.0}), "venues.type_mix"),
        (_venues(bbox=[52.45, 13.30, 52.55, 13.45]), "venues.bbox"),
        ({"tracing": {"max_stay_hours": 4}}, "tracing"),
        ({"tracing": {"overlap_slack_s": 0}}, "tracing"),
        ({"tracing": {"include_index_case": False}}, "tracing"),
        ({"tracing": {"max_checkins_per_day": 64}}, "tracing"),
        ({"linkage": {"arrival_window_s": 30}}, "linkage.arrival_window_s"),
        ({"linkage": {"departure_window_s": 120}}, "linkage.departure_window_s"),
        ({"linkage": {"max_port_gap": 32}}, "linkage.max_port_gap"),
        ({"linkage": {"speed_kmh": 5.0}}, "linkage.speed_kmh"),
        ({"script": [{"day": 0, "venue": 0, "guests": [0], "checkout": True}]}, "script[0].checkout"),
        (_attack("venue_decryption_oracle", {"max_records": 3}), f"{_PARAMS}.max_records"),
        (_attack("hd_decryption_oracle", {"max_records": 3}), f"{_PARAMS}.max_records"),
        # A section must be an object, and a group size a positive integer.
        ({"population": 5}, "population"),
        (_pop(group_size_weights={"x": 1.0}), "population.group_size_weights"),
        (_pop(group_size_weights={"0": 1.0}), "population.group_size_weights"),
        ({"adversary": {"posture": "both"}}, "adversary.posture"),
        ({"script": [{"day": 1, "venue": 0, "guests": [0]}]}, "script[0].day"),
        ({"script": [{"day": 0, "venue": 0, "guests": [0], "mode": "walk"}]}, "script[0].mode"),
        # An offline venue is named once, like a script visit's guest.
        ({"venues": {"count": 2, "unavailable": [1, 1]}}, "venues.unavailable"),
    ],
    ids=[
        "seed_bool",
        "nat_pool_str",
        "stay_minutes_str",
        "stay_minutes_float",
        "nat_pool_float",
        "bbox_str",
        "bbox_nan",
        "unavailable_str",
        "unavailable_out_of_range",
        "exact_visits_bool",
        "exact_visits_negative",
        "window_back_negative",
        "script_scanner_out_of_range",
        "attack_mode_unknown",
        "attack_mode_int",
        "substitute_day_missing",
        "substitute_day_beyond_duration",
        "attack_venue_out_of_range",
        "attack_hd_out_of_range",
        "attack_scanner_out_of_range",
        "attack_default_hd_out_of_range",
        "attack_max_records_str",
        "attack_pad_negative",
        "attack_day_beyond_duration",
        "visits_per_day_nan",
        "p_checkout_nan",
        "max_stay_hours_nan",
        "max_stay_hours_inf",
        "adoption_nan",
        "speed_kmh_inf",
        "type_mix_empty",
        "type_mix_str",
        "type_mix_zero_total",
        "type_mix_nan",
        "type_mix_negative",
        "ipv6_probability_bool",
        "group_size_weight_bool",
        "group_size_weight_nan",
        "group_size_weight_inf",
        "group_size_named_twice",
        "script_guest_bool",
        "visits_per_day_huge_int",
        "bbox_huge_int",
        "type_mix_huge_int",
        "group_size_weight_huge_int",
        "speed_kmh_huge_int",
        "max_stay_hours_overflow",
        "arrival_spread_past_last_day",
        "script_spread_past_last_day",
        "report_past_last_day",
        "carriers_huge_int",
        "carriers_past_address_format",
        "nat_pool_huge_int",
        "nat_pool_past_the_ports",
        "population_key_misspelled",
        "tracing_key_misspelled",
        "linkage_key_misspelled",
        "correlation_window_under_tracing",
        "correlation_window_under_linkage",
        "attack_params_not_read",
        "expand_window_venue_not_read",
        "venue_exfiltration_hd_not_read",
        "modify_scanner_pad_not_read",
        "attack_param_misspelled",
        "script_key_misspelled",
        "script_guest_named_twice",
        "analysis_section_rejected",
        "script_spread_longer_than_stay",
        "script_spread_equal_to_stay",
        "arrival_spread_equal_to_shortest_stay",
        "removed_stay_minutes",
        "removed_type_mix",
        "removed_bbox",
        "removed_max_stay_hours",
        "removed_overlap_slack_s",
        "removed_include_index_case",
        "removed_max_checkins_per_day",
        "removed_arrival_window_s",
        "removed_departure_window_s",
        "removed_max_port_gap",
        "removed_speed_kmh",
        "removed_script_checkout",
        "removed_venue_oracle_max_records",
        "removed_hd_oracle_max_records",
        "section_not_an_object",
        "group_size_not_an_integer",
        "group_size_below_one",
        "posture_unknown",
        "script_day_past_duration",
        "script_mode_unknown",
        "unavailable_named_twice",
    ],
)
def test_mistyped_fields_rejected_with_path(tmp_path, request, change, field):
    bad = dict(MINIMAL, **change)
    with pytest.raises(ConfigError) as err:
        parse_config(bad)
    assert err.value.path == field
    if request.node.callspec.id in _REMOVED_FIELD_VALUES:
        return
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    proc = _cli("validate", "--config", str(path))
    assert proc.returncode == 2
    assert f"error: {field}:" in proc.stderr


def test_attacks_default_to_their_documented_targets():
    from random import Random

    from lucasim.adversary import Adversary, make_attack

    adversary = Adversary(Random("params"))

    def build(attack_id, params=None):
        return make_attack(adversary, attack_id, params or {})

    assert build("venue_decryption_oracle").params == {"venue": 0}
    assert build("hd_decryption_oracle").params == {"hd": 0}
    assert build("expand_window").params["pad_per_venue"] == 5
    assert build("substitute_venue_key").params["venue"] == 0
    venue_key = build("exfiltrate_venue_key")
    assert (venue_key.mode, venue_key.index, venue_key.owner_id) == ("exfil_on_gen", 0, "v000")
    hd_key = build("exfiltrate_hd_key")
    assert (hd_key.mode, hd_key.index, hd_key.owner_id) == ("exfil_on_gen", 1, "hd001")
    assert build("substitute_master_key", {"day": 0}).day == 0
    assert build("modify_scanner").scanner_id == "v000:s0"
    assert build("impersonate_hd").params == {}


def test_integer_fields_accept_any_int():
    assert parse_config(dict(MINIMAL, seed=_HUGE)).seed == _HUGE


# These tests only validate: a scenario past a ceiling is never run.
_CEILINGS = {
    "duration_days": MAX_DURATION_DAYS,
    "health_depts": MAX_HEALTH_DEPTS,
    "population.exact_visits_total": MAX_EXACT_VISITS,
    "population.guests": MAX_GUESTS,
    "venues.count": MAX_VENUES,
    "venues.scanners_per_venue": MAX_SCANNERS_PER_VENUE,
}


def _assert_validate_exit_2(tmp_path, capsys, raw, field):
    with pytest.raises(ConfigError) as err:
        parse_config(raw)
    assert err.value.path == field
    path = tmp_path / "big.json"
    path.write_text(json.dumps(raw))
    assert cli_main(["validate", "--config", str(path)]) == 2
    assert f"error: {field}:" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["ceiling_plus_1", 10**12])
@pytest.mark.parametrize("field", sorted(_CEILINGS))
def test_size_past_its_ceiling_exit_2(tmp_path, capsys, field, value):
    raw = json.loads(json.dumps(MINIMAL))
    *sections, key = field.split(".")
    parent = raw
    for section in sections:
        parent = parent[section]
    parent[key] = _CEILINGS[field] + 1 if value == "ceiling_plus_1" else value
    _assert_validate_exit_2(tmp_path, capsys, raw, field)


@pytest.mark.parametrize(
    "change",
    [
        # Three visits a day per guest, or exact_visits_total each.
        {"duration_days": 2, "population": {"guests": MAX_GUESTS}},
        {"population": {"guests": MAX_GUESTS, "exact_visits_total": 6}},
    ],
    ids=["per_day", "exact_total"],
)
def test_planned_visits_past_their_ceiling_exit_2(tmp_path, capsys, change):
    _assert_validate_exit_2(tmp_path, capsys, dict(MINIMAL, **change), "population.guests")


def _scripted(exact_visits_total, *visits):
    """1,000 guests planning ``exact_visits_total`` visits each, and one
    script visit for each list of guests in ``visits``."""
    population = {"guests": 1000, "exact_visits_total": exact_visits_total}
    script = [{"day": 0, "venue": 0, "guests": list(guests)} for guests in visits]
    return dict(MINIMAL, population=population, script=script)


# Scripted check-ins count toward the ceiling on planned visits.
@pytest.mark.parametrize(
    "raw",
    [_scripted(249, range(1000), [0]), _scripted(250, [0])],
    ids=["script_past_the_plan", "plan_at_the_ceiling"],
)
def test_scripted_check_ins_past_the_ceiling_exit_2(tmp_path, capsys, raw):
    _assert_validate_exit_2(tmp_path, capsys, raw, "script")


@pytest.mark.parametrize("pad", [MAX_PLANNED_VISITS, MAX_PLANNED_VISITS + 1, 10**20])
def test_pad_per_venue_at_most_the_check_in_ceiling(tmp_path, capsys, pad):
    raw = json.loads(json.dumps(load_bundled_config("full_attack_matrix").raw))
    attacks = raw["adversary"]["attacks"]
    j = next(j for j, entry in enumerate(attacks) if entry["attack"] == "expand_window")
    attacks[j]["params"]["pad_per_venue"] = pad
    if pad > MAX_PLANNED_VISITS:
        _assert_validate_exit_2(tmp_path, capsys, raw, f"adversary.attacks[{j}].params.pad_per_venue")
    else:
        path = tmp_path / "pad.json"
        path.write_text(json.dumps(raw))
        assert cli_main(["validate", "--config", str(path)]) == 0


# A scenario reaching one of these bounds is rejected at the field's path:
# an upload's window of days (MAX_WINDOW_DAYS), a straggler's checkout delay
# (below the gap between a group's outings) and a script visit's last
# checkout (inside the last day).
_LONG_WINDOW = {
    "name": "long_window",
    "seed": 1,
    "duration_days": 60,
    "health_depts": 1,
    "population": {"guests": 4, "group_size_weights": {"1": 1.0}, "visits_per_day": 0.2},
    "venues": {"count": 2},
    "positives": [{"guest": 0, "report_day": 58}],
}
_LAST_CHECKOUT = {"day": 0, "venue": 0, "guests": [0, 1], "at": 86000, "stay_s": 399}


def test_sizes_at_their_ceilings_validate():
    at_ceiling = dict(
        MINIMAL,
        health_depts=MAX_HEALTH_DEPTS,
        population={"guests": MAX_GUESTS, "exact_visits_total": 5},
        venues={"count": MAX_VENUES, "scanners_per_venue": MAX_SCANNERS_PER_VENUE},
    )
    parse_config(at_ceiling)
    parse_config(dict(MINIMAL, duration_days=MAX_DURATION_DAYS))
    parse_config(dict(MINIMAL, population={"guests": 3, "exact_visits_total": MAX_EXACT_VISITS}))
    parse_config(_scripted(249, range(1000)))
    # The top of the nat_linkage ladder.
    ladder_top = json.loads(json.dumps(load_bundled_config("nat_linkage").raw))
    ladder_top["population"]["guests"] = 7680
    parse_config(ladder_top)
    # The window, straggler and checkout bounds at their limits.
    parse_config(dict(_LONG_WINDOW, positives=[{"report_day": 58, "window_back": MAX_WINDOW_DAYS}]))
    parse_config(dict(_LONG_WINDOW, positives=[{"report_day": MAX_WINDOW_DAYS - 1}]))
    # A window_back past the report day is cut at day 0.
    parse_config(dict(_LONG_WINDOW, positives=[{"report_day": 40, "window_back": 99}]))
    parse_config(dict(MINIMAL, population={"guests": 3, "departure_spread_s": 1799}))
    parse_config(dict(MINIMAL, script=[dict(_LAST_CHECKOUT, stay_s=398)]))


@pytest.mark.parametrize(
    "raw, field",
    [
        (_LONG_WINDOW, "positives[0].report_day"),
        (dict(_LONG_WINDOW, positives=[{"report_day": 58, "window_back": 54}]), "positives[0].window_back"),
        (dict(MINIMAL, population={"guests": 3, "departure_spread_s": 1800}), "population.departure_spread_s"),
        (dict(MINIMAL, script=[_LAST_CHECKOUT]), "script[0].stay_s"),
        (dict(MINIMAL, script=[dict(_LAST_CHECKOUT, guests=[0], stay_s=400)]), "script[0].stay_s"),
    ],
    ids=["default_window", "window_back", "departure_spread", "script_group_stay", "script_stay"],
)
def test_bound_past_its_limit_exit_2(tmp_path, capsys, raw, field):
    _assert_validate_exit_2(tmp_path, capsys, raw, field)
    path = tmp_path / "bound.json"
    path.write_text(json.dumps(raw))
    assert cli_main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert f"error: {field}:" in capsys.readouterr().err


def test_longest_window_on_the_last_day_runs():
    raw = dict(
        _LONG_WINDOW,
        duration_days=MAX_DURATION_DAYS,
        positives=[{"guest": 0, "report_day": MAX_DURATION_DAYS - 1, "window_back": MAX_WINDOW_DAYS}],
    )
    result = run_scenario(parse_config(raw))
    (report,) = [e for e in result.world.truth.events if e.kind == "report_positive"]
    assert len(report.data["seeds"]) == MAX_WINDOW_DAYS
    assert [t.status for t in result.traces] == ["ok"]


def test_valid_attack_params_run(tmp_path):
    ok = dict(
        MINIMAL,
        adversary={
            "posture": "active",
            "attacks": [
                {"attack": "exfiltrate_hd_key", "params": {"mode": "backdoor_keygen"}},
                {"attack": "substitute_master_key", "params": {"day": 0}},
                {"attack": "modify_scanner", "params": {"venue": 1, "scanner": 0}},
            ],
        },
    )
    path = tmp_path / "ok.json"
    path.write_text(json.dumps(ok))
    assert _cli("validate", "--config", str(path)).returncode == 0
    proc = _cli("run", "--config", str(path), "--out", str(tmp_path / "out"), "--json-only")
    assert proc.returncode == 0, proc.stderr
    attacks = json.loads(proc.stdout)["attacks"]
    assert [a["attack_id"] for a in attacks] == [
        "exfiltrate_hd_key",
        "substitute_master_key",
        "modify_scanner",
    ]


def _attack_matrix_plan(*attacks):
    """``full_attack_matrix`` with its attack plan replaced."""
    raw = load_bundled_config("full_attack_matrix").raw
    return dict(raw, adversary={"posture": "active", "attacks": list(attacks)})


def _entry(attack, params=None, day=0):
    return {"attack": attack, "day": day, "params": params or {}}


# Two plan entries whose installs write one hook slot: the later would replace
# the earlier's hook, and the run report the earlier as failed beside its twin.
# The second entry of a pair may leave a param at its default.
_SAME_HOOK = {
    "substitute_master_key": (
        _entry("substitute_master_key", {"day": 2}, day=2),
        _entry("substitute_master_key", {"day": 2}, day=1),
    ),
    "modify_scanner": (
        _entry("modify_scanner", {"venue": 2, "scanner": 0}),
        _entry("modify_scanner", {"venue": 2}),
    ),
    "expand_window": (
        _entry("expand_window", {"pad_per_venue": 5}, day=1),
        _entry("expand_window", {"pad_per_venue": 2}, day=1),
    ),
    "exfiltrate_venue_key": (
        _entry("exfiltrate_venue_key", {"venue": 0, "mode": "exfil_on_gen"}),
        _entry("exfiltrate_venue_key"),
    ),
    "exfiltrate_hd_key": (
        _entry("exfiltrate_hd_key", {"hd": 1, "mode": "exfil_on_use"}),
        _entry("exfiltrate_hd_key", {"mode": "exfil_on_use"}),
    ),
    "substitute_venue_key": (
        _entry("substitute_venue_key", {"venue": 1}),
        _entry("substitute_venue_key", {"venue": 1}, day=1),
    ),
}


@pytest.mark.parametrize("attack", sorted(_SAME_HOOK))
def test_two_entries_installing_one_hook_exit_2(tmp_path, capsys, attack):
    first, later = _SAME_HOOK[attack]
    raw = _attack_matrix_plan(first, _entry("impersonate_hd", day=1), later)
    _assert_validate_exit_2(tmp_path, capsys, raw, "adversary.attacks[2]")
    with pytest.raises(ConfigError, match=r"overwrites the hook of adversary\.attacks\[0\]"):
        parse_config(raw)


# Pairs that name another target, another hook-installing mode, or an attack
# whose install overwrites no hook.
_OTHER_HOOKS = {
    "venue_key_modes": ({"mode": "exfil_on_gen"}, {"mode": "exfil_on_use"}, "exfiltrate_venue_key"),
    "venue_key_venues": ({"venue": 0}, {"venue": 1}, "exfiltrate_venue_key"),
    "hd_skip_checks": ({"mode": "skip_checks"}, {"mode": "skip_checks"}, "exfiltrate_hd_key"),
    "scanner_venues": ({"venue": 2}, {"venue": 3}, "modify_scanner"),
    "master_key_days": ({"day": 1}, {"day": 2}, "substitute_master_key"),
    "impersonate_hd": ({}, {}, "impersonate_hd"),
    "no_install": ({}, {}, "venue_decryption_oracle"),
}


@pytest.mark.parametrize("case", sorted(_OTHER_HOOKS))
def test_two_entries_on_different_hooks_validate(case):
    first, second, attack = _OTHER_HOOKS[case]
    raw = _attack_matrix_plan(_entry(attack, first), _entry(attack, second, day=1))
    assert len(parse_config(raw).attacks) == 2


def test_venue_skip_checks_mode_exit_2(tmp_path, capsys):
    # The venue frontend has no checks to skip; only the HD's mode remains.
    raw = _attack_matrix_plan(
        _entry("exfiltrate_hd_key", {"mode": "skip_checks"}),
        _entry("exfiltrate_venue_key", {"mode": "skip_checks"}),
    )
    _assert_validate_exit_2(tmp_path, capsys, raw, "adversary.attacks[1].params.mode")


def test_master_key_substitutions_on_two_days_both_succeed():
    raw = _attack_matrix_plan(
        _entry("substitute_master_key", {"day": 1}, day=1),
        _entry("substitute_master_key", {"day": 2}, day=2),
    )
    outcomes = run_scenario(parse_config(raw)).knowledge.attack_outcomes
    assert [(o.details["day"], o.succeeded) for o in outcomes] == [(1, True), (2, True)]


def test_positives_filling_population_run(tmp_path):
    # One named guest, repeated, plus a random draw for each remaining guest.
    ok = dict(
        MINIMAL,
        positives=[{"guest": 1, "report_day": 0}] * 2 + [{"report_day": 0}] * 2,
    )
    path = tmp_path / "ok.json"
    path.write_text(json.dumps(ok))
    assert _cli("validate", "--config", str(path)).returncode == 0
    proc = _cli("run", "--config", str(path), "--out", str(tmp_path / "out"), "--json-only")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["counts"]["reports"] == 4


def test_bundled_scenarios_present():
    names = bundled_scenario_names()
    assert names == sorted(
        [
            "honest_baseline",
            "ipv6_linkage",
            "nat_linkage",
            "group_linkage",
            "trace_leakage",
            "full_attack_matrix",
            "pki_hardened",
            "qr_hardened",
        ]
    )


def test_bundled_configs_all_parse():
    for name in bundled_scenario_names():
        cfg = load_bundled_config(name)
        assert cfg.name == name


def test_honest_baseline_report_shape():
    result = run_scenario(load_bundled_config("honest_baseline"))
    report = result.report
    assert report["attacks"] == []
    assert [v["objective"] for v in report["objectives"]] == ["O1", "O2", "O3", "O4", "O5", "O6"]
    assert report["scenario"]["posture"] == "passive"
    assert report["counts"]["checkins"] == 40


def test_same_seed_identical_reports():
    cfg = load_bundled_config("trace_leakage")
    a = run_scenario(cfg)
    b = run_scenario(cfg)
    assert report_digest(a.report) == report_digest(b.report)
    assert a.artifacts() == b.artifacts()


def test_seed_changes_report():
    base = load_bundled_config("ipv6_linkage")
    raw = json.loads(json.dumps(base.raw))
    raw["seed"] = base.seed + 1
    other = parse_config(raw)
    a = run_scenario(base)
    b = run_scenario(other)
    assert report_digest(a.report) != report_digest(b.report)


def test_compare_report_with_itself_empty():
    result = run_scenario(load_bundled_config("honest_baseline"))
    diff = compare_reports(result.report, result.report)
    assert diff["identical"]
    assert diff["attacks"] == {}
    assert diff["objectives"] == {}
    assert diff["metrics"] == {}


def test_compare_rejects_schema_mismatch():
    result = run_scenario(load_bundled_config("honest_baseline"))
    other = dict(result.report, schema_version=99)
    with pytest.raises(CompareError):
        compare_reports(result.report, other)


def test_compare_reports_without_a_linkage_section():
    # Two reports that lack linkage scores compare as empty score sections,
    # and ``identical`` follows the digests.
    report = run_scenario(load_bundled_config("honest_baseline")).report
    a = {key: value for key, value in report.items() if key != "linkage"}
    b = dict(a, counts=dict(a["counts"], checkins=a["counts"]["checkins"] + 1))
    for other, identical in ((a, True), (b, False)):
        diff = compare_reports(a, other)
        assert diff == {"identical": identical, "attacks": {}, "objectives": {}, "metrics": {}}
        assert identical == (report_digest(a) == report_digest(other))


def test_run_writes_four_artifacts(tmp_path):
    code = cli_main(
        ["run", "--config", "honest_baseline", "--out", str(tmp_path / "out"), "--json-only"]
    )
    assert code == 0
    names = sorted(p.name for p in (tmp_path / "out").iterdir())
    assert names == ["events.ndjson", "observations.ndjson", "report.json", "transcript.ndjson"]
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["scenario"]["name"] == "honest_baseline"


def test_cli_validate_ok(capsys):
    assert cli_main(["validate", "--config", "honest_baseline"]) == 0
    assert "ok" in capsys.readouterr().out


def test_cli_validate_bad_config_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({k: v for k, v in MINIMAL.items() if k != "seed"}))
    assert cli_main(["validate", "--config", str(bad)]) == 2


def test_cli_list_names(capsys):
    assert cli_main(["list"]) == 0
    out = capsys.readouterr().out.split()
    assert "full_attack_matrix" in out


def test_cli_seed_override_changes_digest(tmp_path):
    cli_main(["run", "--config", "honest_baseline", "--out", str(tmp_path / "a"), "--json-only"])
    cli_main(
        [
            "run",
            "--config",
            "honest_baseline",
            "--out",
            str(tmp_path / "b"),
            "--seed-override",
            "999",
            "--json-only",
        ]
    )
    ra = json.loads((tmp_path / "a" / "report.json").read_text())
    rb = json.loads((tmp_path / "b" / "report.json").read_text())
    assert ra["scenario"]["seed"] == 101
    assert rb["scenario"]["seed"] == 999


def test_cli_posture_override_disables_attacks(tmp_path):
    cli_main(
        [
            "run",
            "--config",
            "full_attack_matrix",
            "--out",
            str(tmp_path / "p"),
            "--posture",
            "passive",
            "--json-only",
        ]
    )
    report = json.loads((tmp_path / "p" / "report.json").read_text())
    assert report["attacks"] == []
    assert report["scenario"]["posture"] == "passive"


def test_cli_compare_subprocess_roundtrip(tmp_path):
    run = _cli("run", "--config", "honest_baseline", "--out", str(tmp_path / "x"), "--json-only")
    assert run.returncode == 0, run.stderr
    report = str(tmp_path / "x" / "report.json")
    proc = _cli("compare", report, report)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["identical"]


def test_cli_missing_file_exit_2():
    assert cli_main(["validate", "--config", "/nonexistent/scenario.json"]) == 2


def test_cli_validate_directory_exit_2(tmp_path):
    proc = _cli("validate", "--config", str(tmp_path), timeout=60)
    assert proc.returncode == 2
    assert f"error: {tmp_path}:" in proc.stderr


def test_cli_validate_non_utf8_file_exit_2(tmp_path):
    path = tmp_path / "latin1.json"
    # The name in Latin-1: the byte 0xEF followed by "n" is not UTF-8.
    path.write_bytes(json.dumps(MINIMAL).encode().replace(b"mini", b"m\xefni"))
    proc = _cli("validate", "--config", str(path), timeout=60)
    assert proc.returncode == 2
    assert f"error: {path}:" in proc.stderr


def test_cli_compare_non_object_report_exit_2(tmp_path):
    path = tmp_path / "report.json"
    path.write_text("[1, 2]")
    proc = _cli("compare", str(path), str(path), timeout=60)
    assert proc.returncode == 2
    assert "error: a report must be a JSON object" in proc.stderr


def test_cli_compare_directory_exit_2(tmp_path):
    proc = _cli("compare", str(tmp_path), str(tmp_path), timeout=60)
    assert proc.returncode == 2
    assert f"error: {tmp_path}: cannot read:" in proc.stderr
    assert proc.stderr.count(str(tmp_path)) == 1


def test_cli_compare_non_utf8_report_exit_2(tmp_path):
    path = tmp_path / "report.json"
    path.write_bytes(b'{"name": "m\xefni"}')
    proc = _cli("compare", str(path), str(path), timeout=60)
    assert proc.returncode == 2
    assert f"error: {path}: cannot read:" in proc.stderr


@pytest.mark.parametrize(
    "content, problem",
    [(b"{bad", "not valid JSON"), (b'{"name": "m\xefni"}', "cannot read")],
    ids=["invalid-json", "non-utf8"],
)
def test_cli_compare_names_the_bad_second_report(tmp_path, content, problem):
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"schema_version": SCHEMA_VERSION}))
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    proc = _cli("compare", str(good), str(bad), timeout=60)
    assert proc.returncode == 2
    assert f"error: {bad}: {problem}:" in proc.stderr
    assert str(good) not in proc.stderr


@pytest.mark.parametrize(
    "section, value",
    [("attacks", 5), ("attacks", [5]), ("linkage", {"checkins": 3})],
    ids=["attacks-int", "attacks-int-entry", "linkage-checkins-int"],
)
def test_cli_compare_malformed_section_exit_2(tmp_path, section, value):
    path = tmp_path / "report.json"
    path.write_text(json.dumps({"schema_version": SCHEMA_VERSION, section: value}))
    proc = _cli("compare", str(path), str(path), timeout=60)
    assert proc.returncode == 2
    assert f"error: malformed {section}" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("command", ["validate", "compare"])
@pytest.mark.parametrize(
    "text",
    ["[" * 100_000 + "]" * 100_000, '{"seed": ' + "1" * 5000 + "}"],
    ids=["deep", "long-int"],
)
def test_cli_json_past_the_parser_limits_exit_2(tmp_path, command, text):
    path = tmp_path / "input.json"
    path.write_text(text)
    if command == "validate":
        proc = _cli("validate", "--config", str(path), timeout=60)
    else:
        proc = _cli("compare", str(path), str(path), timeout=60)
    assert proc.returncode == 2
    assert f"error: {path}: cannot read:" in proc.stderr


def test_cli_run_out_naming_a_file_exit_2(tmp_path):
    path = tmp_path / "taken"
    path.write_text("not a directory")
    proc = _cli("run", "--config", "honest_baseline", "--out", str(path), "--json-only", timeout=60)
    assert proc.returncode == 2
    assert "error: --out: cannot write the artifacts:" in proc.stderr


def test_cli_run_checks_out_before_the_run(monkeypatch, tmp_path, capsys):
    from lucasim import cli

    def never(config):
        raise AssertionError("the run started before --out was created")

    monkeypatch.setattr(cli, "run_scenario", never)
    (tmp_path / "taken").write_text("not a directory")
    out = str(tmp_path / "taken" / "out")
    assert cli.main(["run", "--config", "honest_baseline", "--out", out, "--json-only"]) == 2
    assert "error: --out: cannot write the artifacts:" in capsys.readouterr().err


def test_cli_run_exit_2_when_an_artifact_cannot_be_written(monkeypatch, tmp_path, capsys):
    from lucasim import cli
    from lucasim.scenario import RunResult

    def full_disk():
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(RunResult, "artifact_builders", lambda self: (("report.json", full_disk),))
    out = str(tmp_path / "out")
    assert cli.main(["run", "--config", "honest_baseline", "--out", out, "--json-only"]) == 2
    assert "error: --out: cannot write the artifacts:" in capsys.readouterr().err


def test_cli_run_summary_names_every_attack_outcome(tmp_path, capsys):
    from lucasim import cli

    out = tmp_path / "out"
    assert cli.main(["run", "--config", "full_attack_matrix", "--out", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    expected = [
        f"  attack {a['attack_id']}: {'SUCCEEDED' if a['succeeded'] else 'FAILED'} ({a['detectable']})"
        for a in report["attacks"]
    ]
    assert len(expected) == 9 and [line for line in lines if line.startswith("  attack ")] == expected


def test_every_bundled_scenario_under_time_budget():
    import time

    for name in bundled_scenario_names():
        started = time.monotonic()
        run_scenario(load_bundled_config(name))
        assert time.monotonic() - started < 60.0, name


def test_server_records_match_checkin_events_exactly():
    result = run_scenario(load_bundled_config("group_linkage"))
    event_rids = [
        e.data.record_id for e in result.world.truth.events if e.kind == "checkin"
    ]
    assert sorted(event_rids) == sorted(result.world.server.checkins)
    assert len(event_rids) == len(set(event_rids))


def test_checkout_closes_only_the_visit_its_outing_opened():
    """A checkout due after a later check-in elsewhere leaves that later visit open."""
    config = parse_config(
        {
            "name": "checkout-rule",
            "seed": 1,
            "duration_days": 1,
            "population": {"guests": 3, "visits_per_day": 0},
            "venues": {"count": 2},
            "health_depts": 1,
            "script": [
                {"day": 0, "at": 50000, "venue": 0, "guests": [2]},
                {"day": 0, "at": 50100, "venue": 1, "guests": [2]},
            ],
        }
    )
    records = sorted(run_scenario(config).world.server.checkins.values(), key=lambda r: r.checkin_time)
    first_of_2, second_of_2 = records
    assert first_of_2.scanner_id.startswith("v000:") and first_of_2.checkout_time is None
    assert second_of_2.scanner_id.startswith("v001:")
    assert second_of_2.checkout_time == second_of_2.checkin_time + 3600


def test_per_checkin_rows_are_slotted():
    """The rows a run keeps per check-in carry no per-instance ``__dict__``;
    its references and seeds are plain ``bytes``."""
    from lucasim.model import CheckInRecord, GroundTruthEvent
    from lucasim.netsim import NetworkObservation

    world = run_scenario(load_bundled_config("honest_baseline")).world
    record = next(iter(world.server.checkins.values()))
    seed = next(seed for guest in world.guests for seed in guest.seeds.values())
    rows = {
        NetworkObservation: world.transport.observations[0],
        GroundTruthEvent: world.truth.events[0],
        CheckInRecord: record,
    }
    for cls, row in rows.items():
        assert "__slots__" in vars(cls), cls.__name__
        assert type(row) is cls
        assert not hasattr(row, "__dict__"), cls.__name__
    assert type(record.double_enc_ref) is bytes and type(seed) is bytes


def test_cli_internal_error_exit_3(monkeypatch, tmp_path):
    from lucasim import cli
    from lucasim.actors import SimulationError

    def boom(config):
        raise SimulationError("synthetic invariant breach")

    monkeypatch.setattr(cli, "run_scenario", boom)
    out = ["--out", str(tmp_path / "out")]
    assert cli.main(["run", "--config", "honest_baseline", "--json-only", *out]) == 3


# -- robustness property ------------------------------------------------------

# Sizes the generator keeps small so that every validated mutant runs in a
# fraction of a second; parse_config's own ceilings are far higher, since
# they only guarantee that a validated scenario finishes.
_SIZE_BOUNDS = {
    ("population", "guests"): 40,
    ("duration_days",): 3,
    ("population", "exact_visits_total"): 3,
    ("health_depts",): 4,
    ("venues", "count"): 20,
    ("venues", "scanners_per_venue"): 3,
    ("network", "carriers"): 3,
    ("network", "nat_pool", 1): 256,
}
_MUTANT_VALUES = (
    _NAN, _INF, -_INF, True, False, _HUGE, -_HUGE, 0, -1, 1, 2, 0.5, 1e308, "", "x", None, [], {}
)


def _bounded_base(name):
    raw = json.loads(json.dumps(load_bundled_config(name).raw))
    raw["population"]["guests"] = min(raw["population"]["guests"], 40)
    raw["duration_days"] = min(raw["duration_days"], 3)
    return raw


_BASES = {name: _bounded_base(name) for name in bundled_scenario_names()}


def _leaf_paths(value, path=()):
    if isinstance(value, dict):
        for key, child in value.items():
            yield from _leaf_paths(child, path + (key,))
    elif isinstance(value, list):
        for i, child in enumerate(value):
            yield from _leaf_paths(child, path + (i,))
    else:
        yield path


def _parent(raw, path):
    """The list or object that holds the leaf at ``path``."""
    for key in path[:-1]:
        raw = raw[key]
    return raw


@st.composite
def _mutants(draw):
    """A bundled scenario with one to three leaves replaced from the value pool."""
    raw = json.loads(json.dumps(_BASES[draw(st.sampled_from(sorted(_BASES)))]))
    leaves = list(_leaf_paths(raw))
    for path in draw(st.lists(st.sampled_from(leaves), min_size=1, max_size=3)):
        value = draw(st.sampled_from(_MUTANT_VALUES))
        if path in _SIZE_BOUNDS and type(value) in (int, float) and value > _SIZE_BOUNDS[path]:
            value = _SIZE_BOUNDS[path]
        _parent(raw, path)[path[-1]] = value
    return raw


def _validate_then_run(path, raw):
    """``validate`` exits 0 or 2, and a validated scenario runs to completion
    or fails with SimulationError."""
    path.write_text(json.dumps(raw))
    code = cli_main(["validate", "--config", str(path)])
    assert code in (0, 2)
    if code == 0:
        try:
            run_scenario(parse_config(raw))
        except SimulationError:
            pass


def test_mutated_bundled_scenarios_validate_or_run(tmp_path):
    for raw in _BASES.values():
        parse_config(raw)
    path = tmp_path / "mutant.json"
    cases = []

    @settings(max_examples=500, deadline=None, database=None, derandomize=True)
    @given(raw=_mutants())
    def validate_then_run(raw):
        cases.append(raw)
        _validate_then_run(path, raw)

    validate_then_run()
    assert len(cases) >= 500


def test_every_integer_set_huge_validates_or_runs(tmp_path):
    """Each integer of each bounded bundled scenario, one at a time, set one
    past the largest int64."""
    path = tmp_path / "huge.json"
    for base in _BASES.values():
        for leaf in _leaf_paths(base):
            raw = json.loads(json.dumps(base))
            parent = _parent(raw, leaf)
            if type(parent[leaf[-1]]) is int:
                parent[leaf[-1]] = sys.maxsize + 1
                _validate_then_run(path, raw)


@pytest.mark.parametrize("name", sorted(_BASES))
def test_offline_venues_validate_and_run(name):
    """An offline venue is a validated input: each bundled scenario runs to
    completion with venue 0, and with every venue, offline."""
    raw = json.loads(json.dumps(_BASES[name]))
    for unavailable in ([0], list(range(raw["venues"]["count"]))):
        raw["venues"]["unavailable"] = unavailable
        run_scenario(parse_config(raw))


def test_cli_run_with_the_oracle_venue_offline(tmp_path):
    raw = json.loads(json.dumps(_BASES["full_attack_matrix"]))
    raw["venues"]["unavailable"] = [0]
    path, out = tmp_path / "offline.json", tmp_path / "out"
    path.write_text(json.dumps(raw))
    assert cli_main(["run", "--config", str(path), "--out", str(out), "--json-only"]) == 0
    report = json.loads((out / "report.json").read_text())
    oracle = next(a for a in report["attacks"] if a["attack_id"] == "venue_decryption_oracle")
    assert oracle["succeeded"] is False
    assert "v000 offline" in oracle["secrets_learned"]
    assert oracle["details"]["record_ids"] == []
    assert oracle["details"]["requested"] > 0
    # The HD oracle it feeds gets nothing to open, which is no success either.
    hd_oracle = next(a for a in report["attacks"] if a["attack_id"] == "hd_decryption_oracle")
    assert hd_oracle["succeeded"] is False
    assert hd_oracle["details"]["record_ids"] == []


def test_expand_window_without_a_traced_positive_does_not_succeed():
    raw = json.loads(json.dumps(_BASES["full_attack_matrix"]))
    for positive in raw["positives"]:
        positive["traced"] = False
    report = run_scenario(parse_config(raw)).report
    expand = next(a for a in report["attacks"] if a["attack_id"] == "expand_window")
    assert expand["succeeded"] is False
    assert expand["details"]["record_ids"] == []
