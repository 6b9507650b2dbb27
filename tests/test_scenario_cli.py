"""Scenario config validation, bundled runs, report comparison, CLI surface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lucasim
from lucasim.cli import main as cli_main
from lucasim.report import CompareError, compare_reports, report_digest
from lucasim.scenario import (
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
    assert cfg.tracing.max_stay_s == 4 * 3600


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
    with pytest.raises(ConfigError):
        parse_config(dict(MINIMAL, misspelled=True))


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


@pytest.mark.parametrize(
    "change, field",
    [
        ({"seed": True}, "seed"),
        ({"network": {"nat_pool": ["16", 64]}}, "network.nat_pool"),
        ({"population": {"guests": 3, "stay_minutes": [30, "120"]}}, "population.stay_minutes"),
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
    ],
    ids=[
        "seed_bool",
        "nat_pool_str",
        "stay_minutes_str",
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
    ],
)
def test_mistyped_fields_rejected_with_path(tmp_path, change, field):
    bad = dict(MINIMAL, **change)
    with pytest.raises(ConfigError) as err:
        parse_config(bad)
    assert err.value.path == field
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    proc = _cli("validate", "--config", str(path))
    assert proc.returncode == 2
    assert f"error: {field}:" in proc.stderr


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


def test_every_bundled_scenario_under_time_budget():
    import time

    for name in bundled_scenario_names():
        started = time.monotonic()
        run_scenario(load_bundled_config(name))
        assert time.monotonic() - started < 60.0, name


def test_server_records_match_checkin_events_exactly():
    result = run_scenario(load_bundled_config("group_linkage"))
    event_rids = [
        e.data["record_id"] for e in result.world.truth.events if e.kind == "checkin"
    ]
    assert sorted(event_rids) == sorted(result.world.server.checkins)
    assert len(event_rids) == len(set(event_rids))


def test_cli_internal_error_exit_3(monkeypatch):
    from lucasim import cli
    from lucasim.actors import SimulationError

    def boom(config):
        raise SimulationError("synthetic invariant breach")

    monkeypatch.setattr(cli, "run_scenario", boom)
    assert cli.main(["run", "--config", "honest_baseline", "--json-only"]) == 3
