"""Scenario generators and per-workload correctness invariants.

Each workload turns a seed into a plain scenario dict (the only thing handed
to lucasim) and knows which properties of the resulting report must hold at
every seed.  The scenario shapes copy the bundled ``nat_linkage`` and
``full_attack_matrix`` scenarios at a larger scale; they are written out
here, not loaded from the package, so that reorganising the bundled files
cannot silently change what the benchmark measures.  README.md says why
each workload exists and which layers it stresses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

DEFAULT_SEED = 1

# Sizes chosen so that one iteration takes 2-3.5 s on a shared 2-core host:
# long enough for every layer to show, short enough that one run of the
# benchmark collects about a dozen iterations.
NAT_CITY_GUESTS = 480
ATTACK_GUESTS = 400
ATTACK_DAYS = 6
TRACE_GUESTS = 240
TRACE_POSITIVES = 160

OBJECTIVES = ("O1", "O2", "O3", "O4", "O5", "O6")


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[int], dict[str, Any]]
    # Returns the list of violated invariants (empty when the report is fine).
    check: Callable[[dict[str, Any], dict[str, Any]], list[str]]
    # Traced spans (``tracer.py`` names) this workload never reaches.  Every
    # other wrapped span must be called, or its wrapper was bypassed.
    idle: frozenset[str] = frozenset()


def _violated(report: dict[str, Any]) -> list[str]:
    return [o["objective"] for o in report["objectives"] if not o["holds"]]


def _nat_population(guests: int) -> dict[str, Any]:
    return {
        "group_size_weights": {"1": 0.7, "2": 0.3},
        "guests": guests,
        "p_checkout": 0.9,
        "p_reconnect_per_day": 0.15,
        "visits_per_day": 1.5,
    }


def build_nat_city(seed: int) -> dict[str, Any]:
    return {
        "name": "nat_city",
        "seed": seed,
        "duration_days": 6,
        "health_depts": 3,
        "adversary": {"posture": "passive"},
        "linkage": {"motorized": True},
        "network": {
            "adoption": 0.3,
            "carriers": 3,
            "ipv6_probability": [0.0, 0.0, 0.0],
            "nat_pool": [16, 64],
        },
        "population": _nat_population(NAT_CITY_GUESTS),
        "positives": [],
        "venues": {"count": 20},
    }


def check_nat_city(raw: dict[str, Any], report: dict[str, Any]) -> list[str]:
    problems = []
    if _violated(report) != ["O3"]:
        problems.append(f"violated objectives {_violated(report)}, expected only O3")
    linkage = report["linkage"]["checkins"]
    if linkage["precision"] < 0.9:
        problems.append(f"check-in linkage precision {linkage['precision']:.3f} < 0.9")
    if linkage["recall"] < 0.6:
        problems.append(f"check-in linkage recall {linkage['recall']:.3f} < 0.6")
    return problems


_ATTACK_PLAN = [
    ("exfiltrate_venue_key", 0, {"mode": "exfil_on_gen", "venue": 0}),
    ("exfiltrate_hd_key", 0, {"hd": 1, "mode": "exfil_on_gen"}),
    ("substitute_venue_key", 3, {"venue": 1}),
    ("modify_scanner", 0, {"scanner": 0, "venue": 2}),
    ("impersonate_hd", 1, {}),
    ("expand_window", 1, {"pad_per_venue": 5}),
    ("venue_decryption_oracle", 1, {"venue": 0}),
    ("hd_decryption_oracle", 1, {"hd": 0}),
    ("substitute_master_key", 2, {"day": 2}),
]

# (day, at, venue, guests, mode, scanner) of the scripted outings that give
# every attack a victim whatever the seed.
_ATTACK_SCRIPT = [
    (0, 43200, 3, [0, 1], "scanner", None),
    (0, 46800, 0, [12, 20], "scanner", None),
    (1, 50400, 2, [14, 15], "scanner", 0),
    (2, 43200, 0, [12, 13], "scanner", None),
    (3, 43200, 1, [10, 11], "self", None),
    (4, 50400, 1, [10], "self", None),
]


def build_attack_matrix(seed: int) -> dict[str, Any]:
    script = []
    for day, at, venue, guests, mode, scanner in _ATTACK_SCRIPT:
        visit = {"day": day, "at": at, "venue": venue, "guests": guests, "mode": mode, "stay_s": 3600}
        if scanner is not None:
            visit["scanner"] = scanner
        script.append(visit)
    return {
        "name": "attack_matrix",
        "seed": seed,
        "duration_days": ATTACK_DAYS,
        "health_depts": 3,
        "adversary": {
            "posture": "active",
            "attacks": [
                {"attack": attack, "day": day, "params": params}
                for attack, day, params in _ATTACK_PLAN
            ],
        },
        "population": {
            "group_size_weights": {"1": 0.6, "2": 0.4},
            "guests": ATTACK_GUESTS,
            "p_checkout": 0.9,
            "self_checkin_fraction": 0.3,
            "visits_per_day": 1.2,
        },
        "positives": [
            {"guest": 0, "report_day": 1, "traced": True, "window_back": 2},
            {"guest": 20, "report_day": 2, "traced": False, "window_back": 2},
        ],
        "script": script,
        "venues": {"count": 8},
    }


def check_attack_matrix(raw: dict[str, Any], report: dict[str, Any]) -> list[str]:
    problems = []
    attacks = report["attacks"]
    failed = [a["attack_id"] for a in attacks if not a["succeeded"]]
    if len(attacks) != len(_ATTACK_PLAN) or failed:
        problems.append(f"{len(attacks) - len(failed)}/{len(_ATTACK_PLAN)} attacks succeeded: {failed}")
    if _violated(report) != list(OBJECTIVES):
        problems.append(f"violated objectives {_violated(report)}, expected all of O1-O6")
    return problems


def build_trace_heavy(seed: int) -> dict[str, Any]:
    duration = 6
    # Reports land on days 1..duration-2 so that every report (spaced 300 s
    # apart by run_scenario) still falls on a day with a master key.
    positives = [
        {"report_day": 1 + i % (duration - 2), "traced": True}
        for i in range(TRACE_POSITIVES)
    ]
    return {
        "name": "trace_heavy",
        "seed": seed,
        "duration_days": duration,
        "health_depts": 3,
        "adversary": {"posture": "passive"},
        "linkage": {"motorized": True},
        "network": {
            "adoption": 0.3,
            "carriers": 3,
            "ipv6_probability": [1.0, 0.5, 0.0],
            "nat_pool": [16, 64],
        },
        "population": _nat_population(TRACE_GUESTS),
        "positives": positives,
        "venues": {"count": 20},
    }


def check_trace_heavy(raw: dict[str, Any], report: dict[str, Any]) -> list[str]:
    problems = []
    traced = sum(1 for p in raw["positives"] if p["traced"])
    traces = report["traces"]
    if len(traces) != traced:
        problems.append(f"{len(traces)} traces for {traced} traced positives")
    bad = sorted({t["status"] for t in traces} - {"ok"})
    if bad:
        problems.append(f"trace statuses other than ok: {bad}")
    return problems


WORKLOADS = {
    w.name: w
    for w in (
        Workload("nat_city", build_nat_city, check_nat_city, frozenset({
            "actors.flow_checkin_self",
            "actors.flow_report_positive",
            "actors.flow_trace",
            "actors.BackendServer.records_at_venue",
            "crypto.decrypt",
            "crypto.sym_decrypt",
            "model.GroundTruthLog.true_visits",
            "model.GroundTruthLog.contact_of",
            "adversary.Attack.execute",
            "adversary.Attack.finalize",
        })),
        Workload("attack_matrix", build_attack_matrix, check_attack_matrix),
        Workload("trace_heavy", build_trace_heavy, check_trace_heavy, frozenset({
            "actors.flow_checkin_self",
            "model.GroundTruthLog.true_visits",
            "model.GroundTruthLog.contact_of",
            "adversary.Attack.execute",
            "adversary.Attack.finalize",
        })),
    )
}
