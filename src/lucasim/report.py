"""Run-report helpers: canonical serialization and structured comparison."""

from __future__ import annotations

import hashlib
import json
from typing import Any, Iterable

SCHEMA_VERSION = 1

# Compact, key-sorted JSON through one reused encoder: json.dumps with these
# arguments builds a fresh JSONEncoder per call, about a quarter of the cost
# of exporting the NDJSON rows.
_compact_json = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


class CompareError(Exception):
    pass


def canonical_json(report: dict[str, Any]) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def ndjson(rows: Iterable[Any]) -> str:
    """One compact, key-sorted JSON document per line, each ending in a newline."""
    return "".join([_compact_json(row) + "\n" for row in rows])


def report_digest(report: dict[str, Any]) -> str:
    return hashlib.sha256(_compact_json(report).encode()).hexdigest()


def _attack_map(report: dict[str, Any]) -> dict[str, bool]:
    return {a["attack_id"]: a["succeeded"] for a in report.get("attacks", [])}


def _objective_map(report: dict[str, Any]) -> dict[str, bool]:
    return {o["objective"]: o["holds"] for o in report.get("objectives", [])}


def compare_reports(a: dict[str, Any], b: dict[str, Any]) -> dict[str, Any]:
    """Per-attack and per-objective delta between two run reports.

    Only differing entries appear; an identical pair yields empty sections.
    """
    if a.get("schema_version") != SCHEMA_VERSION or b.get("schema_version") != SCHEMA_VERSION:
        raise CompareError(
            f"schema versions differ or are unsupported: "
            f"{a.get('schema_version')} vs {b.get('schema_version')}"
        )
    attacks_a, attacks_b = _attack_map(a), _attack_map(b)
    attack_diff = {
        aid: {"a": attacks_a.get(aid), "b": attacks_b.get(aid)}
        for aid in sorted(set(attacks_a) | set(attacks_b))
        if attacks_a.get(aid) != attacks_b.get(aid)
    }
    obj_a, obj_b = _objective_map(a), _objective_map(b)
    objective_diff = {
        o: {"a": obj_a.get(o), "b": obj_b.get(o)}
        for o in sorted(set(obj_a) | set(obj_b))
        if obj_a.get(o) != obj_b.get(o)
    }
    metric_diff: dict[str, Any] = {}
    for section in ("checkins", "groups"):
        la = (a.get("linkage") or {}).get(section) or {}
        lb = (b.get("linkage") or {}).get(section) or {}
        for key in ("precision", "recall"):
            va, vb = la.get(key), lb.get(key)
            if va != vb:
                metric_diff[f"{section}.{key}"] = {"a": va, "b": vb}
    return {
        "identical": not (attack_diff or objective_diff or metric_diff)
        and report_digest(a) == report_digest(b),
        "attacks": attack_diff,
        "objectives": objective_diff,
        "metrics": metric_diff,
    }
