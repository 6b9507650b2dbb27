"""Run-report helpers: canonical serialization and structured comparison."""

from __future__ import annotations

import hashlib
import json
from json.encoder import c_make_encoder, encode_basestring_ascii
from typing import Any, Callable

SCHEMA_VERSION = 1


def compact_encoder() -> Callable[[Any], str]:
    """A fresh encoder of compact, key-sorted JSON (``json.dumps`` with
    ``sort_keys=True, separators=(",", ":")``), reused for every row of one
    artifact.

    ``JSONEncoder.encode`` builds a new C encoder on every call; building one
    per artifact and reusing it removes that per-row cost.  Each call of this
    function gets its own markers dict: the C encoder leaves a marker behind
    when ``default`` raises, which a shared dict would later report as a
    false circular reference.
    """
    if c_make_encoder is None:
        return json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
    chunks = c_make_encoder(
        {}, json.JSONEncoder().default, encode_basestring_ascii, None, ":", ",", True, False, True
    )
    return lambda value: "".join(chunks(value, 0))


class CompareError(Exception):
    pass


def canonical_json(report: dict[str, Any]) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def report_digest(report: dict[str, Any]) -> str:
    return hashlib.sha256(compact_encoder()(report).encode()).hexdigest()


def _attack_map(report: dict[str, Any]) -> dict[str, bool]:
    return {a["attack_id"]: a["succeeded"] for a in report.get("attacks", [])}


def _objective_map(report: dict[str, Any]) -> dict[str, bool]:
    return {o["objective"]: o["holds"] for o in report.get("objectives", [])}


def compare_reports(a: dict[str, Any], b: dict[str, Any]) -> dict[str, Any]:
    """Per-attack and per-objective delta between two run reports.

    Only differing entries appear; an identical pair yields empty sections.
    """
    if not isinstance(a, dict) or not isinstance(b, dict):
        raise CompareError("a report must be a JSON object")
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
