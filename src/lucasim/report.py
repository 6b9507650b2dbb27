"""Run-report helpers: canonical serialization and structured comparison."""

from __future__ import annotations

import hashlib
import json
from json.encoder import c_make_encoder, encode_basestring_ascii
from typing import Any, Callable

SCHEMA_VERSION = 1


def compact_encoder() -> Callable[[Any], str]:
    """An encoder of compact, key-sorted JSON (``json.dumps`` with
    ``sort_keys=True, separators=(",", ":")``), built once and reused for
    every value of one artifact or one transport.

    ``JSONEncoder.encode`` builds a new C encoder on every call; reusing one
    removes that per-value cost.  The C encoder keeps no circular-reference
    markers: values built by the program are never circular, and a marker
    left behind when ``default`` raises would fail the next call.
    """
    if c_make_encoder is None:
        return json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
    chunks = c_make_encoder(
        None, json.JSONEncoder().default, encode_basestring_ascii, None, ":", ",", True, False, True
    )
    return lambda value: "".join(chunks(value, 0))


class CompareError(Exception):
    pass


def canonical_json(report: dict[str, Any]) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def report_digest(report: dict[str, Any]) -> str:
    return hashlib.sha256(compact_encoder()(report).encode()).hexdigest()


def _verdicts(report: dict[str, Any], section: str, key: str, verdict: str) -> dict[str, Any]:
    entries = report.get(section, [])
    if not isinstance(entries, list) or not all(
        isinstance(e, dict) and isinstance(e.get(key), str) and verdict in e for e in entries
    ):
        raise CompareError(
            f"malformed {section} section: expected a list of objects "
            f"with a string {key!r} and a {verdict!r}"
        )
    return {e[key]: e[verdict] for e in entries}


def _object(value: Any, section: str) -> dict[str, Any]:
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise CompareError(f"malformed {section} section: expected an object")
    return value


def _scores(report: dict[str, Any]) -> dict[str, Any]:
    linkage = _object(report.get("linkage"), "linkage")
    scores: dict[str, Any] = {}
    for section in ("checkins", "groups"):
        found = _object(linkage.get(section), f"linkage.{section}")
        scores.update({f"{section}.{key}": found.get(key) for key in ("precision", "recall")})
    return scores


def _diff(a: dict[str, Any], b: dict[str, Any]) -> dict[str, Any]:
    keys = sorted(set(a) | set(b))
    return {k: {"a": a.get(k), "b": b.get(k)} for k in keys if a.get(k) != b.get(k)}


def compare_reports(a: dict[str, Any], b: dict[str, Any]) -> dict[str, Any]:
    """Per-attack, per-objective and linkage-score delta between two run reports.

    Only differing entries appear; an identical pair yields empty sections.
    A malformed section raises :class:`CompareError` naming it.
    """
    if not isinstance(a, dict) or not isinstance(b, dict):
        raise CompareError("a report must be a JSON object")
    if a.get("schema_version") != SCHEMA_VERSION or b.get("schema_version") != SCHEMA_VERSION:
        raise CompareError(
            f"schema versions differ or are unsupported: "
            f"{a.get('schema_version')} vs {b.get('schema_version')}"
        )
    attack_diff = _diff(*(_verdicts(r, "attacks", "attack_id", "succeeded") for r in (a, b)))
    objective_diff = _diff(*(_verdicts(r, "objectives", "objective", "holds") for r in (a, b)))
    metric_diff = _diff(_scores(a), _scores(b))
    return {
        "identical": not (attack_diff or objective_diff or metric_diff)
        and report_digest(a) == report_digest(b),
        "attacks": attack_diff,
        "objectives": objective_diff,
        "metrics": metric_diff,
    }
