"""NDJSON artifacts: every line is the compact, key-sorted JSON of its source row.

The golden digests pin the artifact bytes; these tests say which row and
which field differ when an exporter stops matching ``json.dumps``.
"""

import json
from dataclasses import asdict

from lucasim.netsim import StaticIdentity, Transport
from lucasim.scenario import load_bundled_config, run_scenario


def _dumps(row):
    return json.dumps(row, sort_keys=True, separators=(",", ":"))


def _assert_rows(text, rows):
    lines = text.split("\n")
    assert lines[-1] == ""  # every row, the last one included, ends in a newline
    assert len(lines) - 1 == len(rows)
    for i, (line, row) in enumerate(zip(lines, rows)):
        assert line == _dumps(row), f"row {i}"


def test_bundled_artifacts_equal_json_dumps_of_source_rows():
    result = run_scenario(load_bundled_config("full_attack_matrix"))
    artifacts = result.artifacts()
    world = result.world
    _assert_rows(artifacts["events.ndjson"], [asdict(e) for e in world.truth.events])
    _assert_rows(artifacts["transcript.ndjson"], world.transport.transcript)
    _assert_rows(
        artifacts["observations.ndjson"], [asdict(o) for o in world.transport.observations]
    )


def test_hand_built_transport_rows_keep_json_dumps_escaping_and_order():
    transport = Transport()
    payload = {"zeta": None, "name": "Café Zoë ☕", "nested": {"b": [2, 1], "a": {"y": 1, "x": None}}}
    transport.to_server(
        StaticIdentity("203.0.113.7", "scanner-frontend"), "scanner:v000:s0", "other", payload, t=5
    )
    transport.local("venue#0", "guest#0", "qr_poster", {"ü": "ß", "a": None}, t=6)

    transcript = transport.export_transcript_ndjson()
    _assert_rows(transcript, transport.transcript)
    assert "\\u00e9" in transcript and "\\u2615" in transcript  # ensure_ascii escaping
    assert '"a":{"x":null,"y":1},"b":[2,1]' in transcript  # nested keys sorted, lists kept
    observations = transport.export_observations_ndjson()
    _assert_rows(observations, [asdict(o) for o in transport.observations])
    assert '"trace_id":null' in observations
