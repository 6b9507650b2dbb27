"""NDJSON artifacts: every line is the compact, key-sorted JSON of its source row.

The golden digests pin the artifact bytes; these tests say which row and
which field differ when an exporter stops matching ``json.dumps``.
"""

import json
import re
from json.encoder import encode_basestring_ascii as quote

import pytest
from hypothesis import given, settings, strategies as st

from lucasim import actors, model, netsim, report
from lucasim.model import (
    CHECKIN,
    CHECKOUT,
    CheckinRow,
    CheckoutRow,
    GroundTruthEvent,
    GroundTruthLog,
)
from lucasim.netsim import NetworkObservation, StaticIdentity, Transport
from lucasim.scenario import bundled_scenario_names, load_bundled_config, run_scenario


_TRANSCRIPT_FIELDS = ("seq", "t", "sender", "receiver", "kind", "payload")


def _dumps(row):
    return json.dumps(row, sort_keys=True, separators=(",", ":"))


def _lines(text):
    lines = text.split("\n")
    assert lines[-1] == ""  # every row, the last one included, ends in a newline
    return lines[:-1]


def _row(seq, record):
    """Row ``seq`` of a log of slotted records, the record's fields with its
    position, as the dict its exported line encodes; an event's check-in or
    checkout row encodes as the dict of its fields."""
    row = {"seq": seq, **{name: getattr(record, name) for name in type(record).__slots__}}
    if isinstance(row.get("data"), (CheckinRow, CheckoutRow)):
        row["data"] = row["data"]._asdict()
    return row


def _rows(records):
    return [_row(seq, record) for seq, record in enumerate(records)]


def _assert_rows(text, rows):
    lines = _lines(text)
    assert len(lines) == len(rows)
    for i, (line, row) in enumerate(zip(lines, rows)):
        assert line == _dumps(row), f"row {i}"


def _assert_transcript(text):
    """Each line is ``json.dumps`` of the six-field row rebuilt from its parsed
    values, numbered from 0."""
    for i, line in enumerate(_lines(text)):
        parsed = json.loads(line)
        row = {field: parsed[field] for field in _TRANSCRIPT_FIELDS}
        assert line == _dumps(row), f"row {i}"
        assert row["seq"] == i


@pytest.mark.parametrize("name", bundled_scenario_names())
def test_bundled_artifacts_equal_json_dumps_of_source_rows(name):
    result = run_scenario(load_bundled_config(name))
    artifacts = result.artifacts()
    world = result.world
    events = world.truth.events
    _assert_rows(artifacts["events.ndjson"], _rows(events))
    # Every check-in and checkout a run logs carries its row type.
    row_types = {CHECKIN: CheckinRow, CHECKOUT: CheckoutRow}
    assert all(type(e.data) is row_types[e.kind] for e in events if e.kind in row_types)
    _assert_transcript(artifacts["transcript.ndjson"])
    assert len(_lines(artifacts["transcript.ndjson"])) == result.report["counts"]["messages"]
    _assert_rows(artifacts["observations.ndjson"], _rows(world.transport.observations))


def test_hand_built_transport_rows_keep_json_dumps_escaping_and_order():
    transport = Transport()
    payload = {"zeta": None, "name": "Café Zoë ☕", "nested": {"b": [2, 1], "a": {"y": 1, "x": None}}}
    transport.to_server(
        StaticIdentity("203.0.113.7", "scanner-frontend"), "scanner:v000:s0", "other", payload, t=5
    )
    transport.local("venue#0", "guest#0", "qr_poster", {"ü": "ß", "a": None}, t=6)

    transcript = transport.export_transcript_ndjson()
    _assert_transcript(transcript)
    payloads = [json.loads(line)["payload"] for line in _lines(transcript)]
    assert payloads == [payload, {"ü": "ß", "a": None}]
    assert "\\u00e9" in transcript and "\\u2615" in transcript  # ensure_ascii escaping
    assert '"a":{"x":null,"y":1},"b":[2,1]' in transcript  # nested keys sorted, lists kept
    observations = transport.export_observations_ndjson()
    _assert_rows(observations, _rows(transport.observations))
    assert '"trace_id":null' in observations


# -- row envelopes ------------------------------------------------------------

# Any code point but surrogates: control characters and non-ASCII included.
_text = st.text()
_big_int = st.integers(min_value=-(2**70), max_value=2**70) | st.sampled_from([-1, 2**63, 2**64 + 1])
_json = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | _text,
    lambda children: st.lists(children, max_size=4) | st.dictionaries(_text, children, max_size=4),
    max_leaves=12,
)
_observations = st.builds(
    NetworkObservation,
    t=_big_int,
    src_address=_text,
    src_port=_big_int,
    ip_version=_big_int,
    device_type=_text,
    message_kind=_text,
    trace_id=st.none() | _text,
)
# A transcript row as logged: its seq is its index, so it is not drawn (nor
# is an observation's or an event's).
_transcript_rows = st.fixed_dictionaries(
    {
        "t": _big_int,
        "sender": _text,
        "receiver": _text,
        "kind": _text,
        "payload": st.dictionaries(_text, _json, max_size=4),
    }
)


def _without(data, key):
    return {k: v for k, v in data.items() if k != key}


def _with(data, key, value):
    return {**data, key: value}


def _row_dicts(keys, int_keys):
    """A dict holding exactly the keys of a row type, or a near miss of it:
    a dict takes the encoder whatever its keys."""
    fits = st.fixed_dictionaries({k: _big_int if k in int_keys else _text for k in keys})
    key = st.sampled_from(keys)
    missing = st.builds(_without, fits, key)
    # One drawn key set on either: an extra key, a renamed one, or a value of
    # any JSON type.
    changed = st.builds(_with, fits | missing, key | _text, _json)
    str_keys = [k for k in keys if k not in int_keys]
    mistyped = st.builds(
        _with, fits, st.sampled_from(str_keys), _json.filter(lambda v: not isinstance(v, str))
    )
    if int_keys:
        not_int = st.booleans() | st.floats() | st.none() | _text
        mistyped |= st.builds(_with, fits, st.sampled_from(int_keys), not_int)
    return fits | missing | changed | mistyped


_kinds = _text | st.sampled_from([CHECKIN, CHECKOUT])
_events = st.one_of(
    st.builds(
        GroundTruthEvent, t=_big_int, kind=_kinds, data=st.dictionaries(_text, _json, max_size=4)
    ),
    st.builds(
        GroundTruthEvent,
        t=_big_int,
        kind=st.just(CHECKIN),
        data=_row_dicts(CheckinRow._fields, ("counter", "day")),
    ),
    st.builds(
        GroundTruthEvent,
        t=_big_int,
        kind=st.just(CHECKOUT),
        data=_row_dicts(CheckoutRow._fields, ()),
    ),
    # The rows a run logs, under any kind: the template writes the kind given.
    st.builds(
        GroundTruthEvent,
        t=_big_int,
        kind=_kinds,
        data=st.builds(
            CheckinRow,
            counter=_big_int,
            day=_big_int,
            **{name: _text for name in CheckinRow._fields[2:]},
        ),
    ),
    st.builds(
        GroundTruthEvent,
        t=_big_int,
        kind=_kinds,
        data=st.builds(CheckoutRow, **{name: _text for name in CheckoutRow._fields}),
    ),
)


def _template_keys(template):
    return re.findall(r'"(\w+)":', template)


def test_row_templates_name_every_field_in_sorted_order():
    assert _template_keys(netsim._OBSERVATION_ROW) == sorted(("seq", *NetworkObservation.__slots__))
    event_fields = sorted(("seq", *GroundTruthEvent.__slots__))
    assert _template_keys(model._EVENT_ROW) == event_fields
    for template, row_type in (
        (model._CHECKIN_ROW, CheckinRow),
        (model._CHECKOUT_ROW, CheckoutRow),
    ):
        keys = row_type._fields
        assert _template_keys(template) == ["data", *sorted(keys), *event_fields[1:]]
        assert list(keys) == sorted(keys)  # the order the fields are read in
    transport = Transport()
    transport.local("a", "b", "kind", {}, t=0)
    assert list(json.loads(transport.export_transcript_ndjson())) == sorted(_TRANSCRIPT_FIELDS)


@settings(max_examples=200, deadline=None)
@given(
    observations=st.lists(_observations, max_size=5),
    transcript=st.lists(_transcript_rows, max_size=5),
    events=st.lists(_events, max_size=6),
)
def test_row_envelopes_equal_json_dumps(observations, transcript, events):
    transport = Transport()
    transport.observations.extend(observations)
    for row in transcript:
        transport.local(row["sender"], row["receiver"], row["kind"], row["payload"], row["t"])
    log = GroundTruthLog()
    log.events.extend(events)
    _assert_rows(transport.export_observations_ndjson(), _rows(observations))
    _assert_rows(
        transport.export_transcript_ndjson(), [dict(row, seq=i) for i, row in enumerate(transcript)]
    )
    _assert_rows(log.export_ndjson(), _rows(events))


_hex = st.binary(max_size=48).map(bytes.hex)
# Ids that the protocol builds from ASCII, drawn as any text so that the
# quoted fields meet quotes, backslashes, control and non-ASCII characters.
_id_text = st.text() | st.just('v0"0\\:s\né')
_day_or_time = st.integers(min_value=0, max_value=2**40)


@settings(max_examples=100, deadline=None)
@given(
    day=_day_or_time,
    t=_day_or_time,
    public=_hex,
    signature=_hex,
    ref=_hex,
    trace_hex=_hex,
    scanner_id=_id_text,
    user_id=_id_text,
)
def test_payload_templates_equal_the_encoded_dicts(
    day, t, public, signature, ref, trace_hex, scanner_id, user_id
):
    """Each fixed payload row, filled as its call site fills it, is the
    transport's encoding of the dict it stands for, and logs the same line."""
    cases = [
        (actors._FETCH_MASTER_KEY % day, {"action": "fetch_master_key", "day": day}),
        (
            actors._MASTER_KEY % (day, public, signature),
            {"day": day, "public": public, "signature": signature},
        ),
        (actors._SCAN_HANDSHAKE % day, {"day": day}),
        (actors._QR_PAYLOAD % (ref, trace_hex), {"trace_id": trace_hex, "ref": ref}),
        (
            actors._UPLOAD_CHECKIN % (t, ref, quote(scanner_id), trace_hex),
            {
                "action": "upload_checkin",
                "scanner_id": scanner_id,
                "trace_id": trace_hex,
                "ref": ref,
                "checkin_time": t,
            },
        ),
        (actors._CHECKIN_POLL % trace_hex, {"trace_id": trace_hex}),
        (actors._CONFIRMED, {"confirmed": True}),
        (actors._CHECKOUT % (t, trace_hex), {"trace_id": trace_hex, "departure_time": t}),
        (actors._FETCH_CONTACT % quote(user_id), {"action": "fetch_contact", "user_id": user_id}),
        (
            actors._CONTACT % (ref, quote(user_id)),
            {"encrypted_contact": ref, "user_id": user_id},
        ),
    ]
    encode = report.compact_encoder()
    rendered, plain = Transport(), Transport()
    for row, payload in cases:
        assert row == encode(payload) == _dumps(payload)
        rendered.local("a", "b", "kind", row, t)
        plain.local("a", "b", "kind", payload, t)
    assert rendered.export_transcript_ndjson() == plain.export_transcript_ndjson()


def test_unencodable_payload_raises_and_leaves_no_stale_state():
    transport = Transport()
    payload = {"blob": b"\x00"}
    with pytest.raises(TypeError):
        transport.local("a", "b", "kind", payload, t=0)
    # Logging the same dict again encodes it afresh, not as a circular
    # reference, and the failed message left no line and no gap in seq.
    payload["blob"] = "00"
    transport.local("a", "b", "kind", payload, t=0)
    row = {"seq": 0, "t": 0, "sender": "a", "receiver": "b", "kind": "kind", "payload": payload}
    _assert_rows(transport.export_transcript_ndjson(), [row])


def test_transcript_records_a_message_as_it_was_sent():
    transport = Transport()
    payload = {"n": 1, "tags": ["a"]}
    transport.local("a", "b", "kind", payload, t=0)
    payload["n"] = 2
    payload["tags"].append("b")
    assert json.loads(transport.export_transcript_ndjson())["payload"] == {"n": 1, "tags": ["a"]}


def test_exports_without_the_c_encoder_match(monkeypatch):
    config = load_bundled_config("trace_leakage")
    expected = run_scenario(config).artifacts()
    # Patched before the run: the transcript is encoded as the run logs it.
    monkeypatch.setattr(report, "c_make_encoder", None)
    assert run_scenario(config).artifacts() == expected
