"""Shared domain types, server-side records, and the ground-truth event log.

The ground-truth log is the append-only oracle of everything that really
happened in a run (who checked in where, true group memberships, which user
is behind each trace id).  Adversary inferences and objective verdicts are
always re-verified against it.  It is a simulation artifact: protocol actors
never read it.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii as quote
from typing import Any, NamedTuple, Optional

from . import crypto
from .crypto import AsymKeyPair, PublicKey
from .metrics import pairs_of
from .report import compact_encoder

DAY_SECONDS = 86400

MAX_STAY_S = 4 * 3600  # the stay tracing imputes to a visit without a checkout
MAX_CHECKINS_PER_DAY = 64  # the check-ins of a day that an uploaded seed is matched on
# The most days one positive upload carries seeds for: 53 three-digit days
# make a 4,033-byte payload, 54 would exceed crypto.MAX_PLAINTEXT.
MAX_WINDOW_DAYS = 53
# The tracing assumptions every report states.
ASSUMPTIONS = {
    "max_stay_s": MAX_STAY_S,
    "overlap_slack_s": 0,
    "include_index_case": False,
    "max_checkins_per_day": MAX_CHECKINS_PER_DAY,
    "open_visits": "visits without a checkout are imputed a maximum stay",
}

# Ground-truth event kinds.
REGISTER_USER = "register_user"
REGISTER_VENUE = "register_venue"
CHECKIN = "checkin"
CHECKOUT = "checkout"
REPORT_POSITIVE = "report_positive"
TRACE_REQUEST = "trace_request"
GROUP_ARRIVAL = "group_arrival"

EVENT_KINDS = frozenset(
    {REGISTER_USER, REGISTER_VENUE, CHECKIN, CHECKOUT, REPORT_POSITIVE, TRACE_REQUEST, GROUP_ARRIVAL}
)

# Venue decryption consent is recorded as a trace_request event with this
# subkind so that objective O6 is decidable from the log alone.
SUBKIND_VENUE_CONSENT = "venue_decryption_consent"


class SimulationError(Exception):
    """Internal invariant breach; always a bug, never a scenario outcome."""


class CheckinRow(NamedTuple):
    """The data of a check-in event, its fields in sorted key order."""

    counter: int
    day: int
    inner_ref: str
    master_source: str
    mode: str
    outer_key: str
    record_id: str
    scanner_id: str
    trace_id: str
    user_id: str
    venue_id: str


class CheckoutRow(NamedTuple):
    """The data of a checkout event, its fields in sorted key order."""

    record_id: str
    user_id: str
    venue_id: str


class GroundTruthEvent:
    """One entry of the ground-truth log; its ``seq`` is its position there.
    Its ``data`` is a ``CheckinRow``, a ``CheckoutRow`` or a dict."""

    __slots__ = ("t", "kind", "data")

    def __init__(self, t: int, kind: str, data: Any) -> None:
        self.t = t
        self.kind = kind
        self.data = data


# One events.ndjson line: the fields in sorted key order.
_EVENT_ROW = '{"data":%s,"kind":%s,"seq":%d,"t":%d}\n'

# The lines of check-ins and checkouts, most of the log: the data of a
# CheckinRow or a CheckoutRow spelled out field by field, ints formatted
# directly and strings through quote.  Any other data takes _EVENT_ROW.
_CHECKIN_ROW = (
    '{"data":{"counter":%d,"day":%d,"inner_ref":%s,"master_source":%s,"mode":%s,'
    '"outer_key":%s,"record_id":%s,"scanner_id":%s,"trace_id":%s,"user_id":%s,'
    '"venue_id":%s},"kind":%s,"seq":%d,"t":%d}\n'
)
_CHECKOUT_ROW = '{"data":{"record_id":%s,"user_id":%s,"venue_id":%s},"kind":%s,"seq":%d,"t":%d}\n'


class Visit(NamedTuple):
    """One check-in of a user at a venue, as ground truth knows it."""

    user_id: str
    venue_id: str
    record_id: str
    checkin_t: int

    @property
    def day(self) -> int:
        return self.checkin_t // DAY_SECONDS


class MitigationConfig(NamedTuple):
    """The protocol mitigations a scenario switches on."""

    pki_enabled: bool = False
    qr_embeds_venue_key: bool = False


def visit_interval(checkin_t: int, checkout_t: Optional[int]) -> tuple[int, int]:
    """Closed-open presence interval, imputing the maximum stay for open visits."""
    return checkin_t, checkout_t if checkout_t is not None else checkin_t + MAX_STAY_S


class TruthView:
    """Oracle lookups over a prefix of the ground-truth log, built in one pass.

    ``checkins`` maps each record id to its check-in event's logged
    ``CheckinRow`` (not a copy), ``contact_keys`` each registered user to their
    contact key, ``windows`` each reporting user to the union of the days
    they consented to trace, and ``consented`` holds the records whose venue
    decryption a consent event covered.
    """

    def __init__(self, events: list[GroundTruthEvent]) -> None:
        self.length = len(events)
        self.checkins: dict[str, CheckinRow] = {}
        self.contact_keys: dict[str, str] = {}
        self.windows: dict[str, set[int]] = {}
        self.consented: set[str] = set()
        for e in events:
            data = e.data
            if e.kind == CHECKIN:
                self.checkins[data.record_id] = data
            elif e.kind == REGISTER_USER:
                self.contact_keys[data["user_id"]] = data["contact_key"]
            elif e.kind == REPORT_POSITIVE:
                self.windows.setdefault(data["user_id"], set()).update(data["days"])
            elif e.kind == TRACE_REQUEST and data.get("subkind") == SUBKIND_VENUE_CONSENT:
                self.consented.update(data["record_ids"])
        self.infected = set(self.windows)
        self.record_user = {rid: c.user_id for rid, c in self.checkins.items()}
        self.record_day = {rid: c.day for rid, c in self.checkins.items()}
        self.inner_refs = {rid: c.inner_ref for rid, c in self.checkins.items()}


class GroundTruthLog:
    """Append-only, totally ordered event log with oracle accessors."""

    def __init__(self) -> None:
        self.events: list[GroundTruthEvent] = []
        self._view: Optional[TruthView] = None

    def record_event(self, kind: str, t: int, data: Any) -> GroundTruthEvent:
        if kind not in EVENT_KINDS:
            raise SimulationError(f"unknown event kind: {kind}")
        if self.events and t < self.events[-1].t:
            raise SimulationError(f"t={t} before t={self.events[-1].t}")
        ev = GroundTruthEvent(t, kind, data)
        self.events.append(ev)
        return ev

    def export_ndjson(self) -> str:
        encode = compact_encoder()
        rows = []
        for seq, e in enumerate(self.events):
            d, kind = e.data, quote(e.kind)
            if type(d) is CheckinRow:
                text = (d.inner_ref, d.master_source, d.mode, d.outer_key, d.record_id)
                text += (d.scanner_id, d.trace_id, d.user_id, d.venue_id)
                row = _CHECKIN_ROW % (d.counter, d.day, *map(quote, text), kind, seq, e.t)
            elif type(d) is CheckoutRow:
                text = (d.record_id, d.user_id, d.venue_id)
                row = _CHECKOUT_ROW % (*map(quote, text), kind, seq, e.t)
            else:
                row = _EVENT_ROW % (encode(d), kind, seq, e.t)
            rows.append(row)
        return "".join(rows)

    # -- oracle accessors -------------------------------------------------

    def view(self) -> TruthView:
        """Lookups over the events logged so far, rebuilt only after an append."""
        if self._view is None or self._view.length != len(self.events):
            self._view = TruthView(self.events)
        return self._view

    def contact_of(self, user_id: str) -> dict[str, str]:
        for e in self.events:
            if e.kind == REGISTER_USER and e.data["user_id"] == user_id:
                return dict(e.data["contact"])
        raise SimulationError(f"unknown user {user_id}")

    def true_visits(self, user_id: str) -> list[Visit]:
        """Chronological true visit history of one user."""
        if user_id not in self.view().contact_keys:
            raise SimulationError(f"unknown user {user_id}")
        visits = [v for v in self.all_visits() if v.user_id == user_id]
        return sorted(visits, key=lambda v: (v.checkin_t, v.record_id))

    def all_visits(self) -> list[Visit]:
        return [
            Visit(e.data.user_id, e.data.venue_id, e.data.record_id, e.t)
            for e in self.events
            if e.kind == CHECKIN
        ]

    def true_group_pairs(self) -> set[frozenset[str]]:
        return pairs_of(e.data["record_ids"] for e in self.events if e.kind == GROUP_ARRIVAL)


# -- server-side records ---------------------------------------------------


class UserRecord(NamedTuple):
    """A registered user as the server stores it, under their user id."""

    encrypted_contact: bytes
    phone_validated: bool = True


class VenueRecord(NamedTuple):
    """A registered venue as the server stores it, under its venue id; its
    scanners are the server's ``scanner_to_venue`` entries naming that id."""

    name: str
    owner_contact: str
    lat: float
    lon: float
    venue_type: str
    public_key: PublicKey


class CheckInRecord:
    """A stored check-in: the encrypted user reference and its times.

    It keeps its record id, since records travel in lists away from the
    ``checkins`` key; its trace id (its pseudonym) is the server's
    ``by_trace`` key that maps to the record id."""

    __slots__ = ("record_id", "scanner_id", "double_enc_ref", "checkin_time", "checkout_time")

    def __init__(
        self,
        record_id: str,
        scanner_id: str,
        double_enc_ref: bytes,
        checkin_time: int,
        checkout_time: Optional[int] = None,
    ) -> None:
        self.record_id = record_id
        self.scanner_id = scanner_id
        self.double_enc_ref = double_enc_ref
        self.checkin_time = checkin_time
        self.checkout_time = checkout_time

    def set_checkout(self, t: int) -> None:
        if self.checkout_time is not None:
            raise SimulationError("checkout already recorded")
        if t <= self.checkin_time:
            raise SimulationError("checkout must come after check-in")
        self.checkout_time = t


class HealthDeptRecord(NamedTuple):
    """A registered health department as the server stores it, under its HD id."""

    enc_public: PublicKey
    sign_public: PublicKey
    enc_cert: Optional["Certificate"] = None
    sign_cert: Optional["Certificate"] = None


# -- certificates ------------------------------------------------------------


class Certificate(NamedTuple):
    """A CA signature binding a public key to its role."""

    subject_public: PublicKey
    subject_role: str
    signature: bytes


def _cert_message(subject_pk: PublicKey, role: str) -> bytes:
    return b"cert:" + role.encode("ascii") + b":" + subject_pk.data


class CertificateAuthority:
    """Trusted third party; the backend server never holds its private key."""

    def __init__(self, keypair: AsymKeyPair) -> None:
        if keypair.role != "ca":
            raise SimulationError("CA keypair must have role 'ca'")
        self._keypair = keypair
        self.root_public = keypair.public

    def issue(self, subject_pk: PublicKey, role: str) -> Certificate:
        sig = crypto.sign(self._keypair.private, _cert_message(subject_pk, role))
        return Certificate(subject_public=subject_pk, subject_role=role, signature=sig)


def certifies(root_pk: PublicKey, cert: Optional[Certificate], subject: PublicKey) -> bool:
    """True iff ``cert`` is a certificate of ``subject`` that the CA of
    ``root_pk`` signed: a missing certificate, or a genuine one of another
    key, certifies nothing."""
    return (
        cert is not None
        and cert.subject_public == subject
        and crypto.verify(root_pk, _cert_message(subject, cert.subject_role), cert.signature)
    )
