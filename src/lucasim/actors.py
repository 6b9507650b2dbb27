"""Protocol actors and end-to-end flows of the Luca presence-tracing design.

Covers registration of users, venues and health departments, the daily
master-key rotation, scanner and self check-in, check-out, positive
reporting, and the full tracing pipeline.  Every message crosses the
:class:`~lucasim.netsim.Transport` so transcripts and server observations
are complete.

Behaviour the backend server can manipulate when adversarial (key
substitutions, injected rotation keys, compromised frontend code) is
expressed through :class:`BackendHooks`; with empty hooks every actor is
honest.
"""

from __future__ import annotations

import bisect
import json
from itertools import accumulate
from json.encoder import encode_basestring_ascii as quote
from random import Random
from typing import Any, Callable, NamedTuple, Optional

from . import crypto
from .crypto import AsymKeyPair, PrivateKey, PublicKey
from .model import (
    CHECKIN,
    CHECKOUT,
    DAY_SECONDS,
    MAX_CHECKINS_PER_DAY,
    MAX_STAY_S,
    REGISTER_USER,
    REGISTER_VENUE,
    REPORT_POSITIVE,
    SUBKIND_VENUE_CONSENT,
    TRACE_REQUEST,
    Certificate,
    CertificateAuthority,
    CheckInRecord,
    GroundTruthLog,
    HealthDeptRecord,
    MitigationConfig,
    SimulationError,
    UserRecord,
    VenueRecord,
    verify_certificate,
    visit_interval,
)
from .netsim import (
    MSG_CHECKIN_POLL,
    MSG_CHECKOUT,
    MSG_OTHER,
    MSG_POSITIVE_UPLOAD,
    CarrierNetwork,
    NetworkIdentity,
    Payload,
    StaticIdentity,
    Transport,
)


# Key-source tags recorded in ground truth per check-in / upload.
SRC_HONEST = "honest"
SRC_SUBSTITUTED = "substituted"
SRC_SCANNER_OVERRIDE = "scanner-override"
OUTER_VENUE = "venue"
OUTER_SUBSTITUTED = "substituted"

# The payloads of the most frequent messages, rendered as the transport's
# compact, key-sorted JSON: keys spelled out in sorted order, ``.hex()``
# values raw between quotes (hex digits need no escaping), other strings
# through quote, and %d only for a day or a time, ints by construction.
_FETCH_MASTER_KEY = '{"action":"fetch_master_key","day":%d}'
_MASTER_KEY = '{"day":%d,"public":"%s","signature":"%s"}'
_SCAN_HANDSHAKE = '{"day":%d}'
_QR_PAYLOAD = '{"ref":"%s","trace_id":"%s"}'
_UPLOAD_CHECKIN = (
    '{"action":"upload_checkin","checkin_time":%d,"ref":"%s","scanner_id":%s,"trace_id":"%s"}'
)
_CHECKIN_POLL = '{"trace_id":"%s"}'
_CONFIRMED = '{"confirmed":true}'
_CHECKOUT = '{"departure_time":%d,"trace_id":"%s"}'
_FETCH_CONTACT = '{"action":"fetch_contact","user_id":%s}'
_CONTACT = '{"encrypted_contact":"%s","user_id":%s}'


class GuestApp:
    """A guest's app: its contact data, keys, network identity and daily tracing seeds."""

    __slots__ = (
        "index", "contact", "contact_key", "identity", "user_id", "seeds", "counters", "open_checkin"
    )

    def __init__(
        self, index: int, contact: dict[str, str], contact_key: bytes, identity: NetworkIdentity
    ) -> None:
        self.index = index
        self.contact = contact
        self.contact_key = contact_key
        self.identity = identity
        self.user_id: Optional[str] = None
        self.seeds: dict[int, bytes] = {}
        self.counters: dict[int, int] = {}
        self.open_checkin: Optional[dict[str, Any]] = None

    @property
    def label(self) -> str:
        return f"guest#{self.index}"

    def seed_for(self, day: int, rng: Random) -> bytes:
        """The day's 32-byte tracing seed secret, drawn from ``rng`` on first use."""
        if day not in self.seeds:
            self.seeds[day] = rng.randbytes(32)
        return self.seeds[day]

    def next_counter(self, day: int) -> int:
        c = self.counters.get(day, 0)
        self.counters[day] = c + 1
        return c


class VenueActor(NamedTuple):
    """A venue owner's frontend: its keypair, scanners and network identity."""

    index: int  # shadows tuple.index, which nothing calls
    venue_id: str
    keypair: AsymKeyPair
    scanner_ids: list[str]
    self_scanner_id: str
    frontend: StaticIdentity
    unavailable: bool = False

    @property
    def label(self) -> str:
        return f"venue#{self.index}"


class HealthDept(NamedTuple):
    """A health department's frontend: its key pairs, the certificate of its
    signing key that its master keys carry, and its master keys.  The
    certificate of its encryption key is the server's ``hds[hd_id].enc_cert``,
    which is the copy rotation reads."""

    index: int  # shadows tuple.index, which nothing calls
    hd_id: str
    enc_pair: AsymKeyPair
    sign_pair: AsymKeyPair
    identity: StaticIdentity
    sign_cert: Optional[Certificate]
    master_sks: dict[int, PrivateKey]

    @property
    def label(self) -> str:
        return f"hd#{self.index}"


class MasterKeyInfo(NamedTuple):
    """A day's master public key on the server, signed, with the HDs' encrypted
    copies; filed under its day in ``master_keys`` (or ``master_override``)."""

    public: PublicKey
    signature: bytes
    signer_public: PublicKey
    signer_cert: Optional[Certificate]
    copies: dict[str, bytes]


class UploadRecord(NamedTuple):
    """A positive guest's encrypted upload, stored under its verification code:
    the day of the master key it is sealed to and the position of its upload
    message in ``Transport.observations``."""

    ciphertext: bytes
    day: int
    obs_seq: int


class TraceServerView(NamedTuple):
    """What the backend server learns while mediating one trace; the venue
    windows and contacts fill in as the trace goes on."""

    code: str
    index_user_id: str
    seed_days: list[int]
    matched_record_ids: list[str]
    venue_windows: dict[str, list[str]]
    contact_user_ids: list[str]


class BackendHooks:
    """Adversarial deviations of the backend server; empty means honest."""

    __slots__ = (
        "master_override",
        "venue_pk_override",
        "scanner_master_override",
        "rotation_extra_keys",
        "trace_padding",
        "keygen_override",
        "keygen_observers",
        "key_use_observers",
        "hd_skip_cert_checks",
    )

    def __init__(self) -> None:
        self.master_override: dict[int, MasterKeyInfo] = {}
        self.venue_pk_override: dict[str, PublicKey] = {}
        self.scanner_master_override: dict[str, PublicKey] = {}
        self.rotation_extra_keys: list[tuple[str, PublicKey, Optional[Certificate]]] = []
        self.trace_padding: Optional[Callable[[str, list[str], BackendServer], list[str]]] = None
        # Modified venue and HD frontend code, keyed by owner id (``v000``,
        # ``hd000``): a replacement key generator, and observers of the private
        # key when it is generated and when it is used.
        self.keygen_override: dict[str, Callable[[], AsymKeyPair]] = {}
        self.keygen_observers: dict[str, Callable[[AsymKeyPair], None]] = {}
        self.key_use_observers: dict[str, Callable[[AsymKeyPair], None]] = {}
        # HD frontends whose served code skips certificate validation.
        self.hd_skip_cert_checks: set[str] = set()


def _time_order(rec: CheckInRecord) -> tuple[int, str]:
    return rec.checkin_time, rec.record_id


def _checkin_time(rec: CheckInRecord) -> int:
    return rec.checkin_time


class BackendServer:
    """Central database and mediator; observes everything it relays."""

    def __init__(self) -> None:
        self.users: dict[str, UserRecord] = {}
        self.venues: dict[str, VenueRecord] = {}
        self.scanner_to_venue: dict[str, str] = {}
        self.hds: dict[str, HealthDeptRecord] = {}
        self.checkins: dict[str, CheckInRecord] = {}
        self.by_trace: dict[bytes, str] = {}
        # Records per venue, ordered by (checkin_time, record_id), and the
        # longest closed visit (checkout minus check-in) at each venue.
        self._by_venue: dict[str, list[CheckInRecord]] = {}
        self._max_span: dict[str, int] = {}
        self.master_keys: dict[int, MasterKeyInfo] = {}
        self.uploads: dict[str, UploadRecord] = {}
        self.singly_refs: dict[str, bytes] = {}
        # The HD fetches in the order they came, a row's position its sequence number.
        self.request_log: list[dict[str, Any]] = []
        self.trace_views: list[TraceServerView] = []
        self.hooks = BackendHooks()

    def store_checkin(self, scanner_id: str, trace_id: bytes, ref: bytes, t: int) -> CheckInRecord:
        if scanner_id not in self.scanner_to_venue:
            raise SimulationError(f"unknown scanner {scanner_id}")
        if trace_id in self.by_trace:
            raise SimulationError("trace id collision in server index")
        rec = CheckInRecord(
            record_id=f"r{len(self.checkins):06d}",
            scanner_id=scanner_id,
            double_enc_ref=ref,
            checkin_time=t,
        )
        self.checkins[rec.record_id] = rec
        self.by_trace[trace_id] = rec.record_id
        at_venue = self._by_venue.setdefault(self.scanner_to_venue[scanner_id], [])
        if at_venue and _time_order(rec) < _time_order(at_venue[-1]):
            bisect.insort(at_venue, rec, key=_time_order)
        else:
            at_venue.append(rec)
        return rec

    def record_checkout(self, record: CheckInRecord, t: int) -> None:
        record.set_checkout(t)
        venue_id = self.scanner_to_venue[record.scanner_id]
        span = t - record.checkin_time
        if span > self._max_span.get(venue_id, 0):
            self._max_span[venue_id] = span

    def max_visit_span(self, venue_id: str) -> int:
        """Longest checkout minus check-in of the venue's closed visits (0 if none)."""
        return self._max_span.get(venue_id, 0)

    def records_at_venue(
        self, venue_id: str, checkin_from: Optional[int] = None, checkin_before: Optional[int] = None
    ) -> list[CheckInRecord]:
        """A new list of the venue's records in (checkin_time, record_id) order,
        optionally only those checking in at or after ``checkin_from`` and
        before ``checkin_before``."""
        at_venue = self._by_venue.get(venue_id, [])
        lo = 0 if checkin_from is None else bisect.bisect_left(at_venue, checkin_from, key=_checkin_time)
        hi = (
            len(at_venue)
            if checkin_before is None
            else bisect.bisect_left(at_venue, checkin_before, lo, key=_checkin_time)
        )
        return at_venue[lo:hi]

    def records_for_seeds(self, seeds: dict[str, str]) -> list[str]:
        """Ids of the stored records whose trace id one of an upload's seeds
        (``{day: secret hex}``) derives, seed by seed in counter order."""
        found = []
        for secret in seeds.values():
            trace_ids = crypto.candidate_trace_ids(bytes.fromhex(secret), MAX_CHECKINS_PER_DAY - 1)
            found.extend(rid for rid in map(self.by_trace.get, trace_ids) if rid is not None)
        return found


class World:
    """Wiring for one simulation run: actors, network, logs, mitigations."""

    def __init__(
        self,
        *,
        net: CarrierNetwork,
        transport: Transport,
        truth: GroundTruthLog,
        mitigations: MitigationConfig,
        rng_crypto: Random,
        rng_server: Random,
        rng_guest: Random,
        ca: Optional[CertificateAuthority] = None,
    ) -> None:
        self.net = net
        self.transport = transport
        self.truth = truth
        self.mitigations = mitigations
        self.rng_crypto = rng_crypto
        self.rng_server = rng_server
        self.rng_guest = rng_guest
        self.server = BackendServer()
        self.ca = ca
        self.ca_root = ca.root_public if ca else None
        self.guests: list[GuestApp] = []
        self.venues: list[VenueActor] = []
        self.venues_by_id: dict[str, VenueActor] = {}
        self.hds: list[HealthDept] = []
        self.scanner_identities: dict[str, StaticIdentity] = {}
        self._static_serial = 0

    def new_static_identity(self, device_type: str) -> StaticIdentity:
        self._static_serial += 1
        hi, lo = divmod(self._static_serial, 256)
        return StaticIdentity(address=f"203.0.{113 + hi}.{lo}", device_type=device_type)

    def new_guest(self, contact: dict[str, str]) -> GuestApp:
        guest = GuestApp(
            index=len(self.guests),
            contact=contact,
            contact_key=self.rng_guest.randbytes(crypto.CONTACT_KEY_LEN),
            identity=self.net.assign_identity(),
        )
        self.guests.append(guest)
        return guest

    def venue_of_scanner(self, scanner_id: str) -> VenueActor:
        venue_id = self.server.scanner_to_venue.get(scanner_id)
        if venue_id is None:
            raise SimulationError(f"unknown scanner {scanner_id}")
        return self.venue_by_id(venue_id)

    def venue_by_id(self, venue_id: str) -> VenueActor:
        venue = self.venues_by_id.get(venue_id)
        if venue is None:
            raise SimulationError(f"unknown venue {venue_id}")
        return venue


def venue_id_for(index: int) -> str:
    """The id of the venue registered ``index``-th."""
    return f"v{index:03d}"


def scanner_id_for(venue_index: int, scanner: int) -> str:
    """The id of scanner ``scanner`` of the venue registered ``venue_index``-th."""
    return f"{venue_id_for(venue_index)}:s{scanner}"


def hd_id_for(index: int) -> str:
    """The id of the health department registered ``index``-th."""
    return f"hd{index:03d}"


def master_sign_message(day: int, pk: PublicKey) -> bytes:
    return b"daily-master:" + day.to_bytes(4, "big") + b":" + pk.data


# -- registration flows ------------------------------------------------------


def flow_register_user(world: World, guest: GuestApp, t: int = 0) -> str:
    """Register a guest: encrypted contact record goes up, a user_id comes back."""
    if guest.user_id is not None:
        raise SimulationError(f"{guest.label} is already registered")
    enc_contact = crypto.sym_encrypt(
        guest.contact_key,
        json.dumps(guest.contact, sort_keys=True).encode(),
        world.rng_crypto,
    )
    world.transport.to_server(
        guest.identity,
        guest.label,
        MSG_OTHER,
        {"action": "register_user", "encrypted_contact": enc_contact.hex()},
        t,
    )
    user_id = world.rng_server.randbytes(16).hex()
    world.server.users[user_id] = UserRecord(encrypted_contact=enc_contact, phone_validated=True)
    world.transport.from_server(guest.label, {"user_id": user_id}, t)
    guest.user_id = user_id
    world.truth.record_event(
        REGISTER_USER,
        t,
        {
            "user_id": user_id,
            "guest_index": guest.index,
            "contact": guest.contact,
            "contact_key": guest.contact_key.hex(),
        },
    )
    return user_id


def _frontend_keypair(world: World, owner_id: str, role: str) -> AsymKeyPair:
    """Key generation in frontend code, which the server serves and may modify."""
    hooks = world.server.hooks
    keygen_override = hooks.keygen_override.get(owner_id)
    keypair = keygen_override() if keygen_override else crypto.gen_keypair(role, world.rng_crypto)
    observer = hooks.keygen_observers.get(owner_id)
    if observer:
        observer(keypair)
    return keypair


def flow_register_venue(world: World, info: dict[str, Any], t: int = 0) -> VenueActor:
    """Venue frontend generates its keypair locally; only the public half leaves."""
    index = len(world.venues)
    venue_id = venue_id_for(index)
    keypair = _frontend_keypair(world, venue_id, "venue")
    scanner_ids = [scanner_id_for(index, j) for j in range(info.get("scanners", 1))]
    self_scanner_id = f"{venue_id}:self"
    venue = VenueActor(
        index=index,
        venue_id=venue_id,
        keypair=keypair,
        scanner_ids=scanner_ids,
        self_scanner_id=self_scanner_id,
        frontend=world.new_static_identity("venue-frontend"),
        unavailable=info.get("unavailable", False),
    )
    world.transport.to_server(
        venue.frontend,
        venue.label,
        MSG_OTHER,
        {
            "action": "register_venue",
            "name": info["name"],
            "owner_contact": info["owner_contact"],
            "lat": info["lat"],
            "lon": info["lon"],
            "venue_type": info["venue_type"],
            "public_key": keypair.public.data.hex(),
            "scanners": len(scanner_ids),
        },
        t,
    )
    world.server.venues[venue_id] = VenueRecord(
        name=info["name"],
        owner_contact=info["owner_contact"],
        lat=info["lat"],
        lon=info["lon"],
        venue_type=info["venue_type"],
        public_key=keypair.public,
    )
    for sid in scanner_ids + [self_scanner_id]:
        world.server.scanner_to_venue[sid] = venue_id
        world.scanner_identities[sid] = world.new_static_identity("scanner-frontend")
    world.venues.append(venue)
    world.venues_by_id[venue_id] = venue
    world.truth.record_event(
        REGISTER_VENUE,
        t,
        {"venue_id": venue_id, "venue_type": info["venue_type"], "lat": info["lat"], "lon": info["lon"]},
    )
    return venue


def flow_register_health_dept(world: World, t: int = 0) -> HealthDept:
    index = len(world.hds)
    hd_id = hd_id_for(index)
    enc_pair = _frontend_keypair(world, hd_id, "health-dept-enc")
    sign_pair = crypto.gen_keypair("health-dept-sign", world.rng_crypto)
    enc_cert = sign_cert = None
    if world.mitigations.pki_enabled:
        if world.ca is None:
            raise SimulationError("pki enabled but no certificate authority")
        enc_cert = world.ca.issue(enc_pair.public, "health-dept-enc")
        sign_cert = world.ca.issue(sign_pair.public, "health-dept-sign")
    hd = HealthDept(
        index=index,
        hd_id=hd_id,
        enc_pair=enc_pair,
        sign_pair=sign_pair,
        identity=world.new_static_identity("hd-frontend"),
        sign_cert=sign_cert,
        master_sks={},
    )
    world.transport.to_server(
        hd.identity,
        hd.label,
        MSG_OTHER,
        {
            "action": "register_health_dept",
            "enc_public": enc_pair.public.data.hex(),
            "sign_public": sign_pair.public.data.hex(),
            "certified": enc_cert is not None,
        },
        t,
    )
    world.server.hds[hd_id] = HealthDeptRecord(
        enc_public=enc_pair.public,
        sign_public=sign_pair.public,
        enc_cert=enc_cert,
        sign_cert=sign_cert,
    )
    world.hds.append(hd)
    return hd


# -- daily master key rotation ------------------------------------------------


def flow_rotate_daily_master_key(world: World, hd: HealthDept, day: int, t: int) -> AsymKeyPair:
    """First HD of the day mints the shared master key and fans it out encrypted."""
    server = world.server
    if day in server.master_keys:
        raise SimulationError(f"day {day} already has a master key")
    pair = crypto.gen_keypair("daily-master", world.rng_crypto)
    hd.master_sks[day] = pair.private
    sig = crypto.sign(hd.sign_pair.private, master_sign_message(day, pair.public))
    world.transport.to_server(
        hd.identity,
        hd.label,
        MSG_OTHER,
        {
            "action": "upload_master_key",
            "day": day,
            "public": pair.public.data.hex(),
            "signature": sig.hex(),
        },
        t,
    )
    info = MasterKeyInfo(
        public=pair.public,
        signature=sig,
        signer_public=hd.sign_pair.public,
        signer_cert=hd.sign_cert,
        copies={},
    )

    # Fetch the other HDs' public encryption keys from the server; the server
    # controls this list and may have appended keys of its own.
    peer_list: list[tuple[str, PublicKey, Optional[Certificate]]] = [
        (hd_id, rec.enc_public, rec.enc_cert)
        for hd_id, rec in server.hds.items()
        if hd_id != hd.hd_id
    ]
    peer_list.extend(server.hooks.rotation_extra_keys)
    world.transport.from_server(hd.label, {"action": "hd_key_list", "count": len(peer_list)}, t)
    skip_checks = hd.hd_id in server.hooks.hd_skip_cert_checks
    for peer_id, peer_pk, peer_cert in peer_list:
        if world.mitigations.pki_enabled and not skip_checks:
            if peer_cert is None or not verify_certificate(world.ca_root, peer_cert):
                continue
            if peer_cert.subject_public != peer_pk:
                continue
        ct = crypto.encrypt(peer_pk, pair.private.data, world.rng_crypto)
        info.copies[peer_id] = ct
    world.transport.to_server(
        hd.identity,
        hd.label,
        MSG_OTHER,
        {
            "action": "upload_master_copies",
            "day": day,
            "copies": {pid: c.hex() for pid, c in sorted(info.copies.items())},
        },
        t,
    )
    server.master_keys[day] = info
    return pair


def fetch_master_pk(
    world: World,
    day: int,
    identity: NetworkIdentity | StaticIdentity,
    sender: str,
    t: int,
) -> tuple[PublicKey, str]:
    """Client-side fetch + verification of the daily master public key.

    Honest clients check the signature, and under PKI also the signer's
    certificate; a bundle that fails verification is rejected and re-fetched
    with the strict flag, upon which the server serves the honest key (a
    substituting adversary backs off rather than be detected).
    """
    server = world.server
    if day not in server.master_keys:
        raise SimulationError(f"no master key for day {day}")
    world.transport.to_server(identity, sender, MSG_OTHER, _FETCH_MASTER_KEY % day, t)
    override = server.hooks.master_override.get(day)
    info = server.master_keys[day] if override is None else override
    public, signature = info.public, info.signature
    world.transport.from_server(sender, _MASTER_KEY % (day, public.data.hex(), signature.hex()), t)
    ok = crypto.verify(info.signer_public, master_sign_message(day, public), signature)
    if ok and world.mitigations.pki_enabled:
        ok = info.signer_cert is not None and verify_certificate(world.ca_root, info.signer_cert)
    if ok:
        return public, SRC_HONEST if override is None else SRC_SUBSTITUTED
    # Verification failed: re-request, server yields the honest bundle.
    world.transport.to_server(
        identity, sender, MSG_OTHER, {"action": "fetch_master_key", "day": day, "strict": True}, t
    )
    honest = world.server.master_keys[day]
    world.transport.from_server(sender, {"day": day, "public": honest.public.data.hex()}, t)
    return honest.public, SRC_HONEST


# -- check-in / check-out ------------------------------------------------------


def flow_checkin_scanner(world: World, guest: GuestApp, scanner_id: str, t: int) -> CheckInRecord:
    """Scanner check-in: the guest shows a QR, the scanner wraps and uploads."""
    return _checkin(world, guest, world.venue_of_scanner(scanner_id), scanner_id, t)


def flow_checkin_self(world: World, guest: GuestApp, venue: VenueActor, t: int) -> CheckInRecord:
    """Self check-in: the guest applies both encryption layers and uploads."""
    return _checkin(world, guest, venue, None, t)


def _self_checkin_venue_pk(
    world: World, guest: GuestApp, venue: VenueActor, t: int
) -> tuple[PublicKey, str]:
    """The venue key a self check-in wraps the reference under, and whose key it is."""
    if world.mitigations.qr_embeds_venue_key:
        # The printed QR carries the venue key; nothing to fetch, nothing to swap.
        world.transport.local(
            venue.label, guest.label, "qr_poster", {"venue_id": venue.venue_id}, t
        )
        return venue.keypair.public, OUTER_VENUE
    world.transport.to_server(
        guest.identity,
        guest.label,
        MSG_OTHER,
        {"action": "fetch_venue_key", "venue_id": venue.venue_id},
        t,
    )
    venue_pk = world.server.hooks.venue_pk_override.get(venue.venue_id)
    outer_key = OUTER_VENUE if venue_pk is None else OUTER_SUBSTITUTED
    if venue_pk is None:
        venue_pk = world.server.venues[venue.venue_id].public_key
    world.transport.from_server(
        guest.label, {"venue_id": venue.venue_id, "public_key": venue_pk.data.hex()}, t
    )
    return venue_pk, outer_key


def _checkin(
    world: World, guest: GuestApp, venue: VenueActor, scanner_id: Optional[str], t: int
) -> CheckInRecord:
    """One check-in: seal the guest's reference under the day's master key,
    wrap it under a venue key, upload it, confirm it by polling and record
    the truth.  With ``scanner_id`` the venue's scanner fetches the master
    key, wraps and uploads; without one the guest's app does (self check-in)."""
    if guest.user_id is None:
        raise SimulationError("guest not registered")
    # A forgotten checkout is dropped app-side; the server record stays open.
    guest.open_checkin = None
    day = t // DAY_SECONDS
    seed = guest.seed_for(day, world.rng_guest)
    counter = guest.next_counter(day)
    trace_id = crypto.derive_trace_id(seed, counter)
    trace_hex = trace_id.hex()
    if scanner_id is None:
        mode, scanner_id = "self", venue.self_scanner_id
        uploader, uploader_label = guest.identity, guest.label
    else:
        mode, uploader = "scanner", world.scanner_identities[scanner_id]
        uploader_label = f"scanner:{scanner_id}"
    master_pk, master_source = fetch_master_pk(world, day, uploader, uploader_label, t)
    if mode == "self":
        venue_pk, outer_key = _self_checkin_venue_pk(world, guest, venue, t)
    else:
        override = world.server.hooks.scanner_master_override.get(scanner_id)
        if override is not None:
            # Compromised scanner code: silently hands the guest another key.
            master_pk, master_source = override, SRC_SCANNER_OVERRIDE
        # Scan handshake: the scanner presents the day key it fetched, the
        # guest answers with its QR payload.
        world.transport.local(
            uploader_label, guest.label, "scan_handshake", _SCAN_HANDSHAKE % day, t
        )
        venue_pk, outer_key = venue.keypair.public, OUTER_VENUE
    inner = crypto.seal_user_reference(master_pk, guest.user_id, guest.contact_key, world.rng_crypto)
    inner_hex = inner.hex()
    if mode == "scanner":
        world.transport.local(
            guest.label, uploader_label, "qr_payload", _QR_PAYLOAD % (inner_hex, trace_hex), t
        )
    outer = crypto.encrypt(venue_pk, inner, world.rng_crypto)
    world.transport.to_server(
        uploader,
        uploader_label,
        MSG_OTHER,
        _UPLOAD_CHECKIN % (t, outer.hex(), quote(scanner_id), trace_hex),
        t,
        trace_id=trace_hex,
    )
    record = world.server.store_checkin(scanner_id, trace_id, outer, t)
    world.transport.to_server(
        guest.identity,
        guest.label,
        MSG_CHECKIN_POLL,
        _CHECKIN_POLL % trace_hex,
        t,
        trace_id=trace_hex,
    )
    if world.server.by_trace.get(trace_id) != record.record_id:
        raise SimulationError(f"check-in {record.record_id} not confirmed")
    world.transport.from_server(guest.label, _CONFIRMED, t)
    guest.open_checkin = {
        "trace_id": trace_id,
        "trace_hex": trace_hex,
        "record_id": record.record_id,
        "venue_id": venue.venue_id,
    }
    world.truth.record_event(
        CHECKIN,
        t,
        {
            "user_id": guest.user_id,
            "venue_id": venue.venue_id,
            "scanner_id": scanner_id,
            "record_id": record.record_id,
            "trace_id": trace_hex,
            "day": day,
            "counter": counter,
            "mode": mode,
            "inner_ref": inner_hex,
            "master_source": master_source,
            "outer_key": outer_key,
        },
    )
    return record


def flow_checkout(world: World, guest: GuestApp, t: int) -> None:
    if guest.open_checkin is None:
        raise SimulationError(f"{guest.label} has no open check-in")
    open_ci = guest.open_checkin
    trace_id: bytes = open_ci["trace_id"]
    trace_hex: str = open_ci["trace_hex"]
    world.transport.to_server(
        guest.identity,
        guest.label,
        MSG_CHECKOUT,
        _CHECKOUT % (t, trace_hex),
        t,
        trace_id=trace_hex,
    )
    record = world.server.checkins[world.server.by_trace[trace_id]]
    world.server.record_checkout(record, t)
    world.truth.record_event(
        CHECKOUT,
        t,
        {
            "user_id": guest.user_id,
            "record_id": record.record_id,
            "venue_id": open_ci["venue_id"],
        },
    )
    guest.open_checkin = None


# -- positive report and tracing ------------------------------------------------


def flow_report_positive(world: World, guest: GuestApp, days: list[int], t: int) -> str:
    """Upload (user_id, seeds for the window) under the current master key."""
    day = t // DAY_SECONDS
    master_pk, master_source = fetch_master_pk(world, day, guest.identity, guest.label, t)
    seeds = {d: guest.seed_for(d, world.rng_guest) for d in sorted(days)}
    payload = json.dumps(
        {
            "user_id": guest.user_id,
            "seeds": {str(d): s.hex() for d, s in seeds.items()},
        },
        sort_keys=True,
    ).encode()
    ciphertext = crypto.encrypt(master_pk, payload, world.rng_crypto)
    obs_seq = len(world.transport.observations)
    world.transport.to_server(
        guest.identity,
        guest.label,
        MSG_POSITIVE_UPLOAD,
        {"action": "report_positive", "ciphertext": ciphertext.hex()},
        t,
    )
    server = world.server
    code = crypto.gen_verification_code(world.rng_server)
    while code in server.uploads:
        code = crypto.gen_verification_code(world.rng_server)
    server.uploads[code] = UploadRecord(ciphertext=ciphertext, day=day, obs_seq=obs_seq)
    world.transport.from_server(guest.label, {"verification_code": code}, t)
    world.truth.record_event(
        REPORT_POSITIVE,
        t,
        {
            "user_id": guest.user_id,
            "days": sorted(days),
            "code": code,
            "seeds": {str(d): s.hex() for d, s in seeds.items()},
            "master_source": master_source,
        },
    )
    return code


def _hd_request(
    world: World, hd: HealthDept, action: str, param: str, request: Payload, reply: Payload, t: int
) -> None:
    """One HD fetch: the server logs ``action`` with ``param``, the HD sends
    ``request`` and gets ``reply`` back."""
    world.server.request_log.append({"t": t, "kind": action, "hd_id": hd.hd_id, "param": param})
    world.transport.to_server(hd.identity, hd.label, MSG_OTHER, request, t)
    world.transport.from_server(hd.label, reply, t)


def _fetch_contact(world: World, hd: HealthDept, user_id: str, t: int) -> bytes:
    """The HD's fetch of a user's encrypted contact record, the most frequent
    HD request, through its fixed payload rows; returns the record."""
    encrypted = world.server.users[user_id].encrypted_contact
    quoted = quote(user_id)
    request, reply = _FETCH_CONTACT % quoted, _CONTACT % (encrypted.hex(), quoted)
    _hd_request(world, hd, "fetch_contact", user_id, request, reply, t)
    return encrypted


def hd_get_master_sk(world: World, hd: HealthDept, day: int, t: int) -> PrivateKey:
    """HD recovers the daily master private key via its encrypted copy."""
    if day in hd.master_sks:
        return hd.master_sks[day]
    server = world.server
    if day not in server.master_keys:
        raise SimulationError(f"no master key for day {day}")
    ct = server.master_keys[day].copies.get(hd.hd_id)
    if ct is None:
        raise SimulationError(f"{hd.hd_id} has no encrypted master copy for day {day}")
    request = {"action": "fetch_master_copy", "day": day}
    reply = {"day": day, "ciphertext": ct.hex()}
    _hd_request(world, hd, "fetch_master_copy", str(day), request, reply, t)
    observer = server.hooks.key_use_observers.get(hd.hd_id)
    if observer:
        observer(hd.enc_pair)
    sk = PrivateKey("daily-master", crypto.decrypt(hd.enc_pair.private, ct))
    hd.master_sks[day] = sk
    return sk


def hd_open_references(
    world: World, hd: HealthDept, refs: dict[str, bytes], t: int
) -> dict[str, tuple[str, bytes]]:
    """The HD opens singly-encrypted references, in record-id order, under the
    master key of each record's day; a reference under another key's layer
    is left out."""
    opened = {}
    for rid in sorted(refs):
        day = world.server.checkins[rid].checkin_time // DAY_SECONDS
        try:
            sk = hd_get_master_sk(world, hd, day, t)
            opened[rid] = crypto.open_user_reference(refs[rid], sk)
        except crypto.DecryptionFailure:
            continue
    return opened


def venue_decrypt_records(
    world: World,
    venue: VenueActor,
    record_ids: list[str],
    t: int,
    requester: str = "server",
) -> dict[str, bytes]:
    """Venue removes the outer layer of the given records on request.

    Requests carry no verifiable origin: the venue cannot tell a legitimate
    tracing query from anything else, so it always complies when online.
    """
    if venue.unavailable:
        raise SimulationError(f"venue {venue.venue_id} is offline")
    server = world.server
    world.transport.from_server(
        venue.label,
        {"action": "decrypt_request", "requester": requester, "record_ids": sorted(record_ids)},
        t,
    )
    observer = server.hooks.key_use_observers.get(venue.venue_id)
    if observer:
        observer(venue.keypair)
    out: dict[str, bytes] = {}
    for rid in sorted(record_ids):
        rec = server.checkins[rid]
        try:
            out[rid] = crypto.decrypt(venue.keypair.private, rec.double_enc_ref)
        except crypto.DecryptionFailure:
            continue  # not under this venue's key; the frontend skips it
    # The server keeps everything it is sent, including these responses.
    server.singly_refs.update(out)
    world.transport.to_server(
        venue.frontend,
        venue.label,
        MSG_OTHER,
        {
            "action": "decrypt_response",
            "records": {rid: ref.hex() for rid, ref in sorted(out.items())},
        },
        t,
    )
    return out


class TraceResult(NamedTuple):
    """The outcome of one trace: its status, the matched records and the contacts found."""

    code: str
    status: str
    index_user_id: Optional[str]
    matched_record_ids: list[str]
    contacts: list[dict[str, str]]
    unavailable_venues: list[str]
    dropped_records: list[str]

    @property
    def contact_user_ids(self) -> set[str]:
        return {c["user_id"] for c in self.contacts}


def _overlapping_record_ids(
    server: BackendServer, venue_id: str, index_records: list[CheckInRecord]
) -> list[str]:
    """Ids of the venue's records whose visit overlaps an index visit, in venue order.

    With the index intervals sorted by start and a running maximum of their
    ends, a record overlaps one of them iff some interval starting before the
    record's end ends after its start: intervals ``a`` and ``b`` overlap iff
    ``a.start < b.end`` and ``b.start < a.end``.  Only records that check in
    inside a window can pass: a visit ends at most ``max(MAX_STAY_S, longest
    closed visit at the venue)`` after it checks in, so one that checks in
    earlier than that before the first index start ends too soon, and one
    that checks in at or after the last index end starts too late.
    """
    intervals = sorted(visit_interval(r.checkin_time, r.checkout_time) for r in index_records)
    starts = [start for start, _ in intervals]
    max_ends = list(accumulate((end for _, end in intervals), max))
    lookback = max(MAX_STAY_S, server.max_visit_span(venue_id))
    legit = []
    for r in server.records_at_venue(venue_id, starts[0] - lookback, max_ends[-1]):
        start, end = visit_interval(r.checkin_time, r.checkout_time)
        k = bisect.bisect_left(starts, end)
        if k and max_ends[k - 1] > start:
            legit.append(r.record_id)
    return legit


def flow_trace(world: World, hd: HealthDept, code: str, t: int) -> TraceResult:
    """Full tracing pipeline for one verification code.

    HD decrypts the upload, the server matches trace ids and mediates venue
    decryption, the HD peels the inner layer and fetches contact records.
    """
    server = world.server
    upload = server.uploads.get(code)
    if upload is None:
        raise SimulationError(f"unknown verification code {code}")
    request = {"action": "fetch_upload", "code": code}
    reply = {"code": code, "ciphertext": upload.ciphertext.hex()}
    _hd_request(world, hd, "fetch_upload", code, request, reply, t)
    try:
        master_sk = hd_get_master_sk(world, hd, upload.day, t)
        payload = json.loads(crypto.decrypt(master_sk, upload.ciphertext))
    except crypto.DecryptionFailure:
        return TraceResult(code, "upload_undecryptable", None, [], [], [], [])
    index_user_id = payload["user_id"]
    seeds = payload["seeds"]
    days = sorted(map(int, seeds))

    # HD immediately pulls the index case's encrypted contact record.
    _fetch_contact(world, hd, index_user_id, t + 5)

    # Decrypted identifier and seeds go back to the server for matching.
    world.transport.to_server(
        hd.identity,
        hd.label,
        MSG_OTHER,
        {
            "action": "trace_request",
            "user_id": index_user_id,
            "seeds": seeds,
        },
        t + 10,
    )
    world.truth.record_event(
        TRACE_REQUEST,
        t,
        {"user_id": index_user_id, "days": days, "code": code},
    )
    matched = sorted(
        (server.checkins[rid] for rid in server.records_for_seeds(seeds)),
        key=_time_order,
    )
    matched_ids = [r.record_id for r in matched]
    view = TraceServerView(
        code=code,
        index_user_id=index_user_id,
        seed_days=days,
        matched_record_ids=matched_ids,
        venue_windows={},
        contact_user_ids=[],
    )
    server.trace_views.append(view)

    by_venue: dict[str, list[CheckInRecord]] = {}
    for rec in matched:
        by_venue.setdefault(server.scanner_to_venue[rec.scanner_id], []).append(rec)

    singly: dict[str, bytes] = {}
    unavailable: list[str] = []
    for venue_id in sorted(by_venue):
        legit = _overlapping_record_ids(server, venue_id, by_venue[venue_id])
        view.venue_windows[venue_id] = legit
        request_ids = list(legit)
        if server.hooks.trace_padding is not None:
            extras = server.hooks.trace_padding(venue_id, legit, server)
            request_ids.extend(x for x in extras if x not in request_ids)
        venue = world.venue_by_id(venue_id)
        if venue.unavailable:
            unavailable.append(venue_id)
            continue
        decrypted = venue_decrypt_records(world, venue, request_ids, t + 20, requester=hd.hd_id)
        world.truth.record_event(
            TRACE_REQUEST,
            t,
            {
                "subkind": SUBKIND_VENUE_CONSENT,
                "venue_id": venue_id,
                "record_ids": sorted(legit),
                "code": code,
            },
        )
        singly.update({rid: decrypted[rid] for rid in legit if rid in decrypted})

    world.transport.from_server(
        hd.label,
        {
            "action": "singly_encrypted_records",
            "records": {rid: singly[rid].hex() for rid in sorted(singly)},
        },
        t + 30,
    )
    opened = hd_open_references(world, hd, singly, t + 30)
    contact_keys = dict(opened.values())

    # The index case's own contact record was fetched above; it is no contact.
    contacts: list[dict[str, str]] = []
    offset = 40
    for uid in sorted(contact_keys.keys() - {index_user_id}):
        encrypted = _fetch_contact(world, hd, uid, t + offset)
        offset += 2
        entry = json.loads(crypto.sym_decrypt(contact_keys[uid], encrypted))
        entry["user_id"] = uid
        contacts.append(entry)
    view.contact_user_ids.extend(c["user_id"] for c in contacts)
    return TraceResult(
        code=code,
        status="ok",
        index_user_id=index_user_id,
        matched_record_ids=matched_ids,
        contacts=contacts,
        unavailable_venues=unavailable,
        dropped_records=[rid for rid in sorted(singly) if rid not in opened],
    )
