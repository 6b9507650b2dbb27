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
from dataclasses import dataclass, field
from itertools import accumulate
from random import Random
from typing import Any, Callable, Optional

from . import crypto
from .crypto import (
    AsymKeyPair,
    EncryptedUserReference,
    PrivateKey,
    PublicKey,
    Signature,
    TracingSeed,
)
from .model import (
    CHECKIN,
    CHECKOUT,
    DAY_SECONDS,
    GROUP_ARRIVAL,
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
    TracingPolicy,
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
    SimulationError,
    StaticIdentity,
    Transport,
)


class AlreadyRegistered(Exception):
    pass


class NoMasterKey(Exception):
    pass


class UnconfirmedCheckin(Exception):
    pass


class NoOpenCheckin(Exception):
    pass


class KeyAlreadyExists(Exception):
    pass


class UnknownCode(Exception):
    pass


class VenueUnavailable(Exception):
    pass


# Key-source tags recorded in ground truth per check-in / upload.
SRC_HONEST = "honest"
SRC_SUBSTITUTED = "substituted"
SRC_SCANNER_OVERRIDE = "scanner-override"
OUTER_VENUE = "venue"
OUTER_SUBSTITUTED = "substituted"


@dataclass
class GuestApp:
    index: int
    contact: dict[str, str]
    contact_key: bytes
    identity: NetworkIdentity
    user_id: Optional[str] = None
    seeds: dict[int, TracingSeed] = field(default_factory=dict)
    counters: dict[int, int] = field(default_factory=dict)
    open_checkin: Optional[dict[str, Any]] = None

    @property
    def label(self) -> str:
        return f"guest#{self.index}"

    def seed_for(self, day: int, rng: Random) -> TracingSeed:
        if day not in self.seeds:
            self.seeds[day] = crypto.new_tracing_seed(day, rng)
        return self.seeds[day]

    def next_counter(self, day: int) -> int:
        c = self.counters.get(day, 0)
        self.counters[day] = c + 1
        return c


@dataclass
class VenueActor:
    index: int
    venue_id: str
    name: str
    owner_contact: str
    lat: float
    lon: float
    venue_type: str
    keypair: AsymKeyPair
    scanner_ids: list[str]
    self_scanner_id: str
    frontend: StaticIdentity
    unavailable: bool = False

    @property
    def label(self) -> str:
        return f"venue#{self.index}"


@dataclass
class HealthDept:
    index: int
    hd_id: str
    enc_pair: AsymKeyPair
    sign_pair: AsymKeyPair
    identity: StaticIdentity
    enc_cert: Optional[Certificate] = None
    sign_cert: Optional[Certificate] = None
    master_sks: dict[int, PrivateKey] = field(default_factory=dict)

    @property
    def label(self) -> str:
        return f"hd#{self.index}"


@dataclass
class MasterKeyInfo:
    day: int
    public: PublicKey
    signature: Signature
    signer_public: PublicKey
    signer_cert: Optional[Certificate]
    copies: dict[str, bytes] = field(default_factory=dict)


@dataclass
class UploadRecord:
    code: str
    ciphertext: bytes
    day: int
    obs_seq: int


@dataclass
class TraceServerView:
    """What the backend server learns while mediating one trace."""

    code: str
    index_user_id: str
    seed_days: list[int]
    matched_record_ids: list[str]
    venue_windows: dict[str, list[str]]
    contact_user_ids: list[str] = field(default_factory=list)


@dataclass
class MasterOverride:
    """A substituted daily master key with the adversary's own signature."""

    pair: AsymKeyPair
    signature: Signature
    signer_public: PublicKey


@dataclass
class BackendHooks:
    """Adversarial deviations of the backend server; empty means honest."""

    master_override: dict[int, MasterOverride] = field(default_factory=dict)
    venue_pk_override: dict[str, PublicKey] = field(default_factory=dict)
    scanner_master_override: dict[str, PublicKey] = field(default_factory=dict)
    rotation_extra_keys: list[tuple[str, PublicKey, Optional[Certificate]]] = field(
        default_factory=list
    )
    trace_padding: Optional[Callable[[str, list[str], "BackendServer"], list[str]]] = None
    # Modified venue and HD frontend code, keyed by owner id (``v000``,
    # ``hd000``): a replacement key generator, and observers of the private
    # key when it is generated and when it is used.
    keygen_override: dict[str, Callable[[], AsymKeyPair]] = field(default_factory=dict)
    keygen_observers: dict[str, Callable[[AsymKeyPair], None]] = field(default_factory=dict)
    key_use_observers: dict[str, Callable[[AsymKeyPair], None]] = field(default_factory=dict)
    # HD frontends whose served code skips certificate validation.
    hd_skip_cert_checks: set[str] = field(default_factory=set)


def _time_order(rec: CheckInRecord) -> tuple[int, str]:
    return rec.checkin_time, rec.record_id


class BackendServer:
    """Central database and mediator; observes everything it relays."""

    def __init__(self) -> None:
        self.users: dict[str, UserRecord] = {}
        self.venues: dict[str, VenueRecord] = {}
        self.scanner_to_venue: dict[str, str] = {}
        self.hds: dict[str, HealthDeptRecord] = {}
        self.checkins: dict[str, CheckInRecord] = {}
        self.by_trace: dict[bytes, str] = {}
        # Records per venue, ordered by (checkin_time, record_id).
        self._by_venue: dict[str, list[CheckInRecord]] = {}
        self.master_keys: dict[int, MasterKeyInfo] = {}
        self.uploads: dict[str, UploadRecord] = {}
        self.singly_refs: dict[str, bytes] = {}
        self.request_log: list[dict[str, Any]] = []
        self.trace_views: list[TraceServerView] = []
        self.hooks = BackendHooks()

    def new_record_id(self) -> str:
        return f"r{len(self.checkins):06d}"

    def store_checkin(
        self, scanner_id: str, trace_id: bytes, ref: EncryptedUserReference, t: int
    ) -> CheckInRecord:
        if scanner_id not in self.scanner_to_venue:
            raise SimulationError(f"unknown scanner {scanner_id}")
        if trace_id in self.by_trace:
            raise SimulationError("trace id collision in server index")
        rec = CheckInRecord(
            record_id=self.new_record_id(),
            scanner_id=scanner_id,
            trace_id=trace_id,
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

    def records_at_venue(self, venue_id: str) -> list[CheckInRecord]:
        return list(self._by_venue.get(venue_id, ()))

    def records_for_seed(self, seed: TracingSeed, max_counter: int) -> list[str]:
        """Ids of the stored records whose trace id the seed derives, in counter order."""
        return [
            rid
            for rid in map(self.by_trace.get, crypto.derive_all_trace_ids(seed, max_counter))
            if rid is not None
        ]

    def log_request(self, t: int, kind: str, hd_id: str, param: str) -> None:
        self.request_log.append(
            {"seq": len(self.request_log), "t": t, "kind": kind, "hd_id": hd_id, "param": param}
        )

    def state_snapshot(self) -> dict[str, Any]:
        """JSON-safe dump of everything the server persists (for audits)."""
        return {
            "users": {
                uid: {
                    "encrypted_contact": u.encrypted_contact.hex(),
                    "phone_validated": u.phone_validated,
                }
                for uid, u in sorted(self.users.items())
            },
            "venues": {
                vid: {
                    "name": v.name,
                    "owner_contact": v.owner_contact,
                    "lat": v.lat,
                    "lon": v.lon,
                    "venue_type": v.venue_type,
                    "public_key": v.public_key.data.hex(),
                    "scanner_ids": v.scanner_ids,
                }
                for vid, v in sorted(self.venues.items())
            },
            "health_depts": {
                hid: {
                    "enc_public": h.enc_public.data.hex(),
                    "sign_public": h.sign_public.data.hex(),
                    "encrypted_master_keys": {
                        str(d): c.hex() for d, c in sorted(h.encrypted_master_keys.items())
                    },
                }
                for hid, h in sorted(self.hds.items())
            },
            "master_keys": {
                str(day): {
                    "public": info.public.data.hex(),
                    "signature": info.signature.data.hex(),
                    "signer_public": info.signer_public.data.hex(),
                    "copies": {hid: c.hex() for hid, c in sorted(info.copies.items())},
                }
                for day, info in sorted(self.master_keys.items())
            },
            "checkins": {
                rid: {
                    "scanner_id": r.scanner_id,
                    "trace_id": r.trace_id.hex(),
                    "ref": r.double_enc_ref.ciphertext.hex(),
                    "checkin_time": r.checkin_time,
                    "checkout_time": r.checkout_time,
                }
                for rid, r in sorted(self.checkins.items())
            },
            "uploads": {
                code: {"ciphertext": u.ciphertext.hex(), "day": u.day}
                for code, u in sorted(self.uploads.items())
            },
            "singly_refs": {rid: c.hex() for rid, c in sorted(self.singly_refs.items())},
            "trace_views": [
                {
                    "code": v.code,
                    "index_user_id": v.index_user_id,
                    "seed_days": v.seed_days,
                    "matched_record_ids": v.matched_record_ids,
                    "contact_user_ids": v.contact_user_ids,
                }
                for v in self.trace_views
            ],
            "request_log": self.request_log,
        }


class World:
    """Wiring for one simulation run: actors, network, logs, policy."""

    def __init__(
        self,
        *,
        net: CarrierNetwork,
        transport: Transport,
        truth: GroundTruthLog,
        policy: TracingPolicy,
        mitigations: MitigationConfig,
        rng_crypto: Random,
        rng_server: Random,
        rng_guest: Random,
        ca: Optional[CertificateAuthority] = None,
    ) -> None:
        self.net = net
        self.transport = transport
        self.truth = truth
        self.policy = policy
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

    def new_guest(self, contact: dict[str, str], t: int = 0) -> GuestApp:
        guest = GuestApp(
            index=len(self.guests),
            contact=contact,
            contact_key=self.rng_guest.randbytes(crypto.CONTACT_KEY_LEN),
            identity=self.net.assign_identity(t),
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


def master_sign_message(day: int, pk: PublicKey) -> bytes:
    return b"daily-master:" + day.to_bytes(4, "big") + b":" + pk.data


# -- registration flows ------------------------------------------------------


def flow_register_user(world: World, guest: GuestApp, t: int = 0) -> str:
    """Register a guest: encrypted contact record goes up, a user_id comes back."""
    if guest.user_id is not None:
        raise AlreadyRegistered(guest.label)
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
    world.server.users[user_id] = UserRecord(
        user_id=user_id, encrypted_contact=enc_contact, phone_validated=True
    )
    world.transport.from_server(guest.label, MSG_OTHER, {"user_id": user_id}, t)
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
    venue_id = f"v{index:03d}"
    keypair = _frontend_keypair(world, venue_id, "venue")
    scanner_ids = [f"{venue_id}:s{j}" for j in range(info.get("scanners", 1))]
    self_scanner_id = f"{venue_id}:self"
    venue = VenueActor(
        index=index,
        venue_id=venue_id,
        name=info["name"],
        owner_contact=info["owner_contact"],
        lat=info["lat"],
        lon=info["lon"],
        venue_type=info["venue_type"],
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
            "name": venue.name,
            "owner_contact": venue.owner_contact,
            "lat": venue.lat,
            "lon": venue.lon,
            "venue_type": venue.venue_type,
            "public_key": keypair.public.data.hex(),
            "scanners": len(scanner_ids),
        },
        t,
    )
    world.server.venues[venue_id] = VenueRecord(
        venue_id=venue_id,
        name=venue.name,
        owner_contact=venue.owner_contact,
        lat=venue.lat,
        lon=venue.lon,
        venue_type=venue.venue_type,
        public_key=keypair.public,
        scanner_ids=scanner_ids + [self_scanner_id],
    )
    for sid in scanner_ids + [self_scanner_id]:
        world.server.scanner_to_venue[sid] = venue_id
        world.scanner_identities[sid] = world.new_static_identity("scanner-frontend")
    world.venues.append(venue)
    world.venues_by_id[venue_id] = venue
    world.truth.record_event(
        REGISTER_VENUE,
        t,
        {
            "venue_id": venue_id,
            "venue_type": venue.venue_type,
            "lat": venue.lat,
            "lon": venue.lon,
        },
    )
    return venue


def flow_register_health_dept(world: World, t: int = 0) -> HealthDept:
    index = len(world.hds)
    hd_id = f"hd{index:03d}"
    enc_pair = _frontend_keypair(world, hd_id, "health-dept-enc")
    sign_pair = crypto.gen_keypair("health-dept-sign", world.rng_crypto)
    hd = HealthDept(
        index=index,
        hd_id=hd_id,
        enc_pair=enc_pair,
        sign_pair=sign_pair,
        identity=world.new_static_identity("hd-frontend"),
    )
    if world.mitigations.pki_enabled:
        if world.ca is None:
            raise SimulationError("pki enabled but no certificate authority")
        hd.enc_cert = world.ca.issue(enc_pair.public, "health-dept-enc")
        hd.sign_cert = world.ca.issue(sign_pair.public, "health-dept-sign")
    world.transport.to_server(
        hd.identity,
        hd.label,
        MSG_OTHER,
        {
            "action": "register_health_dept",
            "enc_public": enc_pair.public.data.hex(),
            "sign_public": sign_pair.public.data.hex(),
            "certified": hd.enc_cert is not None,
        },
        t,
    )
    world.server.hds[hd.hd_id] = HealthDeptRecord(
        hd_id=hd.hd_id,
        enc_public=enc_pair.public,
        sign_public=sign_pair.public,
        enc_cert=hd.enc_cert,
        sign_cert=hd.sign_cert,
    )
    world.hds.append(hd)
    return hd


# -- daily master key rotation ------------------------------------------------


def flow_rotate_daily_master_key(world: World, hd: HealthDept, day: int, t: int) -> AsymKeyPair:
    """First HD of the day mints the shared master key and fans it out encrypted."""
    server = world.server
    if day in server.master_keys:
        raise KeyAlreadyExists(f"day {day}")
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
            "signature": sig.data.hex(),
        },
        t,
    )
    info = MasterKeyInfo(
        day=day,
        public=pair.public,
        signature=sig,
        signer_public=hd.sign_pair.public,
        signer_cert=hd.sign_cert,
    )

    # Fetch the other HDs' public encryption keys from the server; the server
    # controls this list and may have appended keys of its own.
    peer_list: list[tuple[str, PublicKey, Optional[Certificate]]] = [
        (rec.hd_id, rec.enc_public, rec.enc_cert)
        for rec in server.hds.values()
        if rec.hd_id != hd.hd_id
    ]
    peer_list.extend(server.hooks.rotation_extra_keys)
    world.transport.from_server(
        hd.label,
        MSG_OTHER,
        {"action": "hd_key_list", "count": len(peer_list)},
        t,
    )
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
    for pid, ct in info.copies.items():
        if pid in server.hds:
            server.hds[pid].encrypted_master_keys[day] = ct
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
        raise NoMasterKey(f"no master key for day {day}")
    world.transport.to_server(
        identity, sender, MSG_OTHER, {"action": "fetch_master_key", "day": day}, t
    )
    override = server.hooks.master_override.get(day)
    if override is not None:
        public = override.pair.public
        signature = override.signature
        signer_public = override.signer_public
        signer_cert = None
        substituted = True
    else:
        info = server.master_keys[day]
        public, signature = info.public, info.signature
        signer_public, signer_cert = info.signer_public, info.signer_cert
        substituted = False
    world.transport.from_server(
        sender,
        MSG_OTHER,
        {"day": day, "public": public.data.hex(), "signature": signature.data.hex()},
        t,
    )
    ok = crypto.verify(signer_public, master_sign_message(day, public), signature)
    if ok and world.mitigations.pki_enabled:
        ok = signer_cert is not None and verify_certificate(world.ca_root, signer_cert)
    if ok:
        return public, (SRC_SUBSTITUTED if substituted else SRC_HONEST)
    # Verification failed: re-request, server yields the honest bundle.
    world.transport.to_server(
        identity, sender, MSG_OTHER, {"action": "fetch_master_key", "day": day, "strict": True}, t
    )
    honest = world.server.master_keys[day]
    world.transport.from_server(
        sender, MSG_OTHER, {"day": day, "public": honest.public.data.hex()}, t
    )
    return honest.public, SRC_HONEST


# -- check-in / check-out ------------------------------------------------------


def _scanner_master_pk(world: World, scanner_id: str, t: int) -> tuple[PublicKey, str]:
    day = t // DAY_SECONDS
    identity = world.scanner_identities[scanner_id]
    pk, source = fetch_master_pk(world, day, identity, f"scanner:{scanner_id}", t)
    override = world.server.hooks.scanner_master_override.get(scanner_id)
    if override is not None:
        # Compromised scanner code: silently hands the guest another key.
        return override, SRC_SCANNER_OVERRIDE
    return pk, source


def _begin_checkin(world: World, guest: GuestApp, t: int) -> tuple[int, bytes, int]:
    if guest.user_id is None:
        raise SimulationError("guest not registered")
    # A forgotten checkout is dropped app-side; the server record stays open.
    guest.open_checkin = None
    day = t // DAY_SECONDS
    seed = guest.seed_for(day, world.rng_guest)
    counter = guest.next_counter(day)
    return day, crypto.derive_trace_id(seed, counter), counter


def _finish_checkin(
    world: World,
    guest: GuestApp,
    venue: VenueActor,
    scanner_id: str,
    trace_id: bytes,
    outer: EncryptedUserReference,
    t: int,
    *,
    uploader: NetworkIdentity | StaticIdentity,
    uploader_label: str,
    mode: str,
    counter: int,
    inner_hex: str,
    master_source: str,
    outer_key: str,
) -> CheckInRecord:
    """Upload the wrapped reference, confirm it by polling, record the truth."""
    world.transport.to_server(
        uploader,
        uploader_label,
        MSG_OTHER,
        {
            "action": "upload_checkin",
            "scanner_id": scanner_id,
            "trace_id": trace_id.hex(),
            "ref": outer.ciphertext.hex(),
            "checkin_time": t,
        },
        t,
        trace_id=trace_id,
    )
    record = world.server.store_checkin(scanner_id, trace_id, outer, t)
    world.transport.to_server(
        guest.identity,
        guest.label,
        MSG_CHECKIN_POLL,
        {"trace_id": trace_id.hex()},
        t,
        trace_id=trace_id,
    )
    if world.server.by_trace.get(trace_id) != record.record_id:
        raise UnconfirmedCheckin(record.record_id)
    world.transport.from_server(guest.label, MSG_OTHER, {"confirmed": True}, t)
    guest.open_checkin = {
        "trace_id": trace_id,
        "record_id": record.record_id,
        "venue_id": venue.venue_id,
        "t": t,
    }
    world.truth.record_event(
        CHECKIN,
        t,
        {
            "user_id": guest.user_id,
            "venue_id": venue.venue_id,
            "scanner_id": scanner_id,
            "record_id": record.record_id,
            "trace_id": trace_id.hex(),
            "day": t // DAY_SECONDS,
            "counter": counter,
            "mode": mode,
            "inner_ref": inner_hex,
            "master_source": master_source,
            "outer_key": outer_key,
        },
    )
    return record


def flow_checkin_scanner(world: World, guest: GuestApp, scanner_id: str, t: int) -> CheckInRecord:
    """Scanner check-in: the guest shows a QR, the scanner wraps and uploads."""
    venue = world.venue_of_scanner(scanner_id)
    day, trace_id, counter = _begin_checkin(world, guest, t)
    master_pk, master_source = _scanner_master_pk(world, scanner_id, t)
    # Scan handshake: the scanner presents the day key it fetched, the guest
    # answers with its QR payload.
    world.transport.local(
        f"scanner:{scanner_id}", guest.label, "scan_handshake", {"day": day}, t
    )
    inner = crypto.seal_user_reference(master_pk, guest.user_id, guest.contact_key, world.rng_crypto)
    world.transport.local(
        guest.label,
        f"scanner:{scanner_id}",
        "qr_payload",
        {"trace_id": trace_id.hex(), "ref": inner.ciphertext.hex()},
        t,
    )
    outer = crypto.wrap_reference(inner, venue.keypair.public, world.rng_crypto)
    return _finish_checkin(
        world,
        guest,
        venue,
        scanner_id,
        trace_id,
        outer,
        t,
        uploader=world.scanner_identities[scanner_id],
        uploader_label=f"scanner:{scanner_id}",
        mode="scanner",
        counter=counter,
        inner_hex=inner.ciphertext.hex(),
        master_source=master_source,
        outer_key=OUTER_VENUE,
    )


def flow_checkin_self(world: World, guest: GuestApp, venue: VenueActor, t: int) -> CheckInRecord:
    """Self check-in: the guest applies both encryption layers and uploads."""
    day, trace_id, counter = _begin_checkin(world, guest, t)
    master_pk, master_source = fetch_master_pk(world, day, guest.identity, guest.label, t)
    if world.mitigations.qr_embeds_venue_key:
        # The printed QR carries the venue key; nothing to fetch, nothing to swap.
        world.transport.local(
            venue.label, guest.label, "qr_poster", {"venue_id": venue.venue_id}, t
        )
        venue_pk, outer_key = venue.keypair.public, OUTER_VENUE
    else:
        world.transport.to_server(
            guest.identity,
            guest.label,
            MSG_OTHER,
            {"action": "fetch_venue_key", "venue_id": venue.venue_id},
            t,
        )
        override = world.server.hooks.venue_pk_override.get(venue.venue_id)
        venue_pk = override if override is not None else world.server.venues[venue.venue_id].public_key
        outer_key = OUTER_SUBSTITUTED if override is not None else OUTER_VENUE
        world.transport.from_server(
            guest.label, MSG_OTHER, {"venue_id": venue.venue_id, "public_key": venue_pk.data.hex()}, t
        )
    inner = crypto.seal_user_reference(master_pk, guest.user_id, guest.contact_key, world.rng_crypto)
    outer = crypto.wrap_reference(inner, venue_pk, world.rng_crypto)
    return _finish_checkin(
        world,
        guest,
        venue,
        venue.self_scanner_id,
        trace_id,
        outer,
        t,
        uploader=guest.identity,
        uploader_label=guest.label,
        mode="self",
        counter=counter,
        inner_hex=inner.ciphertext.hex(),
        master_source=master_source,
        outer_key=outer_key,
    )


def flow_checkout(world: World, guest: GuestApp, t: int) -> None:
    if guest.open_checkin is None:
        raise NoOpenCheckin(guest.label)
    open_ci = guest.open_checkin
    trace_id: bytes = open_ci["trace_id"]
    world.transport.to_server(
        guest.identity,
        guest.label,
        MSG_CHECKOUT,
        {"trace_id": trace_id.hex(), "departure_time": t},
        t,
        trace_id=trace_id,
    )
    record = world.server.checkins[world.server.by_trace[trace_id]]
    record.set_checkout(t)
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
            "seeds": {str(d): s.secret.hex() for d, s in seeds.items()},
        },
        sort_keys=True,
    ).encode()
    ciphertext = crypto.encrypt(master_pk, payload, world.rng_crypto)
    obs = world.transport.to_server(
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
    server.uploads[code] = UploadRecord(code=code, ciphertext=ciphertext, day=day, obs_seq=obs.seq)
    world.transport.from_server(guest.label, MSG_OTHER, {"verification_code": code}, t)
    world.truth.record_event(
        REPORT_POSITIVE,
        t,
        {
            "user_id": guest.user_id,
            "days": sorted(days),
            "code": code,
            "seeds": {str(d): s.secret.hex() for d, s in seeds.items()},
            "master_source": master_source,
        },
    )
    return code


def hd_get_master_sk(world: World, hd: HealthDept, day: int, t: int) -> PrivateKey:
    """HD recovers the daily master private key via its encrypted copy."""
    if day in hd.master_sks:
        return hd.master_sks[day]
    server = world.server
    if day not in server.master_keys:
        raise NoMasterKey(f"day {day}")
    ct = server.master_keys[day].copies.get(hd.hd_id)
    if ct is None:
        raise SimulationError(f"{hd.hd_id} has no encrypted master copy for day {day}")
    server.log_request(t, "fetch_master_copy", hd.hd_id, str(day))
    world.transport.to_server(
        hd.identity, hd.label, MSG_OTHER, {"action": "fetch_master_copy", "day": day}, t
    )
    world.transport.from_server(hd.label, MSG_OTHER, {"day": day, "ciphertext": ct.hex()}, t)
    observer = server.hooks.key_use_observers.get(hd.hd_id)
    if observer:
        observer(hd.enc_pair)
    sk = PrivateKey("daily-master", crypto.decrypt(hd.enc_pair.private, ct))
    hd.master_sks[day] = sk
    return sk


def venue_decrypt_records(
    world: World,
    venue: VenueActor,
    record_ids: list[str],
    t: int,
    requester: str = "server",
) -> dict[str, EncryptedUserReference]:
    """Venue removes the outer layer of the given records on request.

    Requests carry no verifiable origin: the venue cannot tell a legitimate
    tracing query from anything else, so it always complies when online.
    """
    if venue.unavailable:
        raise VenueUnavailable(venue.venue_id)
    server = world.server
    world.transport.from_server(
        venue.label,
        MSG_OTHER,
        {"action": "decrypt_request", "requester": requester, "record_ids": sorted(record_ids)},
        t,
    )
    observer = server.hooks.key_use_observers.get(venue.venue_id)
    if observer:
        observer(venue.keypair)
    out: dict[str, EncryptedUserReference] = {}
    for rid in sorted(record_ids):
        rec = server.checkins[rid]
        try:
            out[rid] = crypto.unwrap_outer(rec.double_enc_ref, venue.keypair.private)
        except crypto.DecryptionFailure:
            continue  # not under this venue's key; the frontend skips it
    # The server keeps everything it is sent, including these responses.
    server.singly_refs.update({rid: ref.ciphertext for rid, ref in out.items()})
    world.transport.to_server(
        venue.frontend,
        venue.label,
        MSG_OTHER,
        {
            "action": "decrypt_response",
            "records": {rid: ref.ciphertext.hex() for rid, ref in sorted(out.items())},
        },
        t,
    )
    return out


@dataclass
class TraceResult:
    code: str
    status: str
    index_user_id: Optional[str] = None
    matched_record_ids: list[str] = field(default_factory=list)
    contacts: list[dict[str, str]] = field(default_factory=list)
    unavailable_venues: list[str] = field(default_factory=list)
    dropped_records: list[str] = field(default_factory=list)

    @property
    def contact_user_ids(self) -> set[str]:
        return {c["user_id"] for c in self.contacts}


def _overlapping_record_ids(
    at_venue: list[CheckInRecord], index_records: list[CheckInRecord], policy: TracingPolicy
) -> list[str]:
    """Ids of the venue's records whose visit overlaps an index visit, in venue order.

    With the index intervals sorted by start and a running maximum of their
    ends, a record overlaps one of them iff some interval starting before the
    record's end (plus slack) ends after its start (minus slack), the test of
    ``model.intervals_overlap``.  ``at_venue`` is in check-in order, so the walk
    stops at the first record that checks in after every index visit ended.
    """
    slack = policy.overlap_slack_s
    intervals = sorted(visit_interval(r.checkin_time, r.checkout_time, policy) for r in index_records)
    starts = [start for start, _ in intervals]
    max_ends = list(accumulate((end for _, end in intervals), max))
    stop = max_ends[-1] + slack
    legit = []
    for r in at_venue:
        if r.checkin_time >= stop:
            break
        start, end = visit_interval(r.checkin_time, r.checkout_time, policy)
        k = bisect.bisect_left(starts, end + slack)
        if k and max_ends[k - 1] > start - slack:
            legit.append(r.record_id)
    return legit


def flow_trace(world: World, hd: HealthDept, code: str, t: int) -> TraceResult:
    """Full tracing pipeline for one verification code.

    HD decrypts the upload, the server matches trace ids and mediates venue
    decryption, the HD peels the inner layer and fetches contact records.
    """
    server = world.server
    policy = world.policy
    upload = server.uploads.get(code)
    if upload is None:
        raise UnknownCode(code)
    server.log_request(t, "fetch_upload", hd.hd_id, code)
    world.transport.to_server(
        hd.identity, hd.label, MSG_OTHER, {"action": "fetch_upload", "code": code}, t
    )
    world.transport.from_server(
        hd.label, MSG_OTHER, {"code": code, "ciphertext": upload.ciphertext.hex()}, t
    )
    try:
        master_sk = hd_get_master_sk(world, hd, upload.day, t)
        payload = json.loads(crypto.decrypt(master_sk, upload.ciphertext))
    except crypto.DecryptionFailure:
        return TraceResult(code=code, status="upload_undecryptable")
    index_user_id = payload["user_id"]
    seeds = {int(d): bytes.fromhex(h) for d, h in payload["seeds"].items()}

    # HD immediately pulls the index case's encrypted contact record.
    server.log_request(t + 5, "fetch_contact", hd.hd_id, index_user_id)
    world.transport.to_server(
        hd.identity, hd.label, MSG_OTHER, {"action": "fetch_contact", "user_id": index_user_id}, t + 5
    )
    world.transport.from_server(
        hd.label,
        MSG_OTHER,
        {"user_id": index_user_id, "encrypted_contact": server.users[index_user_id].encrypted_contact.hex()},
        t + 5,
    )

    # Decrypted identifier and seeds go back to the server for matching.
    world.transport.to_server(
        hd.identity,
        hd.label,
        MSG_OTHER,
        {
            "action": "trace_request",
            "user_id": index_user_id,
            "seeds": {str(d): s.hex() for d, s in sorted(seeds.items())},
        },
        t + 10,
    )
    world.truth.record_event(
        TRACE_REQUEST,
        t,
        {"user_id": index_user_id, "days": sorted(seeds), "code": code},
    )
    matched: list[CheckInRecord] = []
    for d in sorted(seeds):
        seed = TracingSeed(day=d, secret=seeds[d])
        matched.extend(
            server.checkins[rid]
            for rid in server.records_for_seed(seed, policy.max_checkins_per_day - 1)
        )
    matched.sort(key=_time_order)
    view = TraceServerView(
        code=code,
        index_user_id=index_user_id,
        seed_days=sorted(seeds),
        matched_record_ids=[r.record_id for r in matched],
        venue_windows={},
    )
    server.trace_views.append(view)

    by_venue: dict[str, list[CheckInRecord]] = {}
    for rec in matched:
        by_venue.setdefault(server.scanner_to_venue[rec.scanner_id], []).append(rec)

    singly: dict[str, EncryptedUserReference] = {}
    legit_ids_all: list[str] = []
    unavailable: list[str] = []
    for venue_id in sorted(by_venue):
        legit = _overlapping_record_ids(server.records_at_venue(venue_id), by_venue[venue_id], policy)
        view.venue_windows[venue_id] = legit
        request_ids = list(legit)
        if server.hooks.trace_padding is not None:
            extras = server.hooks.trace_padding(venue_id, legit, server)
            request_ids.extend(x for x in extras if x not in request_ids)
        venue = world.venue_by_id(venue_id)
        try:
            decrypted = venue_decrypt_records(world, venue, request_ids, t + 20, requester=hd.hd_id)
        except VenueUnavailable:
            unavailable.append(venue_id)
            continue
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
        legit_ids_all.extend(legit)

    world.transport.from_server(
        hd.label,
        MSG_OTHER,
        {
            "action": "singly_encrypted_records",
            "records": {rid: singly[rid].ciphertext.hex() for rid in sorted(singly)},
        },
        t + 30,
    )
    contact_keys: dict[str, bytes] = {}
    dropped: list[str] = []
    for rid in sorted(singly):
        rec = server.checkins[rid]
        try:
            sk = hd_get_master_sk(world, hd, rec.checkin_time // DAY_SECONDS, t + 30)
            uid, ckey = crypto.open_user_reference(singly[rid], sk)
        except (crypto.DecryptionFailure, NoMasterKey):
            dropped.append(rid)
            continue
        contact_keys[uid] = ckey

    contacts: list[dict[str, str]] = []
    offset = 40
    for uid in sorted(contact_keys):
        if uid == index_user_id and not policy.include_index_case:
            continue
        if uid != index_user_id:
            server.log_request(t + offset, "fetch_contact", hd.hd_id, uid)
            world.transport.to_server(
                hd.identity, hd.label, MSG_OTHER, {"action": "fetch_contact", "user_id": uid}, t + offset
            )
            world.transport.from_server(
                hd.label,
                MSG_OTHER,
                {"user_id": uid, "encrypted_contact": server.users[uid].encrypted_contact.hex()},
                t + offset,
            )
            offset += 2
        entry = json.loads(crypto.sym_decrypt(contact_keys[uid], server.users[uid].encrypted_contact))
        entry["user_id"] = uid
        contacts.append(entry)
    view.contact_user_ids = sorted(
        uid for uid in contact_keys if uid != index_user_id or policy.include_index_case
    )
    return TraceResult(
        code=code,
        status="ok",
        index_user_id=index_user_id,
        matched_record_ids=[r.record_id for r in matched],
        contacts=contacts,
        unavailable_venues=unavailable,
        dropped_records=dropped,
    )


def record_group_arrival(
    world: World, t: int, venue_id: str, user_ids: list[str], record_ids: list[str]
) -> None:
    world.truth.record_event(
        GROUP_ARRIVAL,
        t,
        {"venue_id": venue_id, "user_ids": sorted(user_ids), "record_ids": sorted(record_ids)},
    )
