"""Backend-server adversary: passive metadata inference and active attacks.

The passive side works purely on what the server legitimately holds
(observations, check-in records, request logs, trace mediation state) and
attaches ground-truth precision/recall scores afterwards.  The active side
deviates from the honest protocol through :class:`~lucasim.actors.BackendHooks`
and covert reads of frontend-held keys (modelling served-code modification);
every attack outcome is verified against ground truth before it may claim
success.
"""

from __future__ import annotations

import bisect
import json
import math
from dataclasses import dataclass, field
from random import Random
from typing import Any, Optional

from cryptography.hazmat.primitives.asymmetric.x25519 import X25519PrivateKey

from . import crypto, metrics
from .crypto import AsymKeyPair, EncryptedUserReference, PrivateKey
from .actors import (
    BackendHooks,
    MasterOverride,
    hd_get_master_sk,
    SRC_SCANNER_OVERRIDE,
    SRC_SUBSTITUTED,
    BackendServer,
    World,
    master_sign_message,
    venue_decrypt_records,
)
from .model import CHECKIN, DAY_SECONDS, REGISTER_USER, GroundTruthLog
from .netsim import DEVICE_TYPES, MSG_CHECKIN_POLL, MSG_OTHER, NetworkObservation

UNDETECTABLE = "undetectable"
DETECTABLE_BY_HD = "detectable-by-HD"
DETECTABLE_BY_VENUE = "detectable-by-venue"


@dataclass(frozen=True)
class LinkageConfig:
    arrival_window_s: int = 30
    departure_window_s: int = 120
    max_port_gap: int = 32
    speed_kmh: float = 5.0
    correlation_window_s: int = 60


@dataclass
class Cluster:
    cluster_id: int
    kind: str  # "ipv6" | "nat_chain"
    anchor: str
    record_ids: list[str]


@dataclass
class RecordClaim:
    """One record the adversary believes it can attribute to a user."""

    record_id: str
    user_id: str
    via: str
    reference_disclosed: bool
    outer_consented: Optional[bool]
    contact_key_hex: Optional[str] = None


@dataclass
class ContactClaim:
    user_id: str
    contact: dict[str, str]
    via: str


@dataclass
class StrippedRecord:
    """An outer layer the adversary holds removed, with its provenance."""

    record_id: str
    inner_ciphertext: bytes
    via: str
    consented: bool


@dataclass
class AttackOutcome:
    attack_id: str
    succeeded: bool
    secrets_learned: str
    detectable: str
    details: dict[str, Any] = field(default_factory=dict)


@dataclass
class AdversaryKnowledge:
    clusters: list[Cluster] = field(default_factory=list)
    checkin_linkage: Optional[dict[str, Any]] = None
    group_hypotheses: list[list[str]] = field(default_factory=list)
    group_linkage: Optional[dict[str, Any]] = None
    venue_occupancy: dict[str, list[tuple[int, int]]] = field(default_factory=dict)
    venue_risk: list[tuple[str, int]] = field(default_factory=list)
    code_to_address: dict[str, str] = field(default_factory=dict)
    code_to_user_id: dict[str, str] = field(default_factory=dict)
    recovered_keys: list[dict[str, str]] = field(default_factory=list)
    stripped_records: dict[str, StrippedRecord] = field(default_factory=dict)
    decrypted_refs: dict[str, RecordClaim] = field(default_factory=dict)
    traced_records: dict[str, RecordClaim] = field(default_factory=dict)
    contact_data: dict[str, ContactClaim] = field(default_factory=dict)
    trace_leakage: list[dict[str, Any]] = field(default_factory=list)
    cluster_to_user_id: dict[int, str] = field(default_factory=dict)
    attack_outcomes: list[AttackOutcome] = field(default_factory=list)

    def record_claims(self) -> dict[str, RecordClaim]:
        merged = dict(self.traced_records)
        merged.update(self.decrypted_refs)
        return merged


def haversine_km(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    rad = math.pi / 180.0
    dlat = (lat2 - lat1) * rad
    dlon = (lon2 - lon1) * rad
    a = math.sin(dlat / 2) ** 2 + math.cos(lat1 * rad) * math.cos(lat2 * rad) * math.sin(dlon / 2) ** 2
    return 2 * 6371.0 * math.asin(math.sqrt(a))


# -- passive analyses ---------------------------------------------------------


def _poll_anchor_per_record(
    server: BackendServer, observations: list[NetworkObservation]
) -> dict[str, NetworkObservation]:
    """First check-in poll observation per record, mobile devices only."""
    anchors: dict[str, NetworkObservation] = {}
    for obs in observations:
        if obs.message_kind != MSG_CHECKIN_POLL or obs.trace_id is None:
            continue
        if obs.device_type not in DEVICE_TYPES:
            continue
        rid = server.by_trace.get(bytes.fromhex(obs.trace_id))
        if rid is not None and rid not in anchors:
            anchors[rid] = obs
    return anchors


def link_checkins_by_metadata(
    server: BackendServer,
    observations: list[NetworkObservation],
    config: LinkageConfig,
) -> list[Cluster]:
    """Partition check-in records into hypothesized same-user clusters.

    A record is anchored by the poll that confirmed it (address, port, device
    type).  Unique IPv6 addresses link exactly; behind an IPv4 gateway, a
    greedy chain walk links records whose ports continue a known cursor, whose
    device types match, and whose venue/time geometry a single person could
    have produced.
    """
    anchors = _poll_anchor_per_record(server, observations)
    by_ipv6: dict[str, list[str]] = {}
    by_gateway: dict[str, list[tuple[NetworkObservation, str]]] = {}
    for rid in sorted(anchors, key=lambda r: (anchors[r].t, anchors[r].src_port, r)):
        obs = anchors[rid]
        if obs.ip_version == 6:
            by_ipv6.setdefault(obs.src_address, []).append(rid)
        else:
            by_gateway.setdefault(obs.src_address, []).append((obs, rid))

    clusters: list[Cluster] = []
    for addr in sorted(by_ipv6):
        clusters.append(
            Cluster(
                cluster_id=len(clusters),
                kind="ipv6",
                anchor=addr,
                record_ids=sorted(by_ipv6[addr]),
            )
        )

    for addr in sorted(by_gateway):
        chains: list[dict[str, Any]] = []
        for obs, rid in by_gateway[addr]:
            rec = server.checkins[rid]
            venue = server.venues[server.scanner_to_venue[rec.scanner_id]]
            best = None
            best_gap = None
            for chain in chains:
                if chain["device"] != obs.device_type:
                    continue
                gap = obs.src_port - chain["last_port"]
                if gap <= 0 or gap > config.max_port_gap:
                    continue
                departure = chain["last_checkout"]
                if departure is None:
                    departure = chain["last_checkin"]
                if rec.checkin_time < departure:
                    continue  # one person cannot be in two venues at once
                dist = haversine_km(chain["last_lat"], chain["last_lon"], venue.lat, venue.lon)
                if dist > config.speed_kmh * (rec.checkin_time - departure) / 3600.0:
                    continue
                if best is None or gap < best_gap:
                    best, best_gap = chain, gap
            if best is None:
                best = {
                    "device": obs.device_type,
                    "members": [],
                }
                chains.append(best)
            best["members"].append(rid)
            best["last_port"] = obs.src_port
            best["last_checkin"] = rec.checkin_time
            best["last_checkout"] = rec.checkout_time
            best["last_lat"] = venue.lat
            best["last_lon"] = venue.lon
        for i, chain in enumerate(chains):
            clusters.append(
                Cluster(
                    cluster_id=len(clusters),
                    kind="nat_chain",
                    anchor=f"{addr}/{i}",
                    record_ids=sorted(chain["members"]),
                )
            )
    return clusters


def score_checkin_linkage(
    clusters: list[Cluster], truth: GroundTruthLog
) -> dict[str, Any]:
    labels = {v.record_id: v.user_id for v in truth.all_visits()}
    scores = metrics.pairwise_scores([c.record_ids for c in clusters], labels)
    scores["clusters"] = len(clusters)
    return scores


def link_groups(server: BackendServer, config: LinkageConfig) -> list[list[str]]:
    """Hypothesize co-arriving groups from scanner, arrival and departure times.

    Records at one scanner chain into an arrival group while consecutive
    check-ins are within the arrival window; a group then splits wherever
    recorded departure times disagree by more than the departure window.
    """
    by_scanner: dict[str, list] = {}
    for rec in server.checkins.values():
        by_scanner.setdefault(rec.scanner_id, []).append(rec)
    hypotheses: list[list[str]] = []
    for scanner_id in sorted(by_scanner):
        recs = sorted(by_scanner[scanner_id], key=lambda r: (r.checkin_time, r.record_id))
        arrival_groups: list[list] = []
        for rec in recs:
            if (
                arrival_groups
                and rec.checkin_time - arrival_groups[-1][-1].checkin_time
                <= config.arrival_window_s
            ):
                arrival_groups[-1].append(rec)
            else:
                arrival_groups.append([rec])
        for group in arrival_groups:
            if len(group) < 2:
                continue
            # Split on departure disagreement; members without a recorded
            # checkout stay with the subgroup they arrived in.
            with_out = sorted(
                (r for r in group if r.checkout_time is not None),
                key=lambda r: (r.checkout_time, r.record_id),
            )
            without_out = [r for r in group if r.checkout_time is None]
            subgroups: list[list] = []
            for rec in with_out:
                if (
                    subgroups
                    and rec.checkout_time - subgroups[-1][-1].checkout_time
                    <= config.departure_window_s
                ):
                    subgroups[-1].append(rec)
                else:
                    subgroups.append([rec])
            if without_out:
                if subgroups:
                    subgroups[0].extend(without_out)
                else:
                    subgroups.append(without_out)
            for sg in subgroups:
                if len(sg) >= 2:
                    hypotheses.append(sorted(r.record_id for r in sg))
    return sorted(hypotheses)


def score_group_linkage(hypotheses: list[list[str]], truth: GroundTruthLog) -> dict[str, Any]:
    predicted = metrics.pairs_of(hypotheses)
    true_pairs = truth.true_group_pairs()
    scores = metrics.pair_set_scores(predicted, true_pairs)
    scores["hypotheses"] = len(hypotheses)
    return scores


def venue_occupancy_profile(
    server: BackendServer, max_stay_s: int
) -> dict[str, list[tuple[int, int]]]:
    """Step function of concurrent visitors per venue, from server records.

    Visits without a recorded checkout count until check-in plus the
    configured maximum stay (the same imputation the tracing pipeline uses).
    """
    deltas: dict[str, dict[int, int]] = {vid: {} for vid in server.venues}
    for rec in server.checkins.values():
        vid = server.scanner_to_venue[rec.scanner_id]
        end = rec.checkout_time if rec.checkout_time is not None else rec.checkin_time + max_stay_s
        d = deltas[vid]
        d[rec.checkin_time] = d.get(rec.checkin_time, 0) + 1
        d[end] = d.get(end, 0) - 1
    series: dict[str, list[tuple[int, int]]] = {}
    for vid in sorted(deltas):
        level = 0
        points: list[tuple[int, int]] = []
        for t in sorted(deltas[vid]):
            level += deltas[vid][t]
            points.append((t, level))
        series[vid] = points
    return series


def venue_risk_rank(server: BackendServer) -> list[tuple[str, int]]:
    """Venues ranked by index-case visits observed while mediating traces."""
    counts: dict[str, int] = {}
    for view in server.trace_views:
        for rid in view.matched_record_ids:
            vid = server.scanner_to_venue[server.checkins[rid].scanner_id]
            counts[vid] = counts.get(vid, 0) + 1
    return sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))


def correlate_trace_requests(
    server: BackendServer,
    observations: list[NetworkObservation],
    config: LinkageConfig,
) -> tuple[dict[str, str], dict[str, str]]:
    """Pair verification codes with user ids and upload source addresses.

    The code fetch and the immediately following contact-data fetch within
    the correlation window belong to the same tracing session; the upload
    observation gives the code's source address directly.
    """
    code_to_address = {
        code: observations[upload.obs_seq].src_address
        for code, upload in server.uploads.items()
    }
    code_to_user_id: dict[str, str] = {}
    # The log is appended in seq order, so each search starts at the first
    # contact fetch logged after its upload fetch.
    contact_fetches = [e for e in server.request_log if e["kind"] == "fetch_contact"]
    fetch_seqs = [fetch["seq"] for fetch in contact_fetches]
    used: set[int] = set()
    for entry in server.request_log:
        if entry["kind"] != "fetch_upload":
            continue
        for i in range(bisect.bisect_left(fetch_seqs, entry["seq"]), len(contact_fetches)):
            fetch = contact_fetches[i]
            if fetch["seq"] in used:
                continue
            if not 0 <= fetch["t"] - entry["t"] <= config.correlation_window_s:
                continue
            code_to_user_id[entry["param"]] = fetch["param"]
            used.add(fetch["seq"])
            break
    return dict(sorted(code_to_user_id.items())), dict(sorted(code_to_address.items()))


def observe_trace_leakage(server: BackendServer, knowledge: AdversaryKnowledge) -> None:
    """Fold what the server learned while mediating traces into the knowledge."""
    for view in server.trace_views:
        venues = sorted(view.venue_windows)
        knowledge.trace_leakage.append(
            {
                "code": view.code,
                "user_id": view.index_user_id,
                "matched_record_ids": list(view.matched_record_ids),
                "venues": venues,
                "contact_user_ids": list(view.contact_user_ids),
            }
        )
        for rid in view.matched_record_ids:
            knowledge.traced_records.setdefault(
                rid,
                RecordClaim(
                    record_id=rid,
                    user_id=view.index_user_id,
                    via="trace",
                    reference_disclosed=False,
                    outer_consented=None,
                ),
            )
        # Unambiguous contact attribution: exactly one non-index record in the
        # decrypt scope and exactly one contact fetched.
        scope = sorted(
            {rid for rids in view.venue_windows.values() for rid in rids}
            - set(view.matched_record_ids)
        )
        contacts = [u for u in view.contact_user_ids if u != view.index_user_id]
        if len(scope) == 1 and len(contacts) == 1:
            knowledge.traced_records.setdefault(
                scope[0],
                RecordClaim(
                    record_id=scope[0],
                    user_id=contacts[0],
                    via="trace-correlation",
                    reference_disclosed=False,
                    outer_consented=True,
                ),
            )


# -- adversary state and active attacks ----------------------------------------


class Adversary:
    """Key material and shared loot of the backend-server adversary."""

    def __init__(self, rng: Random) -> None:
        self.rng = rng
        self.enc_pair = crypto.gen_keypair("adversary", rng)
        self.sign_pair = crypto.gen_keypair("adversary-sign", rng)
        # Singly-encrypted references obtained outside any consent scope.
        self.unconsented_strips: dict[str, EncryptedUserReference] = {}
        # Daily master private keys recovered by any means: day -> raw key.
        self.master_keys: dict[int, bytes] = {}
        # Master-role pairs the adversary itself minted (substitutions).
        self.minted_master_pairs: list[AsymKeyPair] = []
        # Venue private keys recovered: venue_id -> raw key.
        self.venue_keys: dict[str, bytes] = {}


class Attack:
    attack_id = "abstract"
    detectable = UNDETECTABLE

    def __init__(self, adversary: Adversary, params: dict[str, Any]) -> None:
        self.adversary = adversary
        self.params = params

    def install(self, world: World, day: int) -> None:  # pragma: no cover - default
        pass

    def execute(self, world: World, t: int) -> None:  # pragma: no cover - default
        pass

    def finalize(self, world: World, knowledge: AdversaryKnowledge) -> AttackOutcome:
        raise NotImplementedError

    # helpers ---------------------------------------------------------------

    @staticmethod
    def _checkin_events(world: World) -> list[dict[str, Any]]:
        return [e.data | {"t": e.t} for e in world.truth.events if e.kind == CHECKIN]

    def _outcome(self, succeeded: bool, learned: str, **details: Any) -> AttackOutcome:
        return AttackOutcome(
            attack_id=self.attack_id,
            succeeded=succeeded,
            secrets_learned=learned,
            detectable=self.detectable,
            details=details,
        )

    @staticmethod
    def _verify_inner_refs(world: World, affected: list[dict[str, Any]], sk: PrivateKey) -> list[str]:
        """Ids of the affected check-ins whose inner reference opens under
        ``sk`` to the true user id and contact key."""
        contact_keys = {
            e.data["user_id"]: e.data["contact_key"]
            for e in world.truth.events
            if e.kind == REGISTER_USER
        }
        verified = []
        for e in sorted(affected, key=lambda e: e["record_id"]):
            try:
                uid, ckey = crypto.open_user_reference(
                    EncryptedUserReference(1, bytes.fromhex(e["inner_ref"])), sk
                )
            except crypto.DecryptionFailure:
                continue
            if uid == e["user_id"] and ckey.hex() == contact_keys[uid]:
                verified.append(e["record_id"])
        return verified

    def _recover_master_copies(self, world: World, copy_id: str, sk: PrivateKey) -> list[int]:
        """Days whose stored master copy for ``copy_id`` opens under ``sk`` to
        the published key; the adversary keeps each recovered raw key."""
        recovered_days = []
        for day, info in sorted(world.server.master_keys.items()):
            ct = info.copies.get(copy_id)
            if ct is None:
                continue
            try:
                raw = crypto.decrypt(sk, ct)
            except crypto.DecryptionFailure:
                continue
            pub = X25519PrivateKey.from_private_bytes(raw).public_key().public_bytes_raw()
            if pub == info.public.data:
                recovered_days.append(day)
                self.adversary.master_keys[day] = raw
        return recovered_days


class VenueDecryptionOracle(Attack):
    """Ask a venue to remove outer layers of arbitrary records; it cannot
    authenticate the request and complies."""

    attack_id = "venue_decryption_oracle"

    def __init__(self, adversary: Adversary, params: dict[str, Any]) -> None:
        super().__init__(adversary, params)
        self.loot: dict[str, EncryptedUserReference] = {}
        self.requested: list[str] = []

    def execute(self, world: World, t: int) -> None:
        venue = world.venues[self.params.get("venue", 0)]
        records = [r.record_id for r in world.server.records_at_venue(venue.venue_id)]
        limit = self.params.get("max_records")
        if limit is not None:
            records = records[:limit]
        self.requested = records
        if not records:
            return
        self.loot = venue_decrypt_records(world, venue, records, t, requester="server")
        self.adversary.unconsented_strips.update(self.loot)

    def finalize(self, world: World, knowledge: AdversaryKnowledge) -> AttackOutcome:
        truth_inner = {
            e["record_id"]: e["inner_ref"] for e in self._checkin_events(world)
        }
        verified = [
            rid
            for rid, ref in sorted(self.loot.items())
            if ref.ciphertext.hex() == truth_inner.get(rid)
        ]
        ok = len(verified) == len(self.loot)
        return self._outcome(
            ok,
            f"outer layer removed from {len(verified)} records without consent",
            record_ids=sorted(self.loot),
            requested=len(self.requested),
        )


class ExpandWindow(Attack):
    """Pad a legitimate tracing decryption request with out-of-scope records."""

    attack_id = "expand_window"

    def __init__(self, adversary: Adversary, params: dict[str, Any]) -> None:
        super().__init__(adversary, params)
        self.padded: list[str] = []

    def install(self, world: World, day: int) -> None:
        pad_count = self.params.get("pad_per_venue", 5)

        def pad(venue_id: str, legit: list[str], server: BackendServer) -> list[str]:
            extras = [
                r.record_id
                for r in server.records_at_venue(venue_id)
                if r.record_id not in legit
            ][:pad_count]
            self.padded.extend(extras)
            return extras

        world.server.hooks.trace_padding = pad

    def finalize(self, world: World, knowledge: AdversaryKnowledge) -> AttackOutcome:
        truth_inner = {e["record_id"]: e["inner_ref"] for e in self._checkin_events(world)}
        stripped = []
        for rid in sorted(set(self.padded)):
            ct = world.server.singly_refs.get(rid)
            if ct is not None and ct.hex() == truth_inner.get(rid):
                stripped.append(rid)
                self.adversary.unconsented_strips[rid] = EncryptedUserReference(1, ct)
        ok = len(stripped) == len(set(self.padded))
        return self._outcome(
            ok,
            f"{len(stripped)} out-of-window records decrypted by the venue",
            record_ids=stripped,
        )


class SubstituteVenueKey(Attack):
    """Serve the adversary's key instead of the venue key for self check-ins."""

    attack_id = "substitute_venue_key"

    def install(self, world: World, day: int) -> None:
        venue_id = f"v{self.params.get('venue', 0):03d}"
        world.server.hooks.venue_pk_override[venue_id] = self.adversary.enc_pair.public
        self.venue_id = venue_id

    def finalize(self, world: World, knowledge: AdversaryKnowledge) -> AttackOutcome:
        affected = [
            e
            for e in self._checkin_events(world)
            if e["venue_id"] == self.venue_id and e["outer_key"] == "substituted"
        ]
        verified = []
        for e in sorted(affected, key=lambda e: e["record_id"]):
            rec = world.server.checkins[e["record_id"]]
            try:
                inner = crypto.unwrap_outer(rec.double_enc_ref, self.adversary.enc_pair.private)
            except crypto.DecryptionFailure:
                continue
            if inner.ciphertext.hex() == e["inner_ref"]:
                verified.append(e["record_id"])
                self.adversary.unconsented_strips[e["record_id"]] = inner
        ok = bool(verified) and len(verified) == len(affected)
        reason = "" if affected else " (no self check-in used the substituted key)"
        return self._outcome(
            ok,
            f"outer layer under adversary key for {len(verified)} self check-ins" + reason,
            record_ids=verified,
            venue_id=self.venue_id,
        )


class KeyExfiltration(Attack):
    """Modified frontend code leaks or backdoors the frontend's private key.

    One attack against two frontends; a subclass names its target (the
    params field and its default index, the owner id prefix), the key's role
    and the backdoor seed, and words its own outcome.
    """

    MODES = ("exfil_on_gen", "exfil_on_use", "backdoor_keygen", "skip_checks")  # first is default
    param, default_index, id_prefix = "", 0, ""
    role, backdoor_seed = "", ""

    def __init__(self, adversary: Adversary, params: dict[str, Any]) -> None:
        super().__init__(adversary, params)
        self.captured: Optional[AsymKeyPair] = None
        self.mode = params.get("mode", self.MODES[0])
        if self.mode not in self.MODES:
            raise ValueError(f"unknown {self.attack_id} mode {self.mode!r}")
        self.index = params.get(self.param, self.default_index)
        self.owner_id = f"{self.id_prefix}{self.index:03d}"

    def install(self, world: World, day: int) -> None:
        hooks = world.server.hooks
        if self.mode == "backdoor_keygen":
            hooks.keygen_override[self.owner_id] = self._backdoor_pair
        elif self.mode == "exfil_on_gen":
            hooks.keygen_observers[self.owner_id] = self._capture
        elif self.mode == "exfil_on_use":
            hooks.key_use_observers[self.owner_id] = self._capture
        else:
            self._skip_checks(hooks)

    def _skip_checks(self, hooks: BackendHooks) -> None:
        pass  # the baseline venue frontend performs no request checks to skip

    def _capture(self, pair: AsymKeyPair) -> None:
        if self.captured is None:
            self.captured = pair

    def _backdoor_pair(self) -> AsymKeyPair:
        # Seeded from the target alone, so the adversary can regenerate it.
        return crypto.gen_keypair(self.role, Random(f"{self.backdoor_seed}:{self.index}"))

    def _leaked_pair(self) -> Optional[AsymKeyPair]:
        if self.mode == "backdoor_keygen":
            return self._backdoor_pair()
        return self.captured

    def _claim_key(self, knowledge: AdversaryKnowledge) -> None:
        claim = {"kind": self.role, "owner": self.owner_id, "via": self.attack_id}
        knowledge.recovered_keys.append(claim)


class ExfiltrateVenueKey(KeyExfiltration):
    """Modified venue frontend code leaks or backdoors the venue private key."""

    attack_id = "exfiltrate_venue_key"
    param, default_index, id_prefix = "venue", 0, "v"
    role, backdoor_seed = "venue", "backdoor"

    def finalize(self, world: World, knowledge: AdversaryKnowledge) -> AttackOutcome:
        if self.mode == "skip_checks":
            return self._outcome(
                True,
                "no additional venue-side checks exist in the baseline design",
                venue_id=self.owner_id,
                mode=self.mode,
            )
        leaked = self._leaked_pair()
        if leaked is None:
            return self._outcome(
                False,
                "no key yet (venue key not used; success deferred)",
                venue_id=self.owner_id,
                mode=self.mode,
            )
        ok = leaked.private.data == world.venues[self.index].keypair.private.data
        if ok:
            self.adversary.venue_keys[self.owner_id] = leaked.private.data
            self._claim_key(knowledge)
        return self._outcome(
            ok,
            "venue private key recovered" if ok else "captured key does not match",
            venue_id=self.owner_id,
            mode=self.mode,
        )


class ExfiltrateHDKey(KeyExfiltration):
    """Modified HD frontend code leaks the HD private encryption key, and with
    it every stored daily master key copy addressed to that HD."""

    attack_id = "exfiltrate_hd_key"
    param, default_index, id_prefix = "hd", 1, "hd"
    role, backdoor_seed = "health-dept-enc", "backdoor-hd"

    def _skip_checks(self, hooks: BackendHooks) -> None:
        hooks.hd_skip_cert_checks.add(self.owner_id)

    def finalize(self, world: World, knowledge: AdversaryKnowledge) -> AttackOutcome:
        if self.mode == "skip_checks":
            return self._outcome(
                True,
                "HD frontend certificate checks disabled; rotation accepts any key",
                hd_id=self.owner_id,
                mode=self.mode,
            )
        leaked = self._leaked_pair()
        if leaked is None:
            return self._outcome(
                False,
                "no key yet (HD key not used; success deferred)",
                hd_index=self.index,
                mode=self.mode,
            )
        if leaked.private.data != world.hds[self.index].enc_pair.private.data:
            return self._outcome(False, "captured key does not match", hd_index=self.index)
        self._claim_key(knowledge)
        recovered_days = self._recover_master_copies(world, self.owner_id, leaked.private)
        return self._outcome(
            bool(recovered_days),
            f"HD private key recovered; daily master keys for days {recovered_days}",
            hd_id=self.owner_id,
            days=recovered_days,
        )


class SubstituteMasterKey(Attack):
    """Publish an adversary daily master key under a self-made signature."""

    attack_id = "substitute_master_key"

    def __init__(self, adversary: Adversary, params: dict[str, Any]) -> None:
        super().__init__(adversary, params)
        self.day = params["day"]
        self.pair: Optional[AsymKeyPair] = None

    def install(self, world: World, day: int) -> None:
        pair = crypto.gen_keypair("daily-master", self.adversary.rng)
        sig = crypto.sign(
            self.adversary.sign_pair.private, master_sign_message(self.day, pair.public)
        )
        world.server.hooks.master_override[self.day] = MasterOverride(
            pair=pair, signature=sig, signer_public=self.adversary.sign_pair.public
        )
        self.pair = pair
        self.adversary.minted_master_pairs.append(pair)

    def finalize(self, world: World, knowledge: AdversaryKnowledge) -> AttackOutcome:
        truth = world.truth
        affected = [
            e
            for e in self._checkin_events(world)
            if e["master_source"] == SRC_SUBSTITUTED and e["day"] == self.day
        ]
        verified_records = self._verify_inner_refs(world, affected, self.pair.private)
        upload_hits = []
        for ev in truth.events:
            if ev.kind != "report_positive" or ev.data["master_source"] != SRC_SUBSTITUTED:
                continue
            code = ev.data["code"]
            try:
                payload = json.loads(
                    crypto.decrypt(self.pair.private, world.server.uploads[code].ciphertext)
                )
            except crypto.DecryptionFailure:
                continue
            if payload["user_id"] == ev.data["user_id"] and payload["seeds"] == ev.data["seeds"]:
                # Reconstruct the reporter's visits from the stolen seeds and
                # check the reconstruction against their true history.
                matched = {
                    rid
                    for d, secret_hex in payload["seeds"].items()
                    for rid in world.server.records_for_seed(
                        crypto.TracingSeed(int(d), bytes.fromhex(secret_hex)),
                        world.policy.max_checkins_per_day - 1,
                    )
                }
                days = {int(d) for d in payload["seeds"]}
                true_rids = {
                    v.record_id
                    for v in truth.true_visits(payload["user_id"])
                    if v.day in days
                }
                if matched == true_rids:
                    upload_hits.append(code)
        ok = bool(affected or upload_hits) and len(verified_records) == len(affected)
        reason = "" if (affected or upload_hits) else " (clients rejected the uncertified signer)"
        return self._outcome(
            ok,
            f"{len(verified_records)} inner layers and {len(upload_hits)} uploads "
            "decryptable under the substituted key" + reason,
            day=self.day,
            record_ids=verified_records,
            upload_codes=upload_hits,
        )


class ImpersonateHD(Attack):
    """Slip the adversary's key into the rotation fan-out list."""

    attack_id = "impersonate_hd"
    FAKE_ID = "hd-imposter"

    def install(self, world: World, day: int) -> None:
        world.server.hooks.rotation_extra_keys.append(
            (self.FAKE_ID, self.adversary.enc_pair.public, None)
        )

    def finalize(self, world: World, knowledge: AdversaryKnowledge) -> AttackOutcome:
        days = self._recover_master_copies(world, self.FAKE_ID, self.adversary.enc_pair.private)
        ok = bool(days)
        published_untouched = all(day not in world.server.hooks.master_override for day in days)
        reason = "" if ok else " (rotation excluded the uncertified key)"
        return self._outcome(
            ok,
            f"daily master private key recovered for days {days}" + reason,
            days=days,
            published_key_untouched=published_untouched,
        )


class HDDecryptionOracle(Attack):
    """Feed singly-encrypted records to an HD frontend and read back user ids."""

    attack_id = "hd_decryption_oracle"
    detectable = DETECTABLE_BY_HD

    def __init__(self, adversary: Adversary, params: dict[str, Any]) -> None:
        super().__init__(adversary, params)
        self.loot: dict[str, str] = {}

    def execute(self, world: World, t: int) -> None:
        hd = world.hds[self.params.get("hd", 0)]
        targets = dict(sorted(self.adversary.unconsented_strips.items()))
        limit = self.params.get("max_records")
        if limit is not None:
            targets = dict(list(targets.items())[:limit])
        if not targets:
            return
        world.transport.from_server(
            hd.label,
            MSG_OTHER,
            {
                "action": "singly_encrypted_records",
                "records": {rid: ref.ciphertext.hex() for rid, ref in targets.items()},
            },
            t,
        )
        results: dict[str, str] = {}
        for rid, ref in targets.items():
            day = world.server.checkins[rid].checkin_time // DAY_SECONDS
            try:
                sk = hd_get_master_sk(world, hd, day, t)
                uid, _ckey = crypto.open_user_reference(ref, sk)
            except Exception:
                continue
            results[rid] = uid
        world.transport.to_server(
            hd.identity,
            hd.label,
            MSG_OTHER,
            {"action": "decrypted_user_ids", "records": results},
            t,
        )
        self.loot = results

    def finalize(self, world: World, knowledge: AdversaryKnowledge) -> AttackOutcome:
        truth_user = {e["record_id"]: e["user_id"] for e in self._checkin_events(world)}
        verified = [
            rid for rid, uid in sorted(self.loot.items()) if truth_user.get(rid) == uid
        ]
        ok = len(verified) == len(self.loot)
        for rid in verified:
            knowledge.decrypted_refs.setdefault(
                rid,
                RecordClaim(
                    record_id=rid,
                    user_id=self.loot[rid],
                    via="venue_oracle+hd_oracle",
                    reference_disclosed=True,
                    outer_consented=False,
                ),
            )
        return self._outcome(
            ok,
            f"user ids of {len(verified)} records returned by the HD frontend",
            record_ids=verified,
        )


class ModifyScanner(Attack):
    """Compromised scanner code hands guests an adversary daily master key."""

    attack_id = "modify_scanner"

    def __init__(self, adversary: Adversary, params: dict[str, Any]) -> None:
        super().__init__(adversary, params)
        self.pair: Optional[AsymKeyPair] = None
        venue = params.get("venue", 0)
        self.scanner_id = f"v{venue:03d}:s{params.get('scanner', 0)}"

    def install(self, world: World, day: int) -> None:
        self.pair = crypto.gen_keypair("daily-master", self.adversary.rng)
        self.adversary.minted_master_pairs.append(self.pair)
        world.server.hooks.scanner_master_override[self.scanner_id] = self.pair.public

    def finalize(self, world: World, knowledge: AdversaryKnowledge) -> AttackOutcome:
        affected = [
            e
            for e in self._checkin_events(world)
            if e["scanner_id"] == self.scanner_id
            and e["master_source"] == SRC_SCANNER_OVERRIDE
        ]
        verified = self._verify_inner_refs(world, affected, self.pair.private)
        ok = bool(verified) and len(verified) == len(affected)
        return self._outcome(
            ok,
            f"inner layers of {len(verified)} uploads from the modified scanner "
            "encrypted to the adversary key",
            scanner_id=self.scanner_id,
            record_ids=verified,
        )


ATTACK_TYPES: dict[str, type[Attack]] = {
    cls.attack_id: cls
    for cls in (
        VenueDecryptionOracle,
        ExpandWindow,
        SubstituteVenueKey,
        ExfiltrateVenueKey,
        SubstituteMasterKey,
        ImpersonateHD,
        HDDecryptionOracle,
        ModifyScanner,
        ExfiltrateHDKey,
    )
}


def make_attack(adversary: Adversary, attack_id: str, params: dict[str, Any]) -> Attack:
    if attack_id not in ATTACK_TYPES:
        raise ValueError(f"unknown attack: {attack_id}")
    return ATTACK_TYPES[attack_id](adversary, params)


# -- consolidation --------------------------------------------------------------


def consented_strip_ids(server: BackendServer) -> set[str]:
    """Strips covered by an HD-scoped request, as the server itself knows."""
    out: set[str] = set()
    for view in server.trace_views:
        for rids in view.venue_windows.values():
            out.update(rids)
    return out


def consolidate(
    world: World, adversary: Optional[Adversary], knowledge: AdversaryKnowledge
) -> None:
    """Systematically exploit every capability the adversary has gathered.

    Works only on adversary-held material (server databases, recovered keys,
    decryption-oracle loot); ground truth plays no part here.  With a passive
    posture (``adversary is None``) only the server's legitimately held
    material is folded in.
    """
    server = world.server
    consented = consented_strip_ids(server)

    # 1. Outer layers: collect every singly-encrypted reference obtainable.
    for rid, ct in sorted(server.singly_refs.items()):
        knowledge.stripped_records.setdefault(
            rid,
            StrippedRecord(
                record_id=rid,
                inner_ciphertext=ct,
                via="trace" if rid in consented else "decryption_oracle",
                consented=rid in consented,
            ),
        )
    if adversary is None:
        _map_clusters(knowledge)
        return
    # A record's outer layer is sealed under its venue's key or, where the
    # server substituted that key, the adversary's.  Only self check-ins
    # fetch the venue key from the server, so the substituted key can only
    # have sealed records uploaded under the venue's self scanner, an id the
    # server assigned at registration.  Any other key fails AES-GCM
    # authentication, so only these are tried, per scanner id.
    outer_keys: dict[str, list[tuple[str, PrivateKey]]] = {}
    for venue in world.venues:
        if venue.venue_id in server.hooks.venue_pk_override:
            outer_keys[venue.self_scanner_id] = [
                ("substitute_venue_key", adversary.enc_pair.private)
            ]
    for venue_id, raw in adversary.venue_keys.items():
        sk = PrivateKey("venue", raw)
        for scanner_id in server.venues[venue_id].scanner_ids:
            outer_keys.setdefault(scanner_id, []).append(
                (f"exfiltrated_venue_key:{venue_id}", sk)
            )
    for rec in sorted(server.checkins.values(), key=lambda r: r.record_id):
        if rec.record_id in knowledge.stripped_records:
            continue
        for via, sk in outer_keys.get(rec.scanner_id, ()):
            try:
                inner = crypto.unwrap_outer(rec.double_enc_ref, sk)
            except crypto.DecryptionFailure:
                continue
            knowledge.stripped_records[rec.record_id] = StrippedRecord(
                record_id=rec.record_id,
                inner_ciphertext=inner.ciphertext,
                via=via,
                consented=False,
            )
            break

    # 2. Inner layers: both check-in flows seal under the master key of the
    # check-in day, or under a key the adversary minted and swapped in, so
    # the recovered master keys of other days are never tried.
    day_keys = {
        day: (f"master_key:day{day}", PrivateKey("daily-master", raw))
        for day, raw in adversary.master_keys.items()
    }
    minted_keys = [
        (f"minted_master:{i}", pair.private)
        for i, pair in enumerate(adversary.minted_master_pairs)
    ]
    for rid, stripped in sorted(knowledge.stripped_records.items()):
        if rid in knowledge.decrypted_refs:
            continue
        day = server.checkins[rid].checkin_time // DAY_SECONDS
        inner_keys = [day_keys[day], *minted_keys] if day in day_keys else minted_keys
        for via, sk in inner_keys:
            try:
                uid, ckey = crypto.open_user_reference(
                    EncryptedUserReference(1, stripped.inner_ciphertext), sk
                )
            except crypto.DecryptionFailure:
                continue
            knowledge.decrypted_refs[rid] = RecordClaim(
                record_id=rid,
                user_id=uid,
                via=f"{stripped.via}+{via}",
                reference_disclosed=True,
                outer_consented=stripped.consented,
                contact_key_hex=ckey.hex(),
            )
            break

    # 3. Contact data: any disclosed contact key opens the stored record.
    for rid, claim in sorted(knowledge.decrypted_refs.items()):
        if claim.contact_key_hex is None or claim.user_id in knowledge.contact_data:
            continue
        user = server.users.get(claim.user_id)
        if user is None:
            continue
        try:
            contact = json.loads(
                crypto.sym_decrypt(bytes.fromhex(claim.contact_key_hex), user.encrypted_contact)
            )
        except crypto.DecryptionFailure:
            continue
        knowledge.contact_data[claim.user_id] = ContactClaim(
            user_id=claim.user_id, contact=contact, via=claim.via
        )

    # 4. Uploads decryptable under minted or recovered master keys attribute
    # the reporter's records without touching the references.
    for code, upload in sorted(server.uploads.items()):
        keys = [
            PrivateKey("daily-master", adversary.master_keys[upload.day])
        ] if upload.day in adversary.master_keys else []
        keys.extend(p.private for p in adversary.minted_master_pairs)
        payload = None
        for sk in keys:
            try:
                payload = json.loads(crypto.decrypt(sk, upload.ciphertext))
                break
            except crypto.DecryptionFailure:
                continue
        if payload is None:
            continue
        knowledge.code_to_user_id.setdefault(code, payload["user_id"])
        for d, secret_hex in payload["seeds"].items():
            seed = crypto.TracingSeed(int(d), bytes.fromhex(secret_hex))
            for rid in server.records_for_seed(seed, world.policy.max_checkins_per_day - 1):
                if rid not in knowledge.decrypted_refs:
                    knowledge.traced_records.setdefault(
                        rid,
                        RecordClaim(
                            record_id=rid,
                            user_id=payload["user_id"],
                            via="decrypted_upload",
                            reference_disclosed=False,
                            outer_consented=None,
                        ),
                    )

    # 5. Map clusters to user ids where member attributions agree.
    _map_clusters(knowledge)


def _map_clusters(knowledge: AdversaryKnowledge) -> None:
    claims = knowledge.record_claims()
    for cluster in knowledge.clusters:
        users = {claims[rid].user_id for rid in cluster.record_ids if rid in claims}
        if len(users) == 1:
            knowledge.cluster_to_user_id[cluster.cluster_id] = users.pop()


def run_passive_analyses(
    world: World,
    knowledge: AdversaryKnowledge,
    config: LinkageConfig,
    toggles: dict[str, bool],
) -> None:
    """Run the enabled passive analyses and attach ground-truth scores."""
    server = world.server
    observations = world.transport.observations
    if toggles.get("link_checkins", True):
        knowledge.clusters = link_checkins_by_metadata(server, observations, config)
        knowledge.checkin_linkage = score_checkin_linkage(knowledge.clusters, world.truth)
    if toggles.get("link_groups", True):
        knowledge.group_hypotheses = link_groups(server, config)
        knowledge.group_linkage = score_group_linkage(knowledge.group_hypotheses, world.truth)
    if toggles.get("occupancy", True):
        knowledge.venue_occupancy = venue_occupancy_profile(server, world.policy.max_stay_s)
    if toggles.get("risk_rank", True):
        knowledge.venue_risk = venue_risk_rank(server)
    if toggles.get("correlate_trace_requests", True):
        code_to_user, code_to_addr = correlate_trace_requests(server, observations, config)
        knowledge.code_to_user_id.update(code_to_user)
        knowledge.code_to_address.update(code_to_addr)
    if toggles.get("observe_trace_leakage", True):
        observe_trace_leakage(server, knowledge)
