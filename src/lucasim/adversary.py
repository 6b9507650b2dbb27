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
from itertools import chain, islice
import json
import math
from random import Random
from typing import Any, Callable, NamedTuple, Optional

from . import crypto, metrics
from .crypto import AsymKeyPair, PrivateKey
from .actors import (
    BackendHooks,
    OUTER_SUBSTITUTED,
    SRC_SCANNER_OVERRIDE,
    SRC_SUBSTITUTED,
    BackendServer,
    MasterKeyInfo,
    World,
    hd_id_for,
    hd_open_references,
    master_sign_message,
    scanner_id_for,
    venue_decrypt_records,
    venue_id_for,
)
from .model import (
    DAY_SECONDS,
    REPORT_POSITIVE,
    CheckinRow,
    GroundTruthLog,
    SimulationError,
    visit_interval,
)
from .netsim import DEVICE_TYPES, MSG_CHECKIN_POLL, MSG_OTHER, NetworkObservation

UNDETECTABLE = "undetectable"
DETECTABLE_BY_HD = "detectable-by-HD"

ARRIVAL_WINDOW_S = 30  # check-ins at one scanner this close together arrive as a group
DEPARTURE_WINDOW_S = 120  # a group splits where checkouts lie further apart
MAX_PORT_GAP = 32  # a NAT chain continues across at most this source-port gap
CORRELATION_WINDOW_S = 60  # a contact fetch this soon after an upload fetch is its trace's


class Cluster(NamedTuple):
    """Check-in records the adversary links to one device by network metadata;
    its cluster id is its position in ``AdversaryKnowledge.clusters``."""

    kind: str  # "ipv6" | "nat_chain"
    anchor: str
    record_ids: list[str]


class RecordClaim(NamedTuple):
    """The user the adversary believes one record, the claim's key, belongs to."""

    user_id: str
    via: str
    contact_key_hex: Optional[str] = None


class ContactClaim(NamedTuple):
    """A contact record the adversary believes it has recovered for the user
    it is filed under."""

    contact: dict[str, str]
    via: str


class StrippedRecord(NamedTuple):
    """The inner layer of the record it is filed under, whose outer layer the
    adversary holds removed, with its provenance: ``via`` is ``"trace"`` for a
    strip a consented trace request covered."""

    inner_ciphertext: bytes
    via: str


class AttackOutcome(NamedTuple):
    """The verdict of one attack against ground truth, as the report shows it."""

    attack_id: str
    succeeded: bool
    secrets_learned: str
    detectable: str
    details: dict[str, Any]


class AdversaryKnowledge:
    """Everything the adversary has inferred or recovered by the end of a run."""

    __slots__ = (
        "clusters",
        "checkin_linkage",
        "group_hypotheses",
        "group_linkage",
        "venue_occupancy",
        "venue_risk",
        "code_to_address",
        "code_to_user_id",
        "stripped_records",
        "decrypted_refs",
        "traced_records",
        "contact_data",
        "cluster_to_user_id",
        "attack_outcomes",
    )

    def __init__(self) -> None:
        self.clusters: list[Cluster] = []
        self.checkin_linkage: Optional[dict[str, Any]] = None
        self.group_hypotheses: list[list[str]] = []
        self.group_linkage: Optional[dict[str, Any]] = None
        self.venue_occupancy: dict[str, list[tuple[int, int]]] = {}
        self.venue_risk: list[tuple[str, int]] = []
        self.code_to_address: dict[str, str] = {}
        self.code_to_user_id: dict[str, str] = {}
        self.stripped_records: dict[str, StrippedRecord] = {}
        self.decrypted_refs: dict[str, RecordClaim] = {}
        self.traced_records: dict[str, RecordClaim] = {}
        self.contact_data: dict[str, ContactClaim] = {}
        self.cluster_to_user_id: dict[int, str] = {}
        self.attack_outcomes: list[AttackOutcome] = []

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
    speed_kmh: float,
) -> list[Cluster]:
    """Partition check-in records into hypothesized same-user clusters.

    A record is anchored by the poll that confirmed it (address, port, device
    type).  Unique IPv6 addresses link exactly; behind an IPv4 gateway, a
    greedy chain walk links records whose ports continue a known cursor, whose
    device types match, and whose venue/time geometry a single person
    travelling at ``speed_kmh`` could have produced.
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
        clusters.append(Cluster(kind="ipv6", anchor=addr, record_ids=sorted(by_ipv6[addr])))

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
                if gap <= 0 or gap > MAX_PORT_GAP:
                    continue
                departure = chain["last_checkout"]
                if departure is None:
                    departure = chain["last_checkin"]
                if rec.checkin_time < departure:
                    continue  # one person cannot be in two venues at once
                dist = haversine_km(chain["last_lat"], chain["last_lon"], venue.lat, venue.lon)
                if dist > speed_kmh * (rec.checkin_time - departure) / 3600.0:
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
                Cluster(kind="nat_chain", anchor=f"{addr}/{i}", record_ids=sorted(chain["members"]))
            )
    return clusters


def score_checkin_linkage(
    clusters: list[Cluster], truth: GroundTruthLog
) -> dict[str, Any]:
    labels = {v.record_id: v.user_id for v in truth.all_visits()}
    scores = metrics.pairwise_scores([c.record_ids for c in clusters], labels)
    scores["clusters"] = len(clusters)
    return scores


def link_groups(server: BackendServer) -> list[list[str]]:
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
            if arrival_groups and (
                rec.checkin_time - arrival_groups[-1][-1].checkin_time <= ARRIVAL_WINDOW_S
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
                if subgroups and (
                    rec.checkout_time - subgroups[-1][-1].checkout_time <= DEPARTURE_WINDOW_S
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


def venue_occupancy_profile(server: BackendServer) -> dict[str, list[tuple[int, int]]]:
    """Step function of concurrent visitors per venue, from server records.

    Each visit counts over ``model.visit_interval``, the interval the tracing
    pipeline uses: visits without a recorded checkout last the maximum stay.
    """
    deltas: dict[str, dict[int, int]] = {vid: {} for vid in server.venues}
    for rec in server.checkins.values():
        vid = server.scanner_to_venue[rec.scanner_id]
        start, end = visit_interval(rec.checkin_time, rec.checkout_time)
        d = deltas[vid]
        d[start] = d.get(start, 0) + 1
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
    server: BackendServer, observations: list[NetworkObservation]
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
    # Each search starts at the first contact fetch logged after its upload
    # fetch: the log positions of the contact fetches ascend.
    log = server.request_log
    fetch_seqs = [seq for seq, e in enumerate(log) if e["kind"] == "fetch_contact"]
    used: set[int] = set()
    for seq, entry in enumerate(log):
        if entry["kind"] != "fetch_upload":
            continue
        for i in range(bisect.bisect_left(fetch_seqs, seq), len(fetch_seqs)):
            fetch_seq = fetch_seqs[i]
            if fetch_seq in used:
                continue
            fetch = log[fetch_seq]
            if not 0 <= fetch["t"] - entry["t"] <= CORRELATION_WINDOW_S:
                continue
            code_to_user_id[entry["param"]] = fetch["param"]
            used.add(fetch_seq)
            break
    return dict(sorted(code_to_user_id.items())), dict(sorted(code_to_address.items()))


def observe_trace_leakage(server: BackendServer, knowledge: AdversaryKnowledge) -> None:
    """Fold what the server learned while mediating traces into the knowledge."""
    for view in server.trace_views:
        for rid in view.matched_record_ids:
            knowledge.traced_records.setdefault(rid, RecordClaim(user_id=view.index_user_id, via="trace"))
        # Unambiguous contact attribution: exactly one non-index record in the
        # decrypt scope and exactly one contact fetched.
        scope = sorted(
            {rid for rids in view.venue_windows.values() for rid in rids}
            - set(view.matched_record_ids)
        )
        contacts = [u for u in view.contact_user_ids if u != view.index_user_id]
        if len(scope) == 1 and len(contacts) == 1:
            knowledge.traced_records.setdefault(
                scope[0], RecordClaim(user_id=contacts[0], via="trace-correlation")
            )


# -- adversary state and active attacks ----------------------------------------


class Adversary:
    """Key material and shared loot of the backend-server adversary."""

    def __init__(self, rng: Random) -> None:
        self.rng = rng
        self.enc_pair = crypto.gen_keypair("adversary", rng)
        self.sign_pair = crypto.gen_keypair("adversary-sign", rng)
        # Singly-encrypted references obtained outside any consent scope.
        self.unconsented_strips: dict[str, bytes] = {}
        # Daily master private keys recovered by any means: day -> raw key.
        self.master_keys: dict[int, bytes] = {}
        # Master-role pairs the adversary itself minted (substitutions).
        self.minted_master_pairs: list[AsymKeyPair] = []
        # Venue private keys recovered: venue_id -> raw key.
        self.venue_keys: dict[str, bytes] = {}


class Attack:
    attack_id = "abstract"
    detectable = UNDETECTABLE
    # Every param the attack reads, with its default; a scenario may set only
    # these. ``venue``, ``hd``, ``scanner`` and ``day`` are indices, and an
    # index whose default is ``None`` is required.
    PARAMS: dict[str, Any] = {}
    # The params whose values name the hook slot ``install`` overwrites, or
    # None when it overwrites none: of two plan entries with the same values,
    # only the later one's hook would stay installed.
    HOOK_SLOT: Optional[tuple[str, ...]] = None

    def __init__(self, adversary: Adversary, params: dict[str, Any]) -> None:
        self.adversary = adversary
        self.params = {**self.PARAMS, **params}

    def install(self, world: World) -> None:  # pragma: no cover - default
        pass

    def execute(self, world: World, t: int) -> None:  # pragma: no cover - default
        pass

    def finalize(self, world: World, knowledge: AdversaryKnowledge) -> AttackOutcome:
        raise NotImplementedError

    @classmethod
    def hook_slot(cls, params: dict[str, Any]) -> Optional[tuple[Any, ...]]:
        """The hook slot a plan entry with ``params`` overwrites, or None."""
        if cls.HOOK_SLOT is None:
            return None
        params = {**cls.PARAMS, **params}
        return (cls.attack_id, *(params[key] for key in cls.HOOK_SLOT))

    # helpers ---------------------------------------------------------------

    def _outcome(self, succeeded: bool, learned: str, **details: Any) -> AttackOutcome:
        return AttackOutcome(
            attack_id=self.attack_id,
            succeeded=succeeded,
            secrets_learned=learned,
            detectable=self.detectable,
            details=details,
        )

    @staticmethod
    def _verify_inner_refs(world: World, affected: list[CheckinRow], sk: PrivateKey) -> list[str]:
        """Ids of the affected check-ins whose inner reference opens under
        ``sk`` to the true user id and contact key."""
        contact_keys = world.truth.view().contact_keys
        verified = []
        for e in sorted(affected, key=lambda e: e.record_id):
            try:
                uid, ckey = crypto.open_user_reference(bytes.fromhex(e.inner_ref), sk)
            except crypto.DecryptionFailure:
                continue
            if uid == e.user_id and ckey.hex() == contact_keys[uid]:
                verified.append(e.record_id)
        return verified

    @staticmethod
    def _true_strips(world: World, strips: dict[str, bytes]) -> list[str]:
        """Sorted ids of the strips whose inner ciphertext is the record's
        true inner reference."""
        inner_refs = world.truth.view().inner_refs
        return [rid for rid, ct in sorted(strips.items()) if ct.hex() == inner_refs.get(rid)]

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
            if crypto.x25519_public_bytes(raw) == info.public.data:
                recovered_days.append(day)
                self.adversary.master_keys[day] = raw
        return recovered_days


class VenueDecryptionOracle(Attack):
    """Ask a venue to remove outer layers of arbitrary records; it cannot
    authenticate the request and complies."""

    attack_id = "venue_decryption_oracle"
    PARAMS = {"venue": 0}

    def __init__(self, adversary: Adversary, params: dict[str, Any]) -> None:
        super().__init__(adversary, params)
        self.loot: dict[str, bytes] = {}
        self.requested: list[str] = []
        self.offline: Optional[str] = None

    def execute(self, world: World, t: int) -> None:
        venue = world.venues[self.params["venue"]]
        records = [r.record_id for r in world.server.records_at_venue(venue.venue_id)]
        self.requested = records
        if not records:
            return
        if venue.unavailable:
            self.offline = venue.venue_id
            return
        self.loot = venue_decrypt_records(world, venue, records, t, requester="server")
        self.adversary.unconsented_strips.update(self.loot)

    def finalize(self, world: World, knowledge: AdversaryKnowledge) -> AttackOutcome:
        verified = self._true_strips(world, self.loot)
        ok = bool(verified) and len(verified) == len(self.loot)
        reason = "" if self.offline is None else f" (venue {self.offline} offline)"
        return self._outcome(
            ok,
            f"outer layer removed from {len(verified)} records without consent" + reason,
            record_ids=sorted(self.loot),
            requested=len(self.requested),
        )


class ExpandWindow(Attack):
    """Pad a legitimate tracing decryption request with out-of-scope records."""

    attack_id = "expand_window"
    PARAMS = {"pad_per_venue": 5}
    HOOK_SLOT = ()

    def __init__(self, adversary: Adversary, params: dict[str, Any]) -> None:
        super().__init__(adversary, params)
        self.padded: list[str] = []

    def install(self, world: World) -> None:
        pad_count = self.params["pad_per_venue"]

        def pad(venue_id: str, legit: list[str], server: BackendServer) -> list[str]:
            in_scope = set(legit)
            ids = (r.record_id for r in server.records_at_venue(venue_id))
            extras = list(islice((rid for rid in ids if rid not in in_scope), pad_count))
            self.padded.extend(extras)
            return extras

        world.server.hooks.trace_padding = pad

    def finalize(self, world: World, knowledge: AdversaryKnowledge) -> AttackOutcome:
        padded = set(self.padded)
        singly = world.server.singly_refs
        stripped = self._true_strips(world, {rid: singly[rid] for rid in padded if rid in singly})
        ok = bool(stripped) and len(stripped) == len(padded)
        return self._outcome(
            ok,
            f"{len(stripped)} out-of-window records decrypted by the venue",
            record_ids=stripped,
        )


class SubstituteVenueKey(Attack):
    """Serve the adversary's key instead of the venue key for self check-ins."""

    attack_id = "substitute_venue_key"
    PARAMS = {"venue": 0}
    HOOK_SLOT = ("venue",)

    def install(self, world: World) -> None:
        venue_id = venue_id_for(self.params["venue"])
        world.server.hooks.venue_pk_override[venue_id] = self.adversary.enc_pair.public
        self.venue_id = venue_id

    def finalize(self, world: World, knowledge: AdversaryKnowledge) -> AttackOutcome:
        affected = [
            e
            for e in world.truth.view().checkins.values()
            if e.venue_id == self.venue_id and e.outer_key == OUTER_SUBSTITUTED
        ]
        strips = {}
        for e in affected:
            rec = world.server.checkins[e.record_id]
            try:
                strips[rec.record_id] = crypto.decrypt(
                    self.adversary.enc_pair.private, rec.double_enc_ref
                )
            except crypto.DecryptionFailure:
                continue
        verified = self._true_strips(world, strips)
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
    index param with its default, the owner id of an index), the key's role
    and the backdoor seed, and words its own outcome.
    """

    MODES = ("exfil_on_gen", "exfil_on_use", "backdoor_keygen", "skip_checks")
    PARAMS = {"mode": MODES[0]}
    param = ""
    owner_id_for: Callable[[int], str]
    role, backdoor_seed = "", ""

    def __init__(self, adversary: Adversary, params: dict[str, Any]) -> None:
        super().__init__(adversary, params)
        self.captured: Optional[AsymKeyPair] = None
        self.mode = self.params["mode"]
        if self.mode not in self.MODES:
            raise SimulationError(f"unknown {self.attack_id} mode {self.mode!r}")
        self.index = self.params[self.param]
        self.owner_id = self.owner_id_for(self.index)

    @classmethod
    def hook_slot(cls, params: dict[str, Any]) -> Optional[tuple[Any, ...]]:
        # skip_checks overwrites no hook: it adds to a set, or does nothing.
        if params.get("mode", cls.PARAMS["mode"]) == "skip_checks":
            return None
        return super().hook_slot(params)

    def install(self, world: World) -> None:
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


class ExfiltrateVenueKey(KeyExfiltration):
    """Modified venue frontend code leaks or backdoors the venue private key."""

    attack_id = "exfiltrate_venue_key"
    PARAMS = {**KeyExfiltration.PARAMS, "venue": 0}
    HOOK_SLOT = ("venue", "mode")
    param, owner_id_for = "venue", staticmethod(venue_id_for)
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
    PARAMS = {**KeyExfiltration.PARAMS, "hd": 1}
    HOOK_SLOT = ("hd", "mode")
    param, owner_id_for = "hd", staticmethod(hd_id_for)
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
    PARAMS = {"day": None}
    HOOK_SLOT = ("day",)

    def __init__(self, adversary: Adversary, params: dict[str, Any]) -> None:
        super().__init__(adversary, params)
        self.day = self.params["day"]
        self.pair: Optional[AsymKeyPair] = None

    def install(self, world: World) -> None:
        pair = crypto.gen_keypair("daily-master", self.adversary.rng)
        sig = crypto.sign(
            self.adversary.sign_pair.private, master_sign_message(self.day, pair.public)
        )
        world.server.hooks.master_override[self.day] = MasterKeyInfo(
            pair.public, sig, self.adversary.sign_pair.public, None, {}
        )
        self.pair = pair
        self.adversary.minted_master_pairs.append(pair)

    def finalize(self, world: World, knowledge: AdversaryKnowledge) -> AttackOutcome:
        truth = world.truth
        affected = [
            e
            for e in truth.view().checkins.values()
            if e.master_source == SRC_SUBSTITUTED and e.day == self.day
        ]
        verified_records = self._verify_inner_refs(world, affected, self.pair.private)
        upload_hits = []
        for ev in truth.events:
            if ev.kind != REPORT_POSITIVE or ev.data["master_source"] != SRC_SUBSTITUTED:
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
                matched = set(world.server.records_for_seeds(payload["seeds"]))
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

    def install(self, world: World) -> None:
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
    PARAMS = {"hd": 0}

    def __init__(self, adversary: Adversary, params: dict[str, Any]) -> None:
        super().__init__(adversary, params)
        self.loot: dict[str, str] = {}

    def execute(self, world: World, t: int) -> None:
        hd = world.hds[self.params["hd"]]
        targets = self.adversary.unconsented_strips
        if not targets:
            return
        opened = hd_open_references(world, hd, targets, t)
        results = {rid: uid for rid, (uid, _ckey) in opened.items()}
        world.transport.to_server(
            hd.identity,
            hd.label,
            MSG_OTHER,
            {"action": "decrypted_user_ids", "records": results},
            t,
        )
        self.loot = results

    def finalize(self, world: World, knowledge: AdversaryKnowledge) -> AttackOutcome:
        truth_user = world.truth.view().record_user
        verified = [
            rid for rid, uid in sorted(self.loot.items()) if truth_user.get(rid) == uid
        ]
        ok = bool(verified) and len(verified) == len(self.loot)
        for rid in verified:
            claim = RecordClaim(user_id=self.loot[rid], via="venue_oracle+hd_oracle")
            knowledge.decrypted_refs.setdefault(rid, claim)
        return self._outcome(
            ok,
            f"user ids of {len(verified)} records returned by the HD frontend",
            record_ids=verified,
        )


class ModifyScanner(Attack):
    """Compromised scanner code hands guests an adversary daily master key."""

    attack_id = "modify_scanner"
    PARAMS = {"venue": 0, "scanner": 0}
    HOOK_SLOT = ("venue", "scanner")

    def __init__(self, adversary: Adversary, params: dict[str, Any]) -> None:
        super().__init__(adversary, params)
        self.pair: Optional[AsymKeyPair] = None
        self.scanner_id = scanner_id_for(self.params["venue"], self.params["scanner"])

    def install(self, world: World) -> None:
        self.pair = crypto.gen_keypair("daily-master", self.adversary.rng)
        self.adversary.minted_master_pairs.append(self.pair)
        world.server.hooks.scanner_master_override[self.scanner_id] = self.pair.public

    def finalize(self, world: World, knowledge: AdversaryKnowledge) -> AttackOutcome:
        affected = [
            e
            for e in world.truth.view().checkins.values()
            if e.scanner_id == self.scanner_id and e.master_source == SRC_SCANNER_OVERRIDE
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
        raise SimulationError(f"unknown attack: {attack_id}")
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
        via = "trace" if rid in consented else "decryption_oracle"
        knowledge.stripped_records.setdefault(rid, StrippedRecord(inner_ciphertext=ct, via=via))
    if adversary is None:
        _map_clusters(knowledge)
        return
    # Held keys are tried on every record and upload until one opens it.
    # A wrong key fails authentication (inside a run, the sealed record in
    # ``crypto.decrypt`` rejects it without computing), so the key that opens
    # a ciphertext is the one that sealed it.
    outer_keys = [("substitute_venue_key", adversary.enc_pair.private)] + [
        (f"exfiltrated_venue_key:{venue_id}", PrivateKey("venue", raw))
        for venue_id, raw in sorted(adversary.venue_keys.items())
    ]
    for rid, rec in sorted(server.checkins.items()):
        if rid in knowledge.stripped_records:
            continue
        opened = _first_opening(outer_keys, lambda sk: crypto.decrypt(sk, rec.double_enc_ref))
        if opened is not None:
            via, inner = opened
            knowledge.stripped_records[rid] = StrippedRecord(inner_ciphertext=inner, via=via)

    # 2. Inner layers: recovered daily master keys, then the minted ones.
    # The record's check-in day, which the server holds, names the key that
    # sealed it unless a substitution did, so that day's key goes first.
    day_keys = {
        day: (f"master_key:day{day}", PrivateKey("daily-master", raw))
        for day, raw in sorted(adversary.master_keys.items())
    }
    inner_keys = [*day_keys.values()] + [
        (f"minted_master:{i}", p.private) for i, p in enumerate(adversary.minted_master_pairs)
    ]
    for rid, stripped in sorted(knowledge.stripped_records.items()):
        if rid in knowledge.decrypted_refs:
            continue
        inner = stripped.inner_ciphertext
        day_key = day_keys.get(server.checkins[rid].checkin_time // DAY_SECONDS)
        opened = _first_opening(
            inner_keys, lambda sk: crypto.open_user_reference(inner, sk), day_key
        )
        if opened is not None:
            via, (uid, ckey) = opened
            knowledge.decrypted_refs[rid] = RecordClaim(
                user_id=uid, via=f"{stripped.via}+{via}", contact_key_hex=ckey.hex()
            )

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
        knowledge.contact_data[claim.user_id] = ContactClaim(contact=contact, via=claim.via)

    # 4. Uploads decryptable under minted or recovered master keys attribute
    # the reporter's records without touching the references; an upload is
    # sealed under the key of its day.
    for code, upload in sorted(server.uploads.items()):
        opened = _first_opening(
            inner_keys, lambda sk: crypto.decrypt(sk, upload.ciphertext), day_keys.get(upload.day)
        )
        if opened is None:
            continue
        payload = json.loads(opened[1])
        knowledge.code_to_user_id.setdefault(code, payload["user_id"])
        for rid in server.records_for_seeds(payload["seeds"]):
            if rid not in knowledge.decrypted_refs:
                knowledge.traced_records.setdefault(
                    rid, RecordClaim(user_id=payload["user_id"], via="decrypted_upload")
                )

    # 5. Map clusters to user ids where member attributions agree.
    _map_clusters(knowledge)


def _first_opening(
    keys: list[tuple[str, PrivateKey]],
    open_with: Callable[[PrivateKey], Any],
    first: Optional[tuple[str, PrivateKey]] = None,
) -> Optional[tuple[str, Any]]:
    """The ``via`` label of the first key that ``open_with`` accepts, with
    what it opened; ``None`` when every key fails.  ``first``, one of
    ``keys``, is tried before the rest."""
    if first is not None:
        keys = chain([first], (key for key in keys if key is not first))
    for via, sk in keys:
        try:
            return via, open_with(sk)
        except crypto.DecryptionFailure:
            pass
    return None


def _map_clusters(knowledge: AdversaryKnowledge) -> None:
    claims = knowledge.record_claims()
    for cluster_id, cluster in enumerate(knowledge.clusters):
        users = {claims[rid].user_id for rid in cluster.record_ids if rid in claims}
        if len(users) == 1:
            knowledge.cluster_to_user_id[cluster_id] = users.pop()


def run_passive_analyses(world: World, knowledge: AdversaryKnowledge, speed_kmh: float) -> None:
    """Run every passive analysis and attach ground-truth scores."""
    server = world.server
    observations = world.transport.observations
    knowledge.clusters = link_checkins_by_metadata(server, observations, speed_kmh)
    knowledge.checkin_linkage = score_checkin_linkage(knowledge.clusters, world.truth)
    knowledge.group_hypotheses = link_groups(server)
    knowledge.group_linkage = score_group_linkage(knowledge.group_hypotheses, world.truth)
    knowledge.venue_occupancy = venue_occupancy_profile(server)
    knowledge.venue_risk = venue_risk_rank(server)
    code_to_user, code_to_addr = correlate_trace_requests(server, observations)
    knowledge.code_to_user_id.update(code_to_user)
    knowledge.code_to_address.update(code_to_addr)
    observe_trace_leakage(server, knowledge)
