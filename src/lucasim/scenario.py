"""Scenario configuration, deterministic schedule generation, and the driver.

A scenario file fully determines a run: population and venue synthesis,
network parameters, scripted visits, positive reports, the adversary's
posture and attack plan, and mitigation switches.  The driver expands the
configuration into a single time-ordered action list and executes it, so
identical configuration and seed replay to identical artifacts.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from importlib import resources
from random import Random
from typing import Any, Callable, Optional

from . import actors, adversary as adv, objectives
from .actors import (
    TraceResult,
    World,
    flow_checkin_scanner,
    flow_checkin_self,
    flow_checkout,
    flow_register_health_dept,
    flow_register_user,
    flow_register_venue,
    flow_report_positive,
    flow_rotate_daily_master_key,
    flow_trace,
    record_group_arrival,
)
from .adversary import Adversary, AdversaryKnowledge, Attack, LinkageConfig, make_attack
from .model import (
    DAY_SECONDS,
    CertificateAuthority,
    GroundTruthLog,
    MitigationConfig,
    TracingPolicy,
)
from .netsim import CarrierNetwork, NetworkConfig, Transport
from .report import SCHEMA_VERSION, canonical_json
from . import crypto

VENUE_TYPES = ("restaurant", "bar", "religious", "political", "private-event", "school", "other")
DEFAULT_TYPE_MIX = {
    "restaurant": 0.4,
    "bar": 0.25,
    "religious": 0.1,
    "political": 0.05,
    "private-event": 0.1,
    "school": 0.05,
    "other": 0.05,
}
# City-scale box (about 11 km x 10 km); the population model has no travel
# times, so venue distances must stay coverable between outings.
DEFAULT_BBOX = (52.45, 13.30, 52.55, 13.45)


class ConfigError(Exception):
    """Scenario configuration rejected; carries the offending field path."""

    def __init__(self, path: str, message: str) -> None:
        super().__init__(f"{path}: {message}")
        self.path = path
        self.message = message


class _Section:
    """Typed field extraction with path-qualified errors."""

    def __init__(self, data: dict[str, Any], path: str) -> None:
        if not isinstance(data, dict):
            raise ConfigError(path, "must be an object")
        self.data = data
        self.path = path

    def _path(self, key: str) -> str:
        return f"{self.path}.{key}" if self.path else key

    def child(self, key: str, default: Optional[dict] = None) -> "_Section":
        value = self.data.get(key, default if default is not None else {})
        return _Section(value, self._path(key))

    def get(self, key: str, kind, default=None, required: bool = False):
        path = self._path(key)
        if key not in self.data:
            if required:
                raise ConfigError(path, "required field is missing")
            return default
        value = self.data[key]
        if kind is float and isinstance(value, int) and not isinstance(value, bool):
            value = float(value)
        if kind is not None and not isinstance(value, kind):
            raise ConfigError(path, f"expected {getattr(kind, '__name__', kind)}")
        return value

    def number(self, key: str, default=None, required=False, minimum=None, maximum=None):
        value = self.get(key, (int, float), default, required)
        if value is None:
            return None
        if isinstance(value, bool):
            raise ConfigError(self._path(key), "expected a number")
        if minimum is not None and value < minimum:
            raise ConfigError(self._path(key), f"must be >= {minimum}")
        if maximum is not None and value > maximum:
            raise ConfigError(self._path(key), f"must be <= {maximum}")
        return value

    def integer(self, key: str, default=None, required=False, minimum=None, maximum=None):
        value = self.number(key, default, required, minimum, maximum)
        if value is not None and not isinstance(value, int):
            raise ConfigError(self._path(key), "expected an integer")
        return value


def _numbers(values: list[Any]) -> bool:
    """True iff every entry is a finite int or float (JSON booleans excluded)."""
    return all(
        isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)
        for v in values
    )


@dataclass(frozen=True)
class PopulationConfig:
    guests: int
    group_size_weights: dict[int, float]
    visits_per_day: float
    exact_visits_total: Optional[int]
    p_checkout: float
    stay_minutes: tuple[int, int]
    arrival_spread_s: int
    departure_spread_s: int
    self_checkin_fraction: float
    p_reconnect_per_day: float


@dataclass(frozen=True)
class VenuesConfig:
    count: int
    type_mix: dict[str, float]
    bbox: tuple[float, float, float, float]
    scanners_per_venue: int
    unavailable: tuple[int, ...]


@dataclass(frozen=True)
class PositiveCase:
    guest: Optional[int]
    report_day: int
    window_back: Optional[int]
    traced: bool


@dataclass(frozen=True)
class AttackPlanEntry:
    attack: str
    day: int
    params: dict[str, Any]


@dataclass(frozen=True)
class ScriptVisit:
    day: int
    at: int  # seconds after day start
    venue: int
    guests: tuple[int, ...]
    stay_s: int
    mode: str  # "scanner" | "self"
    scanner: int
    spread_s: int
    checkout: bool


@dataclass(frozen=True)
class ScenarioConfig:
    name: str
    seed: int
    duration_days: int
    population: PopulationConfig
    venues: VenuesConfig
    network: NetworkConfig
    health_depts: int
    positives: tuple[PositiveCase, ...]
    posture: str
    attacks: tuple[AttackPlanEntry, ...]
    mitigations: MitigationConfig
    analysis: dict[str, bool]
    tracing: TracingPolicy
    linkage: LinkageConfig
    script: tuple[ScriptVisit, ...]
    raw: dict[str, Any]

    def digest(self) -> str:
        canon = json.dumps(self.raw, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()


_ANALYSIS_KEYS = (
    "link_checkins",
    "link_groups",
    "occupancy",
    "risk_rank",
    "correlate_trace_requests",
    "observe_trace_leakage",
)

_TOP_LEVEL_KEYS = {
    "name",
    "seed",
    "duration_days",
    "population",
    "venues",
    "network",
    "health_depts",
    "positives",
    "adversary",
    "mitigations",
    "analysis",
    "tracing",
    "linkage",
    "script",
}


def parse_config(data: dict[str, Any]) -> ScenarioConfig:
    """Validate a raw scenario object; raises :class:`ConfigError` with a path."""
    root = _Section(data, "")
    unknown = sorted(set(data) - _TOP_LEVEL_KEYS)
    if unknown:
        raise ConfigError(unknown[0], "unknown field")
    name = root.get("name", str, required=True)
    seed = root.integer("seed", required=True)
    duration = root.integer("duration_days", required=True, minimum=1)

    pop = root.child("population")
    guests = pop.integer("guests", required=True, minimum=1)
    weights_raw = pop.get("group_size_weights", dict, {"1": 1.0})
    weights: dict[int, float] = {}
    for k, v in weights_raw.items():
        try:
            size = int(k)
        except (TypeError, ValueError):
            raise ConfigError("population.group_size_weights", f"bad group size {k!r}")
        if size < 1 or not isinstance(v, (int, float)) or v < 0:
            raise ConfigError("population.group_size_weights", "sizes >= 1, weights >= 0")
        weights[size] = float(v)
    if not weights or sum(weights.values()) <= 0:
        raise ConfigError("population.group_size_weights", "needs positive total weight")
    stay = pop.get("stay_minutes", list, [30, 120])
    if len(stay) != 2 or not _numbers(stay) or stay[0] < 1 or stay[1] < stay[0]:
        raise ConfigError("population.stay_minutes", "expected [min, max] minutes")
    population = PopulationConfig(
        guests=guests,
        group_size_weights=dict(sorted(weights.items())),
        visits_per_day=pop.number("visits_per_day", 1.0, minimum=0.0),
        exact_visits_total=pop.integer("exact_visits_total", minimum=0),
        p_checkout=pop.number("p_checkout", 0.9, minimum=0.0, maximum=1.0),
        stay_minutes=(int(stay[0]), int(stay[1])),
        arrival_spread_s=pop.integer("arrival_spread_s", 10, minimum=0),
        departure_spread_s=pop.integer("departure_spread_s", 40, minimum=0),
        self_checkin_fraction=pop.number("self_checkin_fraction", 0.0, minimum=0.0, maximum=1.0),
        p_reconnect_per_day=pop.number("p_reconnect_per_day", 0.0, minimum=0.0, maximum=1.0),
    )

    ven = root.child("venues")
    type_mix = ven.get("type_mix", dict, dict(DEFAULT_TYPE_MIX))
    for vt in type_mix:
        if vt not in VENUE_TYPES:
            raise ConfigError("venues.type_mix", f"unknown venue type {vt!r}")
    bbox = ven.get("bbox", list, list(DEFAULT_BBOX))
    if len(bbox) != 4 or not _numbers(bbox):
        raise ConfigError("venues.bbox", "expected [lat0, lon0, lat1, lon1]")
    count = ven.integer("count", required=True, minimum=1)
    unavailable = ven.get("unavailable", list, [])
    for v in unavailable:
        if isinstance(v, bool) or not isinstance(v, int) or not 0 <= v < count:
            raise ConfigError("venues.unavailable", f"bad venue index {v!r}")
    venues = VenuesConfig(
        count=count,
        type_mix=type_mix,
        bbox=tuple(float(x) for x in bbox),
        scanners_per_venue=ven.integer("scanners_per_venue", 1, minimum=1),
        unavailable=tuple(unavailable),
    )

    net = root.child("network")
    carriers = net.integer("carriers", 3, minimum=1)
    ipv6 = net.get("ipv6_probability", list, None)
    if ipv6 is None:
        ipv6 = [1.0, 1.0, 0.0][:carriers] + [0.0] * max(0, carriers - 3)
    if len(ipv6) != carriers:
        raise ConfigError("network.ipv6_probability", "needs one entry per carrier")
    for p in ipv6:
        if not isinstance(p, (int, float)) or not 0.0 <= p <= 1.0:
            raise ConfigError("network.ipv6_probability", "entries must be in [0, 1]")
    pool = net.get("nat_pool", list, [16, 64])
    if len(pool) != 2 or not _numbers(pool) or pool[0] < 1 or pool[1] < pool[0]:
        raise ConfigError("network.nat_pool", "expected [min, max]")
    network = NetworkConfig(
        carriers=carriers,
        ipv6_probability=tuple(float(p) for p in ipv6),
        nat_pool_min=int(pool[0]),
        nat_pool_max=int(pool[1]),
        adoption=net.number("adoption", 0.3, minimum=0.01, maximum=1.0),
    )

    health_depts = root.integer("health_depts", 400, minimum=1)

    positives: list[PositiveCase] = []
    for i, case_raw in enumerate(root.get("positives", list, [])):
        case = _Section(case_raw, f"positives[{i}]")
        report_day = case.integer("report_day", required=True, minimum=0)
        if report_day >= duration:
            raise ConfigError(f"positives[{i}].report_day", "beyond scenario duration")
        positives.append(
            PositiveCase(
                guest=case.integer("guest", minimum=0, maximum=guests - 1),
                report_day=report_day,
                window_back=case.integer("window_back", minimum=0),
                traced=case.get("traced", bool, True),
            )
        )
    # Each case without a guest draws one not already chosen by another case.
    random_cases = sum(1 for c in positives if c.guest is None)
    named = {c.guest for c in positives if c.guest is not None}
    if random_cases + len(named) > guests:
        raise ConfigError(
            "positives",
            f"{random_cases} cases without a guest and {len(named)} named guests "
            f"exceed population.guests ({guests})",
        )

    advsec = root.child("adversary")
    posture = advsec.get("posture", str, "passive")
    if posture not in ("passive", "active"):
        raise ConfigError("adversary.posture", "must be 'passive' or 'active'")
    attacks: list[AttackPlanEntry] = []
    for i, entry_raw in enumerate(advsec.get("attacks", list, [])):
        entry = _Section(entry_raw, f"adversary.attacks[{i}]")
        attack_id = entry.get("attack", str, required=True)
        if attack_id not in adv.ATTACK_TYPES:
            raise ConfigError(f"adversary.attacks[{i}].attack", f"unknown attack {attack_id!r}")
        attack_cls = adv.ATTACK_TYPES[attack_id]
        params = entry.child("params")
        # Index params name the same kind of target in every attack; only
        # the HD exfiltration defaults to a target other than the first.
        defaults = {}
        if issubclass(attack_cls, adv.KeyExfiltration):
            modes = adv.KeyExfiltration.MODES
            if params.get("mode", None, modes[0]) not in modes:
                raise ConfigError(params._path("mode"), f"must be one of {', '.join(modes)}")
            defaults[attack_cls.param] = attack_cls.default_index
        for key, limit in (
            ("venue", venues.count),
            ("hd", health_depts),
            ("scanner", venues.scanners_per_venue),
        ):
            params.integer(key, defaults.get(key), minimum=0, maximum=limit - 1)
        for key in ("max_records", "pad_per_venue"):
            params.integer(key, minimum=0)
        if attack_cls is adv.SubstituteMasterKey:
            params.integer("day", required=True, minimum=0, maximum=duration - 1)
        attacks.append(
            AttackPlanEntry(
                attack=attack_id,
                day=entry.integer("day", 0, minimum=0, maximum=duration - 1),
                params=params.data,
            )
        )
    if attacks and posture != "active":
        raise ConfigError("adversary.posture", "attack plan requires active posture")

    mit = root.child("mitigations")
    mitigations = MitigationConfig(
        pki_enabled=mit.get("pki_enabled", bool, False),
        qr_embeds_venue_key=mit.get("qr_embeds_venue_key", bool, False),
    )

    ana = root.child("analysis")
    analysis = {key: ana.get(key, bool, True) for key in _ANALYSIS_KEYS}

    tr = root.child("tracing")
    tracing = TracingPolicy(
        max_stay_s=int(tr.number("max_stay_hours", 4, minimum=0) * 3600),
        overlap_slack_s=tr.integer("overlap_slack_s", 0, minimum=0),
        include_index_case=tr.get("include_index_case", bool, False),
        max_checkins_per_day=tr.integer("max_checkins_per_day", 64, minimum=1),
        correlation_window_s=tr.integer("correlation_window_s", 60, minimum=1),
    )

    lk = root.child("linkage")
    motorized = lk.get("motorized", bool, False)
    linkage = LinkageConfig(
        arrival_window_s=lk.integer("arrival_window_s", 30, minimum=1),
        departure_window_s=lk.integer("departure_window_s", 120, minimum=1),
        max_port_gap=lk.integer("max_port_gap", 32, minimum=1),
        speed_kmh=float(lk.number("speed_kmh", 50.0 if motorized else 5.0, minimum=0.1)),
        correlation_window_s=tracing.correlation_window_s,
    )

    script: list[ScriptVisit] = []
    for i, sv_raw in enumerate(root.get("script", list, [])):
        sv = _Section(sv_raw, f"script[{i}]")
        day = sv.integer("day", required=True, minimum=0)
        if day >= duration:
            raise ConfigError(f"script[{i}].day", "beyond scenario duration")
        venue = sv.integer("venue", required=True, minimum=0)
        if venue >= venues.count:
            raise ConfigError(f"script[{i}].venue", "no such venue")
        guests_list = sv.get("guests", list, required=True)
        for g in guests_list:
            if not isinstance(g, int) or not 0 <= g < population.guests:
                raise ConfigError(f"script[{i}].guests", f"bad guest index {g!r}")
        mode = sv.get("mode", str, "scanner")
        if mode not in ("scanner", "self"):
            raise ConfigError(f"script[{i}].mode", "must be 'scanner' or 'self'")
        script.append(
            ScriptVisit(
                day=day,
                at=sv.integer("at", 12 * 3600, minimum=0, maximum=DAY_SECONDS - 1),
                venue=venue,
                guests=tuple(guests_list),
                stay_s=sv.integer("stay_s", 3600, minimum=60),
                mode=mode,
                scanner=sv.integer("scanner", 0, minimum=0, maximum=venues.scanners_per_venue - 1),
                spread_s=sv.integer("spread_s", 5, minimum=0),
                checkout=sv.get("checkout", bool, True),
            )
        )

    return ScenarioConfig(
        name=name,
        seed=seed,
        duration_days=duration,
        population=population,
        venues=venues,
        network=network,
        health_depts=health_depts,
        positives=tuple(positives),
        posture=posture,
        attacks=tuple(attacks),
        mitigations=mitigations,
        analysis=analysis,
        tracing=tracing,
        linkage=linkage,
        script=tuple(script),
        raw=data,
    )


def load_config_file(path: str) -> ScenarioConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError("<file>", f"not valid JSON: {exc}") from exc
    return parse_config(data)


def bundled_scenario_names() -> list[str]:
    files = resources.files("lucasim").joinpath("scenarios")
    return sorted(p.name[:-5] for p in files.iterdir() if p.name.endswith(".json"))


def load_bundled_config(name: str) -> ScenarioConfig:
    ref = resources.files("lucasim").joinpath("scenarios", f"{name}.json")
    if not ref.is_file():
        raise ConfigError("name", f"no bundled scenario named {name!r}")
    return parse_config(json.loads(ref.read_text(encoding="utf-8")))


def resolve_config(name_or_path: str) -> ScenarioConfig:
    if name_or_path.endswith(".json"):
        return load_config_file(name_or_path)
    try:
        return load_bundled_config(name_or_path)
    except ConfigError:
        return load_config_file(name_or_path)


# -- schedule generation --------------------------------------------------------


@dataclass
class _Action:
    t: int
    prio: int
    seq: int
    run: Callable[[], None]


def _poisson(rng: Random, lam: float) -> int:
    if lam <= 0:
        return 0
    threshold = math.exp(-lam)
    k, p = 0, 1.0
    while True:
        p *= rng.random()
        if p <= threshold:
            return k
        k += 1


def _weighted_choice(rng: Random, weights: dict[int, float]) -> int:
    total = sum(weights.values())
    x = rng.random() * total
    for key in sorted(weights):
        x -= weights[key]
        if x <= 0:
            return key
    return max(weights)


def _partition_groups(rng: Random, n: int, weights: dict[int, float]) -> list[list[int]]:
    groups: list[list[int]] = []
    cursor = 0
    while cursor < n:
        size = min(_weighted_choice(rng, weights), n - cursor)
        groups.append(list(range(cursor, cursor + size)))
        cursor += size
    return groups


@dataclass
class _Outing:
    day: int
    t: int
    venue: int
    guests: list[int]
    stay_s: int
    mode: str
    scanner: int
    member_offsets: list[int]
    checkouts: list[Optional[int]]  # per member, absolute time or None


def _plan_outings(cfg: ScenarioConfig, rng: Random) -> list[_Outing]:
    pop = cfg.population
    groups = _partition_groups(rng, pop.guests, pop.group_size_weights)
    first_t = 8 * 3600
    last_t = 21 * 3600
    outings: list[_Outing] = []
    for group in groups:
        slots: list[tuple[int, int]] = []  # (day, seconds-in-day)
        if pop.exact_visits_total is not None:
            for _ in range(pop.exact_visits_total):
                slots.append((rng.randrange(cfg.duration_days), rng.randint(first_t, last_t)))
        else:
            for day in range(cfg.duration_days):
                for _ in range(min(_poisson(rng, pop.visits_per_day), 3)):
                    slots.append((day, rng.randint(first_t, last_t)))
        slots.sort()
        prev_end = -1
        for day, at in slots:
            t = day * DAY_SECONDS + at
            if t <= prev_end + 1800:
                t = prev_end + 1800
            if t >= day * DAY_SECONDS + last_t + 3600:
                continue  # pushed out of plausible hours; drop the outing
            stay = rng.randint(pop.stay_minutes[0], pop.stay_minutes[1]) * 60
            venue = rng.randrange(cfg.venues.count)
            mode = "self" if rng.random() < pop.self_checkin_fraction else "scanner"
            scanner = rng.randrange(cfg.venues.scanners_per_venue)
            offsets = sorted(
                rng.randint(0, pop.arrival_spread_s) if i else 0 for i in range(len(group))
            )
            depart = t + stay  # group leaves together; checkouts may straggle
            checkouts: list[Optional[int]] = []
            for _ in group:
                if rng.random() < pop.p_checkout:
                    checkouts.append(depart + rng.randint(0, pop.departure_spread_s))
                else:
                    checkouts.append(None)
            outings.append(
                _Outing(
                    day=day,
                    t=t,
                    venue=venue,
                    guests=list(group),
                    stay_s=stay,
                    mode=mode,
                    scanner=scanner,
                    member_offsets=offsets,
                    checkouts=checkouts,
                )
            )
            prev_end = depart
    return outings


def _script_outing(cfg: ScenarioConfig, sv: ScriptVisit, rng: Random) -> _Outing:
    offsets = sorted(rng.randint(0, sv.spread_s) if i else 0 for i in range(len(sv.guests)))
    depart = sv.day * DAY_SECONDS + sv.at + sv.stay_s
    return _Outing(
        day=sv.day,
        t=sv.day * DAY_SECONDS + sv.at,
        venue=sv.venue,
        guests=list(sv.guests),
        stay_s=sv.stay_s,
        mode=sv.mode,
        scanner=sv.scanner,
        member_offsets=offsets,
        checkouts=[depart + i for i in range(len(sv.guests))] if sv.checkout else [None] * len(sv.guests),
    )


# -- run ------------------------------------------------------------------------


@dataclass
class RunResult:
    config: ScenarioConfig
    world: World
    knowledge: AdversaryKnowledge
    traces: list[TraceResult]
    report: dict[str, Any]

    def artifacts(self) -> dict[str, str]:
        return {
            "report.json": canonical_json(self.report),
            "events.ndjson": self.world.truth.export_ndjson(),
            "transcript.ndjson": self.world.transport.export_transcript_ndjson(),
            "observations.ndjson": self.world.transport.export_observations_ndjson(),
        }


def run_scenario(config: ScenarioConfig) -> RunResult:
    # Overlapping trace windows reopen the same records, so each distinct
    # (key, ciphertext) is decrypted once per run; the memo ends with the run.
    with crypto.decrypt_memo():
        return _run(config)


def _run(config: ScenarioConfig) -> RunResult:
    seed = config.seed
    rng_net = Random(f"{seed}:network")
    rng_crypto = Random(f"{seed}:crypto")
    rng_server = Random(f"{seed}:server")
    rng_guest = Random(f"{seed}:guest-secrets")
    rng_pop = Random(f"{seed}:population")
    rng_geo = Random(f"{seed}:geo")
    rng_adv = Random(f"{seed}:adversary")

    ca = (
        CertificateAuthority(crypto.gen_keypair("ca", Random(f"{seed}:ca")))
        if config.mitigations.pki_enabled
        else None
    )
    world = World(
        net=CarrierNetwork(config.network, rng_net),
        transport=Transport(),
        truth=GroundTruthLog(),
        policy=config.tracing,
        mitigations=config.mitigations,
        rng_crypto=rng_crypto,
        rng_server=rng_server,
        rng_guest=rng_guest,
        ca=ca,
    )

    adversary = Adversary(rng_adv) if config.posture == "active" else None
    attack_instances: list[Attack] = []
    if adversary is not None:
        for entry in config.attacks:
            attack_instances.append(make_attack(adversary, entry.attack, entry.params))

    actions: list[_Action] = []
    seq = 0

    def add(t: int, prio: int, run: Callable[[], None]) -> None:
        nonlocal seq
        actions.append(_Action(t=t, prio=prio, seq=seq, run=run))
        seq += 1

    # Installs precede everything else on their day (including registrations
    # on day zero and the day's key rotation).
    for entry, attack in zip(config.attacks, attack_instances):
        add(entry.day * DAY_SECONDS, 0, lambda a=attack, d=entry.day: a.install(world, d))

    def register_hds() -> None:
        for _ in range(config.health_depts):
            flow_register_health_dept(world, t=0)

    def register_venues() -> None:
        mix_keys = sorted(config.venues.type_mix)
        mix_weights = [config.venues.type_mix[k] for k in mix_keys]
        lat0, lon0, lat1, lon1 = config.venues.bbox
        for i in range(config.venues.count):
            vtype = rng_geo.choices(mix_keys, weights=mix_weights)[0]
            flow_register_venue(
                world,
                {
                    "name": f"venue-{i:03d}",
                    "owner_contact": f"owner-{i:03d}@example.org",
                    "lat": round(lat0 + rng_geo.random() * (lat1 - lat0), 6),
                    "lon": round(lon0 + rng_geo.random() * (lon1 - lon0), 6),
                    "venue_type": vtype,
                    "scanners": config.venues.scanners_per_venue,
                    "unavailable": i in config.venues.unavailable,
                },
                t=0,
            )

    def register_guests() -> None:
        for i in range(config.population.guests):
            guest = world.new_guest(
                {
                    "name": f"Guest {i:04d} Surname{i:04d}",
                    "address": f"{i} Example Street, Sampletown",
                    "phone": f"+49-151-{i:07d}",
                },
                t=0,
            )
            flow_register_user(world, guest, t=0)

    add(0, 1, register_hds)
    add(0, 2, register_venues)
    add(0, 3, register_guests)

    for day in range(config.duration_days):
        add(day * DAY_SECONDS, 5, lambda d=day: flow_rotate_daily_master_key(
            world, world.hds[0], d, d * DAY_SECONDS
        ))

    # Visits: generated population traffic plus scripted outings.
    outings = _plan_outings(config, rng_pop)
    outings.extend(_script_outing(config, sv, rng_pop) for sv in config.script)

    def schedule_outing(outing: _Outing) -> None:
        ctx: dict[str, Any] = {"members": [], "rid_by_guest": {}}
        last_checkin_t = outing.t
        for i, guest_idx in enumerate(outing.guests):
            t_i = outing.t + outing.member_offsets[i]
            last_checkin_t = max(last_checkin_t, t_i)

            def do_checkin(gi=guest_idx, ti=t_i, o=outing) -> None:
                guest = world.guests[gi]
                venue = world.venues[o.venue]
                if o.mode == "self":
                    rec = flow_checkin_self(world, guest, venue, ti)
                else:
                    rec = flow_checkin_scanner(world, guest, venue.scanner_ids[o.scanner], ti)
                ctx["members"].append((guest.user_id, rec.record_id))
                ctx["rid_by_guest"][gi] = rec.record_id

            add(t_i, 10, do_checkin)
            checkout_t = outing.checkouts[i]
            if checkout_t is not None:

                def do_checkout(gi=guest_idx, ti=checkout_t) -> None:
                    guest = world.guests[gi]
                    open_ci = guest.open_checkin
                    # Only close the visit this outing opened; a later check-in
                    # may have superseded it app-side.
                    if open_ci is not None and open_ci["record_id"] == ctx["rid_by_guest"].get(gi):
                        flow_checkout(world, guest, ti)

                add(checkout_t, 10, do_checkout)
        if len(outing.guests) >= 2:

            def do_group(o=outing) -> None:
                members = ctx["members"]
                if len(members) >= 2:
                    record_group_arrival(
                        world,
                        max(o.t + off for off in o.member_offsets),
                        world.venues[o.venue].venue_id,
                        [uid for uid, _ in members],
                        [rid for _, rid in members],
                    )

            add(last_checkin_t, 11, do_group)

    for outing in outings:
        schedule_outing(outing)

    # Reconnect events.
    if config.population.p_reconnect_per_day > 0:
        for day in range(config.duration_days):
            for guest_idx in range(config.population.guests):
                if rng_pop.random() < config.population.p_reconnect_per_day:
                    t_r = day * DAY_SECONDS + rng_pop.randint(0, DAY_SECONDS - 1)

                    def do_reconnect(gi=guest_idx, tr=t_r) -> None:
                        world.net.reconnect_event(world.guests[gi].identity, tr)

                    add(t_r, 10, do_reconnect)

    # Positive reports and traces.
    reported_codes: dict[int, str] = {}
    chosen_guests: set[int] = set()
    for i, case in enumerate(config.positives):
        guest_idx = case.guest
        if guest_idx is None:
            guest_idx = rng_pop.randrange(config.population.guests)
            while guest_idx in chosen_guests:
                guest_idx = rng_pop.randrange(config.population.guests)
        chosen_guests.add(guest_idx)
        back = case.window_back if case.window_back is not None else case.report_day + 1
        days = [d for d in range(max(0, case.report_day - back + 1), case.report_day + 1)]
        t_report = case.report_day * DAY_SECONDS + 75600 + i * 300

        def do_report(gi=guest_idx, dd=days, tr=t_report, idx=i) -> None:
            code = flow_report_positive(world, world.guests[gi], dd, tr)
            reported_codes[idx] = code

        add(t_report, 10, do_report)
        if case.traced:
            # The HD picks the report up the next morning, once every visit of
            # the window days has had its checkout recorded.
            t_trace = (case.report_day + 1) * DAY_SECONDS + 21600 + i * 600

            def do_trace(idx=i, tt=t_trace) -> None:
                code = reported_codes.get(idx)
                if code is None:
                    raise actors.SimulationError("trace scheduled before report completed")
                hd = world.hds[idx % len(world.hds)]
                trace_results.append(flow_trace(world, hd, code, tt))

            add(t_trace, 10, do_trace)

    # Attack executions late in their day, after the day's traffic and traces.
    for i, (entry, attack) in enumerate(zip(config.attacks, attack_instances)):
        t_exec = entry.day * DAY_SECONDS + 84000 + i * 60
        add(t_exec, 10, lambda a=attack, te=t_exec: a.execute(world, te))

    trace_results: list[TraceResult] = []
    for action in sorted(actions, key=lambda a: (a.t, a.prio, a.seq)):
        action.run()

    # Post-run adversary analyses and verdicts.
    knowledge = AdversaryKnowledge()
    adv.run_passive_analyses(world, knowledge, config.linkage, config.analysis)
    for attack in attack_instances:
        knowledge.attack_outcomes.append(attack.finalize(world, knowledge))
    adv.consolidate(world, adversary, knowledge)
    verdicts = objectives.evaluate_objectives(knowledge, world.truth)

    report = build_report(config, world, knowledge, trace_results, verdicts)
    return RunResult(
        config=config,
        world=world,
        knowledge=knowledge,
        traces=trace_results,
        report=report,
    )


def build_report(
    config: ScenarioConfig,
    world: World,
    knowledge: AdversaryKnowledge,
    traces: list[TraceResult],
    verdicts: list[objectives.ObjectiveVerdict],
) -> dict[str, Any]:
    truth = world.truth
    counts = {
        "guests": len(world.guests),
        "venues": len(world.venues),
        "health_depts": len(world.hds),
        "checkins": sum(1 for e in truth.events if e.kind == "checkin"),
        "checkouts": sum(1 for e in truth.events if e.kind == "checkout"),
        "reports": sum(1 for e in truth.events if e.kind == "report_positive"),
        "traces": len(traces),
        "observations": len(world.transport.observations),
        "messages": len(world.transport.transcript),
        "events": len(truth.events),
    }
    occupancy_peaks = {
        vid: max((lvl for _, lvl in series), default=0)
        for vid, series in sorted(knowledge.venue_occupancy.items())
    }
    return {
        "schema_version": SCHEMA_VERSION,
        "scenario": {
            "name": config.name,
            "digest": config.digest(),
            "seed": config.seed,
            "duration_days": config.duration_days,
            "posture": config.posture,
            "mitigations": {
                "pki_enabled": config.mitigations.pki_enabled,
                "qr_embeds_venue_key": config.mitigations.qr_embeds_venue_key,
            },
        },
        "assumptions": {
            "max_stay_s": config.tracing.max_stay_s,
            "overlap_slack_s": config.tracing.overlap_slack_s,
            "include_index_case": config.tracing.include_index_case,
            "max_checkins_per_day": config.tracing.max_checkins_per_day,
            "open_visits": "visits without a checkout are imputed a maximum stay",
        },
        "counts": counts,
        "attacks": [
            {
                "attack_id": o.attack_id,
                "succeeded": o.succeeded,
                "detectable": o.detectable,
                "secrets_learned": o.secrets_learned,
                "details": o.details,
            }
            for o in knowledge.attack_outcomes
        ],
        "linkage": {
            "checkins": knowledge.checkin_linkage,
            "groups": knowledge.group_linkage,
        },
        "trace_correlation": {
            "code_to_user_id": dict(sorted(knowledge.code_to_user_id.items())),
            "code_to_address": dict(sorted(knowledge.code_to_address.items())),
        },
        "objectives": [v.to_dict() for v in verdicts],
        "artifacts": {
            "report": "report.json",
            "events": "events.ndjson",
            "transcript": "transcript.ndjson",
            "observations": "observations.ndjson",
        },
        "occupancy_peaks": occupancy_peaks,
        "risk_rank": [[vid, count] for vid, count in knowledge.venue_risk],
        "traces": [
            {
                "code": tr.code,
                "status": tr.status,
                "index_user_id": tr.index_user_id,
                "contact_user_ids": sorted(tr.contact_user_ids),
                "matched_records": len(tr.matched_record_ids),
                "unavailable_venues": tr.unavailable_venues,
                "dropped_records": tr.dropped_records,
            }
            for tr in traces
        ],
    }
