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
from collections import Counter
from importlib import resources
from random import Random
from typing import Any, Callable, NamedTuple, Optional

from . import adversary as adv, objectives
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
)
from .adversary import Adversary, AdversaryKnowledge, Attack, make_attack
from .model import (
    ASSUMPTIONS,
    CHECKIN,
    CHECKOUT,
    DAY_SECONDS,
    GROUP_ARRIVAL,
    MAX_WINDOW_DAYS,
    REPORT_POSITIVE,
    CertificateAuthority,
    GroundTruthLog,
    MitigationConfig,
    SimulationError,
)
from .netsim import (
    ADOPTION_MAX,
    ADOPTION_MIN,
    IPV6_PROBABILITY_MAX,
    IPV6_PROBABILITY_MIN,
    MAX_CARRIERS,
    NAT_POOL_MAX,
    CarrierNetwork,
    NetworkConfig,
    Transport,
)
from .report import SCHEMA_VERSION, canonical_json
from . import crypto

# Each venue's type is drawn with these weights, and its location from this
# city-scale box (about 11 km x 10 km); the population model has no travel
# times, so venue distances must stay coverable between outings.
_VENUE_TYPES = ("bar", "other", "political", "private-event", "religious", "restaurant", "school")
_VENUE_TYPE_WEIGHTS = (0.25, 0.05, 0.05, 0.1, 0.1, 0.4, 0.05)
_VENUE_BBOX = (52.45, 13.30, 52.55, 13.45)
# A generated outing lasts between these many minutes.
_STAY_MINUTES = (30, 120)
# Generated outings start between these seconds of their day; one pushed past
# the cutoff by its group's previous outing is dropped.
_OUTING_FIRST_S, _OUTING_LAST_S = 8 * 3600, 21 * 3600
_OUTING_CUTOFF_S = _OUTING_LAST_S + 3600
# A group plans at most this many outings a day, and starts each at least
# this long after its previous one ended.
_MAX_OUTINGS_PER_DAY = 3
_OUTING_GAP_S = 1800

# Ceilings on the sizes a scenario sets, so that every validated scenario runs
# to completion, well above the largest in use (7,680 guests over 6 days).
MAX_GUESTS = 50_000
MAX_DURATION_DAYS = 366
MAX_HEALTH_DEPTS = 1_000
MAX_VENUES = 1_000
MAX_SCANNERS_PER_VENUE = 16
MAX_EXACT_VISITS = 1_000
# The check-ins a scenario plans: guests times the visits planned per guest
# (_MAX_OUTINGS_PER_DAY a day, or exact_visits_total), plus one for each guest
# of each script visit.  Also the most records expand_window may pad with.
MAX_PLANNED_VISITS = 250_000


def _report_time(report_day: int, index: int) -> int:
    """When positive case ``index`` uploads its report: evenings, 300 s apart."""
    return report_day * DAY_SECONDS + 75600 + index * 300


class ConfigError(Exception):
    """Scenario configuration rejected; carries the offending field path."""

    def __init__(self, path: str, message: str) -> None:
        super().__init__(f"{path}: {message}")
        self.path = path
        self.message = message


class _Section:
    """Typed field extraction with path-qualified errors.

    A section records each section read from it (``child``, ``entries``), so
    that one ``reject_unknown`` on the root checks every section of the file.
    """

    def __init__(self, data: dict[str, Any], path: str) -> None:
        if not isinstance(data, dict):
            raise ConfigError(path, "must be an object")
        self.data = data
        self.path = path
        self.read: set[str] = set()
        self.sections: list[_Section] = []

    def _path(self, key: str) -> str:
        return f"{self.path}.{key}" if self.path else key

    def reject_unknown(self) -> None:
        """Reject the first key, in sorted order, that no field read; then do
        the same in each section read from this one, in the order it was read."""
        unknown = sorted(set(self.data) - self.read)
        if unknown:
            raise ConfigError(self._path(unknown[0]), "unknown field")
        for section in self.sections:
            section.reject_unknown()

    def _section(self, data: Any, path: str) -> "_Section":
        section = _Section(data, path)
        self.sections.append(section)
        return section

    def child(self, key: str) -> "_Section":
        self.read.add(key)
        return self._section(self.data.get(key, {}), self._path(key))

    def entries(self, key: str) -> list["_Section"]:
        """The sections of a list of objects."""
        items = self.get(key, list, [])
        return [self._section(item, f"{self._path(key)}[{i}]") for i, item in enumerate(items)]

    def get(self, key: str, kind, default=None, required: bool = False):
        self.read.add(key)
        path = self._path(key)
        if key not in self.data:
            if required:
                raise ConfigError(path, "required field is missing")
            return default
        value = self.data[key]
        if kind is not None and not isinstance(value, kind):
            raise ConfigError(path, f"expected {getattr(kind, '__name__', kind)}")
        return value

    def choice(self, key: str, options, default=None) -> str:
        """One of the strings ``options``; required when there is no default."""
        value = self.get(key, str, default, required=default is None)
        if value not in options:
            raise ConfigError(self._path(key), f"must be one of {', '.join(options)}")
        return value

    def indices(self, key: str, count: int, required: bool = False) -> tuple[int, ...]:
        """Distinct indices into ``count`` things."""
        values = self.get(key, list, [], required)
        if not all(_is_int(v) and 0 <= v < count for v in values):
            raise ConfigError(self._path(key), f"entries must be integers in [0, {count - 1}]")
        if len(set(values)) < len(values):
            raise ConfigError(self._path(key), "an index is named twice")
        return tuple(values)

    def _bounded(self, key, default, required, minimum, maximum, is_number):
        value = self.get(key, (int, float), default, required)
        if value is None:
            return None
        if not is_number(value):
            raise ConfigError(self._path(key), "expected a finite number")
        if minimum is not None and value < minimum:
            raise ConfigError(self._path(key), f"must be >= {minimum}")
        if maximum is not None and value > maximum:
            raise ConfigError(self._path(key), f"must be <= {maximum}")
        return value

    def number(self, key: str, default=None, required=False, minimum=None, maximum=None):
        """A number the run converts to a finite float."""
        return self._bounded(key, default, required, minimum, maximum, _is_float)

    def integer(self, key: str, default=None, required=False, minimum=None, maximum=None):
        """An int of any size."""
        value = self._bounded(key, default, required, minimum, maximum, _is_number)
        if value is not None and not isinstance(value, int):
            raise ConfigError(self._path(key), "expected an integer")
        return value


def _is_number(value: Any) -> bool:
    """True iff ``value`` is an int or a finite float (JSON booleans excluded)."""
    if isinstance(value, bool):
        return False
    return isinstance(value, int) or (isinstance(value, float) and math.isfinite(value))


def _is_float(value: Any) -> bool:
    """True iff ``value`` is a number that converts to a finite float."""
    try:
        return _is_number(value) and math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


class PopulationConfig(NamedTuple):
    """The ``population`` section: guests, groups, visit rates and checkout habits."""

    guests: int
    group_size_weights: dict[int, float]
    visits_per_day: float
    exact_visits_total: Optional[int]
    p_checkout: float
    arrival_spread_s: int
    departure_spread_s: int
    self_checkin_fraction: float
    p_reconnect_per_day: float


class VenuesConfig(NamedTuple):
    """The ``venues`` section: how many venues, their scanners and which are offline."""

    count: int
    scanners_per_venue: int
    unavailable: tuple[int, ...]


class PositiveCase(NamedTuple):
    """One ``positives`` entry: who reports, on which day, over which window."""

    guest: Optional[int]
    report_day: int
    window_days: int  # the upload carries a seed for each of the last window_days days
    traced: bool


class AttackPlanEntry(NamedTuple):
    """One ``adversary.attacks`` entry: the attack, its day and its params."""

    attack: str
    day: int
    params: dict[str, Any]


class ScriptVisit(NamedTuple):
    """One ``script`` entry: a fixed visit of named guests to a venue."""

    day: int
    at: int  # seconds after day start
    venue: int
    guests: tuple[int, ...]
    stay_s: int
    mode: str  # "scanner" | "self"
    scanner: int
    spread_s: int


class ScenarioConfig(NamedTuple):
    """A validated scenario, as ``parse_config`` returns it."""

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
    speed_kmh: float  # the fastest a person travels between check-ins
    script: tuple[ScriptVisit, ...]
    raw: dict[str, Any]

    def digest(self) -> str:
        canon = json.dumps(self.raw, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()


def parse_config(data: dict[str, Any]) -> ScenarioConfig:
    """Validate a raw scenario object; raises :class:`ConfigError` with a path."""
    root = _Section(data, "")
    name = root.get("name", str, required=True)
    seed = root.integer("seed", required=True)
    duration = root.integer("duration_days", required=True, minimum=1, maximum=MAX_DURATION_DAYS)

    pop = root.child("population")
    guests = pop.integer("guests", required=True, minimum=1, maximum=MAX_GUESTS)
    raw_weights = pop.get("group_size_weights", dict, {"1": 1.0})
    weights_path = pop._path("group_size_weights")
    values = list(raw_weights.values())
    # Finite, non-negative weights with a positive, finite total.
    if (
        not all(_is_float(v) for v in values)
        or any(v < 0 for v in values)
        or not 0 < sum(map(float, values)) < math.inf
    ):
        raise ConfigError(weights_path, "weights must be numbers >= 0 with a positive total")
    weights: dict[int, float] = {}
    for k, v in raw_weights.items():
        try:
            size = int(k)
        except (TypeError, ValueError):
            raise ConfigError(weights_path, f"bad group size {k!r}")
        if size < 1:
            raise ConfigError(weights_path, "group sizes must be >= 1")
        if size in weights:
            raise ConfigError(weights_path, f"group size {size} named twice")
        weights[size] = float(v)
    population = PopulationConfig(
        guests=guests,
        group_size_weights=dict(sorted(weights.items())),
        visits_per_day=pop.number("visits_per_day", 1.0, minimum=0.0),
        exact_visits_total=pop.integer("exact_visits_total", minimum=0, maximum=MAX_EXACT_VISITS),
        p_checkout=pop.number("p_checkout", 0.9, minimum=0.0, maximum=1.0),
        # A member arriving this late would check in after the group's
        # checkout, or after the outing's day and its master key.
        arrival_spread_s=pop.integer(
            "arrival_spread_s", 10, minimum=0, maximum=60 * _STAY_MINUTES[0] - 1
        ),
        # A member leaving this late would check out after the group's next outing.
        departure_spread_s=pop.integer(
            "departure_spread_s", 40, minimum=0, maximum=_OUTING_GAP_S - 1
        ),
        self_checkin_fraction=pop.number("self_checkin_fraction", 0.0, minimum=0.0, maximum=1.0),
        p_reconnect_per_day=pop.number("p_reconnect_per_day", 0.0, minimum=0.0, maximum=1.0),
    )
    exact = population.exact_visits_total
    visits = _MAX_OUTINGS_PER_DAY * duration if exact is None else exact
    if guests * visits > MAX_PLANNED_VISITS:
        message = f"{guests} guests with {visits} planned visits each exceed {MAX_PLANNED_VISITS}"
        raise ConfigError(pop._path("guests"), message)

    ven = root.child("venues")
    count = ven.integer("count", required=True, minimum=1, maximum=MAX_VENUES)
    venues = VenuesConfig(
        count=count,
        scanners_per_venue=ven.integer(
            "scanners_per_venue", 1, minimum=1, maximum=MAX_SCANNERS_PER_VENUE
        ),
        unavailable=ven.indices("unavailable", count),
    )

    net = root.child("network")
    default = NetworkConfig()
    carriers = net.integer("carriers", default.carriers, minimum=1, maximum=MAX_CARRIERS)
    ipv6 = net.get("ipv6_probability", list, None)
    if ipv6 is None:
        ipv6 = (default.ipv6_probability + (0.0,) * carriers)[:carriers]
    if len(ipv6) != carriers:
        raise ConfigError(net._path("ipv6_probability"), "needs one entry per carrier")
    if not all(_is_number(p) and IPV6_PROBABILITY_MIN <= p <= IPV6_PROBABILITY_MAX for p in ipv6):
        raise ConfigError(
            net._path("ipv6_probability"),
            f"entries must be numbers in [{IPV6_PROBABILITY_MIN}, {IPV6_PROBABILITY_MAX}]",
        )
    pool = net.get("nat_pool", list, [default.nat_pool_min, default.nat_pool_max])
    if len(pool) != 2 or not all(map(_is_int, pool)) or not 1 <= pool[0] <= pool[1] <= NAT_POOL_MAX:
        raise ConfigError(
            net._path("nat_pool"),
            f"expected [min, max] integers with 1 <= min <= max <= {NAT_POOL_MAX}",
        )
    network = NetworkConfig(
        carriers=carriers,
        ipv6_probability=tuple(float(p) for p in ipv6),
        nat_pool_min=pool[0],
        nat_pool_max=pool[1],
        adoption=net.number("adoption", default.adoption, minimum=ADOPTION_MIN, maximum=ADOPTION_MAX),
    )

    health_depts = root.integer("health_depts", 400, minimum=1, maximum=MAX_HEALTH_DEPTS)

    positives: list[PositiveCase] = []
    for i, case in enumerate(root.entries("positives")):
        report_day = case.integer("report_day", required=True, minimum=0, maximum=duration - 1)
        if _report_time(report_day, i) >= duration * DAY_SECONDS:
            raise ConfigError(case._path("report_day"), "report falls after the last day")
        window_back = case.integer("window_back", minimum=0)
        # A window reaching back past day 0 is cut there.
        days = report_day + 1 if window_back is None else min(window_back, report_day + 1)
        if days > MAX_WINDOW_DAYS:
            key = "report_day" if window_back is None else "window_back"
            raise ConfigError(case._path(key), f"window exceeds {MAX_WINDOW_DAYS} days")
        positives.append(
            PositiveCase(
                guest=case.integer("guest", minimum=0, maximum=guests - 1),
                report_day=report_day,
                window_days=days,
                traced=case.get("traced", bool, True),
            )
        )
    # Each case without a guest draws one not already chosen by another case.
    random_cases = sum(1 for c in positives if c.guest is None)
    named = {c.guest for c in positives if c.guest is not None}
    if random_cases + len(named) > guests:
        raise ConfigError(
            root._path("positives"),
            f"{random_cases} cases without a guest and {len(named)} named guests "
            f"exceed population.guests ({guests})",
        )

    advsec = root.child("adversary")
    posture = advsec.choice("posture", ("passive", "active"), "passive")
    attacks: list[AttackPlanEntry] = []
    hooked: dict[tuple[Any, ...], str] = {}  # each hook slot -> the entry that overwrites it
    # Each integer param's maximum: an index's count minus one, and no more
    # records to pad with than the run has check-ins.
    maxima = {
        "venue": venues.count - 1,
        "hd": health_depts - 1,
        "scanner": venues.scanners_per_venue - 1,
        "day": duration - 1,
        "pad_per_venue": MAX_PLANNED_VISITS,
    }
    for entry in advsec.entries("attacks"):
        attack_id = entry.choice("attack", adv.ATTACK_TYPES)
        attack_cls = adv.ATTACK_TYPES[attack_id]
        params = entry.child("params")
        for key, default in attack_cls.PARAMS.items():
            if key == "mode":
                params.choice(key, attack_cls.MODES, default)
            else:
                params.integer(key, default, required=default is None, minimum=0, maximum=maxima[key])
        attacks.append(
            AttackPlanEntry(
                attack=attack_id,
                day=entry.integer("day", 0, minimum=0, maximum=duration - 1),
                params=params.data,
            )
        )
        slot = attack_cls.hook_slot(params.data)
        if slot is not None:
            if slot in hooked:
                raise ConfigError(entry.path, f"overwrites the hook of {hooked[slot]}")
            hooked[slot] = entry.path
    if attacks and posture != "active":
        raise ConfigError(advsec._path("posture"), "attack plan requires active posture")

    mit = root.child("mitigations")
    mitigations = MitigationConfig(
        pki_enabled=mit.get("pki_enabled", bool, False),
        qr_embeds_venue_key=mit.get("qr_embeds_venue_key", bool, False),
    )

    # Check-in linkage assumes travel by car, or on foot.
    speed_kmh = 50.0 if root.child("linkage").get("motorized", bool, False) else 5.0

    script: list[ScriptVisit] = []
    for sv in root.entries("script"):
        day = sv.integer("day", required=True, minimum=0, maximum=duration - 1)
        venue = sv.integer("venue", required=True, minimum=0, maximum=venues.count - 1)
        members = sv.indices("guests", guests, required=True)
        mode = sv.choice("mode", ("scanner", "self"), "scanner")
        at = sv.integer("at", 12 * 3600, minimum=0, maximum=DAY_SECONDS - 1)
        spread_s = sv.integer("spread_s", 5, minimum=0)
        if at + spread_s >= (duration - day) * DAY_SECONDS:
            raise ConfigError(sv._path("spread_s"), "check-ins fall after the last day")
        stay_s = sv.integer("stay_s", 3600, minimum=60)
        if spread_s >= stay_s:
            raise ConfigError(sv._path("spread_s"), "must be shorter than stay_s")
        # Members check out one second apart (_script_outing).
        if at + stay_s + len(members) - 1 >= (duration - day) * DAY_SECONDS:
            raise ConfigError(sv._path("stay_s"), "checkouts fall after the last day")
        script.append(
            ScriptVisit(
                day=day,
                at=at,
                venue=venue,
                guests=members,
                stay_s=stay_s,
                mode=mode,
                scanner=sv.integer("scanner", 0, minimum=0, maximum=venues.scanners_per_venue - 1),
                spread_s=spread_s,
            )
        )
    planned = guests * visits + sum(len(visit.guests) for visit in script)
    if planned > MAX_PLANNED_VISITS:
        message = f"{planned} check-ins, scripted ones included, exceed {MAX_PLANNED_VISITS}"
        raise ConfigError(root._path("script"), message)
    root.reject_unknown()

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
        speed_kmh=speed_kmh,
        script=tuple(script),
        raw=data,
    )


def read_json_file(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(path, f"not valid JSON: {exc}") from exc
    except OSError as exc:
        # The message of an OSError names the path again; its strerror does not.
        raise ConfigError(path, f"cannot read: {exc.strerror or exc}") from exc
    except (ValueError, RecursionError) as exc:
        # ValueError: not UTF-8 or an over-long integer; RecursionError: nested too deep.
        raise ConfigError(path, f"cannot read: {exc}") from exc


def load_config_file(path: str) -> ScenarioConfig:
    return parse_config(read_json_file(path))


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


class _Outing(NamedTuple):
    """One planned visit of a group to a venue, with each member's offsets and checkout."""

    t: int
    venue: int
    guests: list[int]  # distinct
    mode: str
    scanner: int
    member_offsets: list[int]  # sorted
    checkouts: list[Optional[int]]  # per member, absolute time or None
    record_ids: dict[int, str]  # by member, filled at check-in


def _plan_outings(cfg: ScenarioConfig, rng: Random) -> list[_Outing]:
    pop = cfg.population
    groups = _partition_groups(rng, pop.guests, pop.group_size_weights)
    outings: list[_Outing] = []
    for group in groups:
        slots: list[tuple[int, int]] = []  # (day, seconds-in-day)
        if pop.exact_visits_total is not None:
            for _ in range(pop.exact_visits_total):
                slots.append(
                    (rng.randrange(cfg.duration_days), rng.randint(_OUTING_FIRST_S, _OUTING_LAST_S))
                )
        else:
            for day in range(cfg.duration_days):
                for _ in range(min(_poisson(rng, pop.visits_per_day), _MAX_OUTINGS_PER_DAY)):
                    slots.append((day, rng.randint(_OUTING_FIRST_S, _OUTING_LAST_S)))
        slots.sort()
        prev_end = -1
        for day, at in slots:
            t = day * DAY_SECONDS + at
            if t <= prev_end + _OUTING_GAP_S:
                t = prev_end + _OUTING_GAP_S
            if t >= day * DAY_SECONDS + _OUTING_CUTOFF_S:
                continue  # pushed out of plausible hours; drop the outing
            stay = rng.randint(*_STAY_MINUTES) * 60
            venue = rng.randrange(cfg.venues.count)
            mode = "self" if rng.random() < pop.self_checkin_fraction else "scanner"
            scanner = rng.randrange(cfg.venues.scanners_per_venue)
            offsets = sorted(
                rng.randint(0, pop.arrival_spread_s) if i else 0 for i in range(len(group))
            )
            depart = t + stay  # group leaves together; checkouts may straggle
            checkouts = [
                depart + rng.randint(0, pop.departure_spread_s) if rng.random() < pop.p_checkout else None
                for _ in group
            ]
            outings.append(_Outing(t, venue, list(group), mode, scanner, offsets, checkouts, {}))
            prev_end = depart
    return outings


def _script_outing(sv: ScriptVisit, rng: Random) -> _Outing:
    offsets = sorted(rng.randint(0, sv.spread_s) if i else 0 for i in range(len(sv.guests)))
    depart = sv.day * DAY_SECONDS + sv.at + sv.stay_s
    return _Outing(
        t=sv.day * DAY_SECONDS + sv.at,
        venue=sv.venue,
        guests=list(sv.guests),
        mode=sv.mode,
        scanner=sv.scanner,
        member_offsets=offsets,
        checkouts=[depart + i for i in range(len(sv.guests))],
        record_ids={},
    )


# -- scheduled steps --------------------------------------------------------------
# Each runs when the driver reaches its entry, so state made by an earlier step
# (``world.hds``, ``world.guests``) is looked up then.


def _register_hds(world: World, count: int) -> None:
    for _ in range(count):
        flow_register_health_dept(world, t=0)


def _register_venues(world: World, venues: VenuesConfig, rng_geo: Random) -> None:
    lat0, lon0, lat1, lon1 = _VENUE_BBOX
    for i in range(venues.count):
        vtype = rng_geo.choices(_VENUE_TYPES, weights=_VENUE_TYPE_WEIGHTS)[0]
        flow_register_venue(
            world,
            {
                "name": f"venue-{i:03d}",
                "owner_contact": f"owner-{i:03d}@example.org",
                "lat": round(lat0 + rng_geo.random() * (lat1 - lat0), 6),
                "lon": round(lon0 + rng_geo.random() * (lon1 - lon0), 6),
                "venue_type": vtype,
                "scanners": venues.scanners_per_venue,
                "unavailable": i in venues.unavailable,
            },
            t=0,
        )


def _register_guests(world: World, count: int) -> None:
    for i in range(count):
        guest = world.new_guest(
            {
                "name": f"Guest {i:04d} Surname{i:04d}",
                "address": f"{i} Example Street, Sampletown",
                "phone": f"+49-151-{i:07d}",
            }
        )
        flow_register_user(world, guest, t=0)


def _rotate_master_key(world: World, day: int) -> None:
    flow_rotate_daily_master_key(world, world.hds[0], day, day * DAY_SECONDS)


def _check_in(world: World, outing: _Outing, member: int, t: int) -> None:
    guest = world.guests[outing.guests[member]]
    venue = world.venues[outing.venue]
    if outing.mode == "self":
        rec = flow_checkin_self(world, guest, venue, t)
    else:
        rec = flow_checkin_scanner(world, guest, venue.scanner_ids[outing.scanner], t)
    outing.record_ids[member] = rec.record_id


def _check_out(world: World, outing: _Outing, member: int, t: int) -> None:
    guest = world.guests[outing.guests[member]]
    open_ci = guest.open_checkin
    # Only close the visit this outing opened: a later check-in may have
    # superseded it app-side.
    if open_ci is not None and open_ci.record_id == outing.record_ids[member]:
        flow_checkout(world, guest, t)


def _group_arrival(world: World, outing: _Outing) -> None:
    # Scheduled after the last member's check-in, so every member has a record.
    world.truth.record_event(
        GROUP_ARRIVAL,
        outing.t + outing.member_offsets[-1],
        {
            "venue_id": world.venues[outing.venue].venue_id,
            "user_ids": sorted(world.guests[g].user_id for g in outing.guests),
            "record_ids": sorted(outing.record_ids.values()),
        },
    )


def _reconnect(world: World, guest_idx: int) -> None:
    world.net.reconnect_event(world.guests[guest_idx].identity)


def _report(
    world: World, guest_idx: int, days: list[int], t: int, codes: dict[int, str], case: int
) -> None:
    codes[case] = flow_report_positive(world, world.guests[guest_idx], days, t)


def _trace(
    world: World, codes: dict[int, str], case: int, t: int, results: list[TraceResult]
) -> None:
    code = codes.get(case)
    if code is None:
        raise SimulationError("trace scheduled before report completed")
    results.append(flow_trace(world, world.hds[case % len(world.hds)], code, t))


# -- run ------------------------------------------------------------------------


class RunResult(NamedTuple):
    """A finished run: its config, world, adversary knowledge, traces and report."""

    config: ScenarioConfig
    world: World
    knowledge: AdversaryKnowledge
    traces: list[TraceResult]
    report: dict[str, Any]

    def artifact_builders(self) -> tuple[tuple[str, Callable[[], list[str]]], ...]:
        """Each artifact's filename and the call that builds its text as a list
        of pieces, in order, so a writer can build, write and drop one artifact
        at a time.  The transcript's pieces are the transport's chunks."""
        transport = self.world.transport
        return (
            ("report.json", lambda: [canonical_json(self.report)]),
            ("events.ndjson", lambda: [self.world.truth.export_ndjson()]),
            ("transcript.ndjson", transport.transcript_chunks),
            ("observations.ndjson", lambda: [transport.export_observations_ndjson()]),
        )

    def artifacts(self) -> dict[str, str]:
        # The transcript is joined in place first, so that its one piece is
        # that string and the join below copies nothing.
        self.world.transport.export_transcript_ndjson()
        return {filename: "".join(build()) for filename, build in self.artifact_builders()}


def run_scenario(config: ScenarioConfig) -> RunResult:
    # Every record a trace or an attack opens was sealed in this run, and
    # every trace id an uploaded seed can match was derived in it, so the
    # run's crypto record keeps both, but only traces and an active adversary
    # decrypt or match seeds; a run with neither keeps its keys only.
    can_decrypt = config.posture == "active" or any(case.traced for case in config.positives)
    with crypto.run_record(can_decrypt):
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

    # Each entry is (t, prio, seq, step, args); seq keeps insertion order
    # among equal (t, prio), so the sort never compares two steps.
    actions: list[tuple[int, int, int, Callable[..., None], tuple]] = []

    def add(t: int, prio: int, step: Callable[..., None], *args: Any) -> None:
        actions.append((t, prio, len(actions), step, args))

    # Installs precede everything else on their day (including registrations
    # on day zero and the day's key rotation).
    for entry, attack in zip(config.attacks, attack_instances):
        add(entry.day * DAY_SECONDS, 0, attack.install, world)
    add(0, 1, _register_hds, world, config.health_depts)
    add(0, 2, _register_venues, world, config.venues, rng_geo)
    add(0, 3, _register_guests, world, config.population.guests)
    for day in range(config.duration_days):
        add(day * DAY_SECONDS, 5, _rotate_master_key, world, day)

    # Visits: generated population traffic plus scripted outings.
    outings = _plan_outings(config, rng_pop)
    outings.extend(_script_outing(sv, rng_pop) for sv in config.script)
    for outing in outings:
        for i, checkout_t in enumerate(outing.checkouts):
            t_i = outing.t + outing.member_offsets[i]
            add(t_i, 10, _check_in, world, outing, i, t_i)
            if checkout_t is not None:
                add(checkout_t, 10, _check_out, world, outing, i, checkout_t)
        if len(outing.guests) >= 2:
            add(outing.t + outing.member_offsets[-1], 11, _group_arrival, world, outing)

    # Reconnect events.
    if config.population.p_reconnect_per_day > 0:
        for day in range(config.duration_days):
            for guest_idx in range(config.population.guests):
                if rng_pop.random() < config.population.p_reconnect_per_day:
                    t_r = day * DAY_SECONDS + rng_pop.randint(0, DAY_SECONDS - 1)
                    add(t_r, 10, _reconnect, world, guest_idx)

    # Positive reports and traces.
    reported_codes: dict[int, str] = {}
    trace_results: list[TraceResult] = []
    chosen_guests: set[int] = set()
    for i, case in enumerate(config.positives):
        guest_idx = case.guest
        if guest_idx is None:
            guest_idx = rng_pop.randrange(config.population.guests)
            while guest_idx in chosen_guests:
                guest_idx = rng_pop.randrange(config.population.guests)
        chosen_guests.add(guest_idx)
        days = list(range(case.report_day - case.window_days + 1, case.report_day + 1))
        t_report = _report_time(case.report_day, i)
        add(t_report, 10, _report, world, guest_idx, days, t_report, reported_codes, i)
        if case.traced:
            # The HD picks the report up the next morning, once every visit of
            # the window days has had its checkout recorded.
            t_trace = (case.report_day + 1) * DAY_SECONDS + 21600 + i * 600
            add(t_trace, 10, _trace, world, reported_codes, i, t_trace, trace_results)

    # Attack executions late in their day, after the day's traffic and traces.
    for i, (entry, attack) in enumerate(zip(config.attacks, attack_instances)):
        t_exec = entry.day * DAY_SECONDS + 84000 + i * 60
        add(t_exec, 10, attack.execute, world, t_exec)

    actions.sort()
    for _, _, _, step, args in actions:
        step(*args)

    # Post-run adversary analyses and verdicts.
    knowledge = AdversaryKnowledge()
    adv.run_passive_analyses(world, knowledge, config.speed_kmh)
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
    kinds = Counter(e.kind for e in truth.events)
    counts = {
        "guests": len(world.guests),
        "venues": len(world.venues),
        "health_depts": len(world.hds),
        "checkins": kinds[CHECKIN],
        "checkouts": kinds[CHECKOUT],
        "reports": kinds[REPORT_POSITIVE],
        "traces": len(traces),
        "observations": len(world.transport.observations),
        "messages": world.transport.messages,
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
            "mitigations": config.mitigations._asdict(),
        },
        "assumptions": dict(ASSUMPTIONS),
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
