"""Carrier network model: identity assignment, NAT ports, observations."""

import json
import math
from collections import Counter
from random import Random

import pytest
from scipy.stats import chi2

from lucasim import netsim
from lucasim.netsim import (
    ADOPTION_MIN,
    IPV6_PROBABILITY_MAX,
    MAX_CARRIERS,
    MSG_CHECKOUT,
    NAT_POOL_MAX,
    CarrierNetwork,
    NetworkConfig,
    SimulationError,
    StaticIdentity,
    Transport,
    next_port,
)
from lucasim.scenario import load_bundled_config, run_scenario


def test_ipv6_probability_one_gives_unique_addresses():
    net = CarrierNetwork(
        NetworkConfig(carriers=2, ipv6_probability=(1.0, 1.0)), Random(1)
    )
    identities = [net.assign_identity() for _ in range(500)]
    addresses = [i.address for i in identities]
    assert all(i.uses_ipv6 for i in identities)
    assert len(set(addresses)) == 500


def test_nat_pool_caps_devices_per_gateway():
    net = CarrierNetwork(
        NetworkConfig(carriers=1, ipv6_probability=(0.0,), nat_pool_min=64, nat_pool_max=64, adoption=1.0),
        Random(2),
    )
    identities = [net.assign_identity() for _ in range(1000)]
    per_gateway = Counter(i.address for i in identities)
    assert max(per_gateway.values()) <= 64


def _expected_occupancy_pmf(cfg: NetworkConfig) -> dict[int, float]:
    """Enumerate P(app devices per full gateway): uniform capacity, binomial
    adoption, zero folded into one (a gateway is only opened when needed)."""
    sizes = range(cfg.nat_pool_min, cfg.nat_pool_max + 1)
    p_size = 1.0 / len(sizes)
    pmf: dict[int, float] = {}
    for c in sizes:
        for k in range(c + 1):
            prob = math.comb(c, k) * cfg.adoption**k * (1 - cfg.adoption) ** (c - k)
            pmf[max(1, k)] = pmf.get(max(1, k), 0.0) + p_size * prob
    return pmf


def test_carrier_count_bounded_by_gateway_address_format():
    n = MAX_CARRIERS
    net = CarrierNetwork(NetworkConfig(carriers=n, ipv6_probability=(0.0,) * n), Random(10))
    last = next(i for i in iter(net.assign_identity, None) if i.carrier == n - 1)
    assert last.address.startswith("255.64.")
    assert _rejected_at({"carriers": n + 1, "ipv6_probability": [0.0] * (n + 1)}) == "network.carriers"


def test_gateway_occupancy_matches_sampling_distribution():
    cfg = NetworkConfig(carriers=1, ipv6_probability=(0.0,))
    net = CarrierNetwork(cfg, Random(3))
    per_gateway = Counter(net.assign_identity().address for _ in range(2000))
    occupancies = list(per_gateway.values())[:-1]  # the last gateway is still filling
    pmf = _expected_occupancy_pmf(cfg)
    edges = [(1, 6), (7, 9), (10, 12), (13, 15), (16, 18), (19, 64)]
    observed = [sum(1 for o in occupancies if lo <= o <= hi) for lo, hi in edges]
    expected = [len(occupancies) * sum(p for k, p in pmf.items() if lo <= k <= hi) for lo, hi in edges]
    stat = sum((o - e) ** 2 / e for o, e in zip(observed, expected) if e > 0)
    p_value = chi2.sf(stat, df=len(edges) - 1)
    assert p_value > 0.01, f"chi2={stat:.2f} p={p_value:.4f} obs={observed} exp={expected}"


def test_ports_increment_by_one():
    net = CarrierNetwork(NetworkConfig(carriers=1, ipv6_probability=(0.0,)), Random(4))
    ident = net.assign_identity()
    p = next_port(ident)
    assert next_port(ident) == p + 1
    assert next_port(ident) == p + 2


def test_port_cursor_wraps_to_port_min():
    net = CarrierNetwork(NetworkConfig(carriers=1, ipv6_probability=(0.0,)), Random(4))
    ident = net.assign_identity()
    ident.port_cursor = 65535
    assert next_port(ident) == 65535
    assert next_port(ident) == netsim.PORT_MIN


def test_nat_run_reuses_ports_when_the_cursor_wraps(monkeypatch):
    # Cursors that start 6 ports below the top of the port space wrap within
    # a handful of messages, as a long run wraps them after 64k.
    monkeypatch.setattr(netsim, "PORT_MIN", 65530)
    monkeypatch.setattr(netsim, "PORT_SPREAD_MAX", 65530)
    result = run_scenario(load_bundled_config("nat_linkage"))
    ports = {o.src_port for o in result.world.transport.observations if o.src_port}
    assert ports == set(range(65530, 65536))  # port 0: fixed infrastructure endpoints


def test_next_port_not_applicable_for_ipv6():
    net = CarrierNetwork(NetworkConfig(carriers=1, ipv6_probability=(1.0,)), Random(5))
    ident = net.assign_identity()
    with pytest.raises(SimulationError, match="no NAT port cursor"):
        next_port(ident)


def test_reconnect_resets_cursor():
    net = CarrierNetwork(NetworkConfig(carriers=1, ipv6_probability=(0.0,)), Random(6))
    ident = net.assign_identity()
    p, serial = next_port(ident), ident.serial
    net.reconnect_event(ident)
    assert ident.serial > serial  # a new identity from the reconnect on
    assert next_port(ident) != p + 1  # cursor re-seeded, not continued


def test_two_devices_same_gateway_no_port_collisions():
    net = CarrierNetwork(
        NetworkConfig(carriers=1, ipv6_probability=(0.0,), nat_pool_min=16, nat_pool_max=16, adoption=1.0),
        Random(7),
    )
    a = net.assign_identity()
    b = net.assign_identity()
    assert a.address == b.address
    ports_a = {next_port(a) for _ in range(100)}
    ports_b = {next_port(b) for _ in range(100)}
    assert not ports_a & ports_b


def test_reconnect_changes_address_with_expected_probability():
    cfg = NetworkConfig(carriers=1, ipv6_probability=(0.0,), nat_pool_min=4, nat_pool_max=4, adoption=1.0)
    net = CarrierNetwork(cfg, Random(8))
    identities = [net.assign_identity() for _ in range(40)]  # 10 gateways
    n_gateways = len({i.address for i in identities})
    assert n_gateways == 10
    ident = identities[0]
    changes = 0
    trials = 2000
    for _ in range(trials):
        before = ident.address
        net.reconnect_event(ident)
        if ident.address != before:
            changes += 1
    expected = 1.0 - 1.0 / n_gateways
    assert abs(changes / trials - expected) < 0.03


def test_ipv6_reconnect_gets_fresh_unique_address():
    net = CarrierNetwork(NetworkConfig(carriers=1, ipv6_probability=(1.0,)), Random(9))
    a = net.assign_identity()
    b = net.assign_identity()
    old = a.address
    net.reconnect_event(a)
    assert a.address != old
    assert a.address != b.address


def test_reused_ipv6_address_raises_simulation_error():
    net = CarrierNetwork(NetworkConfig(carriers=1, ipv6_probability=(1.0,)), Random(9))
    net.assign_identity()
    net._serial = 0  # replay the serial counter so the next address repeats
    with pytest.raises(SimulationError, match="handed out twice"):
        net.assign_identity()


def test_deliver_records_observation_fields():
    net = CarrierNetwork(NetworkConfig(carriers=1, ipv6_probability=(0.0,)), Random(10))
    transport = Transport()
    ident = net.assign_identity()
    obs = transport.to_server(
        ident, "guest#0", MSG_CHECKOUT, {"trace_id": "ab"}, t=123, trace_id="ab" * 16
    )
    assert obs.message_kind == MSG_CHECKOUT
    assert obs.trace_id == "ab" * 16
    assert obs.src_address == ident.address
    assert obs.ip_version == 4
    assert obs.t == 123
    assert len(transport.observations) == 1
    assert len(transport.export_transcript_ndjson().splitlines()) == 1


def test_ipv6_observation_carries_device_unique_address():
    net = CarrierNetwork(NetworkConfig(carriers=1, ipv6_probability=(1.0,)), Random(11))
    transport = Transport()
    a, b = net.assign_identity(), net.assign_identity()
    oa = transport.to_server(a, "guest#0", MSG_CHECKOUT, {}, t=1)
    ob = transport.to_server(b, "guest#1", MSG_CHECKOUT, {}, t=2)
    assert oa.ip_version == ob.ip_version == 6
    assert oa.src_address != ob.src_address


def test_static_identity_observation():
    transport = Transport()
    obs = transport.to_server(
        StaticIdentity("203.0.113.7", "scanner-frontend"), "scanner:v000:s0", "other", {}, t=5
    )
    assert obs.src_port == 0
    assert obs.device_type == "scanner-frontend"


def test_message_count_order_preserving():
    net = CarrierNetwork(NetworkConfig(carriers=1, ipv6_probability=(0.0,)), Random(12))
    transport = Transport()
    ident = net.assign_identity()
    for i in range(10):
        transport.to_server(ident, "guest#0", "other", {"i": i}, t=i)
    assert _seqs(transport.export_observations_ndjson()) == list(range(10))
    assert [o.t for o in transport.observations] == list(range(10))


def test_port_monotonicity_over_full_scenario_logs():
    # Without reconnects, one device per gateway makes each address belong to
    # one device for the whole run, so the observation log itself exposes
    # every device's full port sequence.
    from lucasim.scenario import parse_config, run_scenario

    config = parse_config(
        {
            "name": "portmono",
            "seed": 9,
            "duration_days": 3,
            "population": {"guests": 15, "visits_per_day": 1.5},
            "venues": {"count": 4},
            "network": {"carriers": 1, "ipv6_probability": [0.0], "nat_pool": [1, 1], "adoption": 1.0},
            "health_depts": 2,
        }
    )
    result = run_scenario(config)
    by_address: dict[str, list[int]] = {}
    for obs in result.world.transport.observations:
        if obs.src_port > 0:
            by_address.setdefault(obs.src_address, []).append(obs.src_port)
    assert by_address
    for address, ports in by_address.items():
        assert ports == sorted(ports), f"ports not monotone behind {address}"
        assert len(set(ports)) == len(ports)


def test_observation_completeness_one_per_server_bound_message():
    from lucasim.scenario import load_bundled_config, run_scenario

    result = run_scenario(load_bundled_config("trace_leakage"))
    transport = result.world.transport
    server_bound = [
        line
        for line in transport.export_transcript_ndjson().splitlines()
        if json.loads(line)["receiver"] == "server"
    ]
    assert len(server_bound) == len(transport.observations)


def _seqs(text):
    return [json.loads(line)["seq"] for line in text.splitlines()]


def test_transcript_across_chunks_exports_one_gapless_line_per_message():
    transport = Transport()
    n = 2 * netsim._CHUNK_LINES + 5
    for i in range(n):
        transport.local("a", "b", "kind", {"i": i}, t=i)
    text = transport.export_transcript_ndjson()
    assert transport.messages == n
    assert _seqs(text) == list(range(n))
    assert [json.loads(line)["payload"]["i"] for line in text.splitlines()] == list(range(n))


def test_transcript_export_is_held_once_and_not_copied_again():
    transport = Transport()
    for i in range(netsim._CHUNK_LINES + 3):
        transport.local("a", "b", "kind", {}, t=i)
    text = transport.export_transcript_ndjson()
    assert transport.export_transcript_ndjson() is text
    assert len(transport._chunks) == 1 and transport._chunks[0] is text
    assert transport._lines == []


def test_transcript_chunks_hold_the_export_unjoined():
    transport = Transport()
    n = 2 * netsim._CHUNK_LINES + 5
    for i in range(n):
        transport.local("a", "b", "kind", {"i": i}, t=i)
    chunks = transport.transcript_chunks()
    assert [len(c.splitlines()) for c in chunks] == [netsim._CHUNK_LINES] * 2 + [5]
    assert transport.transcript_chunks() == chunks
    transport.local("a", "b", "kind", {"i": n}, t=n)
    text = "".join(transport.transcript_chunks())
    assert _seqs(text) == list(range(n + 1))
    assert transport.export_transcript_ndjson() == text


def test_artifacts_hold_the_transcript_the_transport_holds():
    """``RunResult.artifacts()`` joins the transcript once, in place, and
    keeps no second copy of it."""
    from lucasim.scenario import load_bundled_config, run_scenario

    result = run_scenario(load_bundled_config("honest_baseline"))
    transcript = result.artifacts()["transcript.ndjson"]
    assert result.world.transport.transcript_chunks() == [transcript]
    assert result.world.transport.export_transcript_ndjson() is transcript


def test_message_logged_after_an_export_continues_seq():
    transport = Transport()
    transport.local("a", "b", "kind", {}, t=0)
    assert _seqs(transport.export_transcript_ndjson()) == [0]
    transport.local("a", "b", "kind", {}, t=1)
    assert _seqs(transport.export_transcript_ndjson()) == [0, 1]
    assert transport.messages == 2


def _rejected_at(network):
    """The path at which ``parse_config`` rejects ``network``, or None if it accepts it."""
    from lucasim.scenario import ConfigError, parse_config

    try:
        parse_config(
            {
                "name": "bounds",
                "seed": 1,
                "duration_days": 1,
                "population": {"guests": 2},
                "venues": {"count": 1},
                "network": network,
            }
        )
    except ConfigError as exc:
        return exc.path
    return None


@pytest.mark.parametrize(
    "network, ok",
    [
        ({"carriers": 1, "ipv6_probability": [0.0], "adoption": 0.005}, False),
        ({"carriers": 1, "ipv6_probability": [0.0], "adoption": ADOPTION_MIN}, True),
        ({"carriers": 2, "ipv6_probability": [0.0, 1.5]}, False),
        ({"carriers": 2, "ipv6_probability": [0.0, IPV6_PROBABILITY_MAX]}, True),
        ({"carriers": 1, "ipv6_probability": [0.0], "nat_pool": [16, NAT_POOL_MAX + 1]}, False),
        ({"carriers": 1, "ipv6_probability": [0.0], "nat_pool": [NAT_POOL_MAX, NAT_POOL_MAX]}, True),
    ],
    ids=["adoption-below", "adoption-min", "ipv6-above", "ipv6-max", "nat-pool-above", "nat-pool-max"],
)
def test_network_bounds_agree_between_parse_config_and_validate(network, ok):
    """``parse_config`` is the one check of the ``network`` section: each
    bound accepts its limit and rejects past it, at a ``network.`` path."""
    path = _rejected_at(network)
    if ok:
        assert path is None
    else:
        assert path.startswith("network.")


def _parsed_network(**section):
    """The ``NetworkConfig`` that ``parse_config`` builds from a scenario whose
    ``network`` section is ``section``, or that has none when it is empty."""
    from lucasim.scenario import parse_config

    raw = {
        "name": "defaults",
        "seed": 1,
        "duration_days": 1,
        "population": {"guests": 2},
        "venues": {"count": 1},
    }
    if section:
        raw["network"] = section
    return parse_config(raw).network


def test_network_defaults_come_from_network_config():
    assert _parsed_network() == NetworkConfig()
    assert _parsed_network(carriers=5) == NetworkConfig(
        carriers=5, ipv6_probability=(1.0, 1.0, 0.0, 0.0, 0.0)
    )
    assert _parsed_network(carriers=2).ipv6_probability == (1.0, 1.0)
