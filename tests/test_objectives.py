"""Objective checkers: verdicts must carry truth-verified witnesses."""

from random import Random

from conftest import make_world, populate
from lucasim.actors import (
    flow_checkin_scanner,
    flow_checkout,
    flow_report_positive,
    flow_trace,
)
from lucasim.adversary import (
    Adversary,
    AdversaryKnowledge,
    ContactClaim,
    consolidate,
    make_attack,
    run_passive_analyses,
)
from lucasim.netsim import NetworkConfig
from lucasim.objectives import (
    check_O1,
    check_O2,
    check_O3,
    check_O4,
    check_O5,
    check_O6,
    evaluate_objectives,
)

def _analyze(world, adversary=None, attacks=()):
    knowledge = AdversaryKnowledge()
    run_passive_analyses(world, knowledge, speed_kmh=50.0)
    for attack in attacks:
        knowledge.attack_outcomes.append(attack.finalize(world, knowledge))
    consolidate(world, adversary, knowledge)
    return knowledge


def _visit(world, guest, scanner, t, stay=2000):
    rec = flow_checkin_scanner(world, guest, scanner, t)
    flow_checkout(world, guest, t + stay)
    return rec


def test_objectives_all_hold_on_empty_scenario():
    world = populate(make_world("empty"), guests=1)
    knowledge = _analyze(world)
    for verdict in evaluate_objectives(knowledge, world.truth):
        assert verdict.holds, verdict.objective


def test_o1_holds_on_passive_honest_run():
    world = populate(make_world("o1h"))
    _visit(world, world.guests[0], "v000:s0", 30000)
    knowledge = _analyze(world)
    assert check_O1(knowledge, world.truth).holds


def test_o1_violated_by_master_substitution_plus_venue_oracle():
    world = make_world("o1v")
    adversary = Adversary(Random("adv"))
    sub = make_attack(adversary, "substitute_master_key", {"day": 0})
    oracle = make_attack(adversary, "venue_decryption_oracle", {"venue": 0})
    sub.install(world)
    populate(world, guests=2, venues=1)
    _visit(world, world.guests[0], "v000:s0", 30000)
    oracle.execute(world, 84000)
    knowledge = _analyze(world, adversary, attacks=[sub, oracle])
    verdict = check_O1(knowledge, world.truth)
    assert not verdict.holds
    assert verdict.witness["user_id"] == world.guests[0].user_id


def test_o2_violated_by_unique_address_association():
    net = NetworkConfig(carriers=1, ipv6_probability=(1.0,))
    world = populate(make_world("o2v", network=net), guests=2)
    _visit(world, world.guests[0], "v000:s0", 30000)
    knowledge = _analyze(world)
    verdict = check_O2(knowledge, world.truth)
    assert not verdict.holds
    assert verdict.witness["association"] == "unique network identity"


def test_o2_holds_when_the_adversary_ran_no_analysis():
    net = NetworkConfig(carriers=1, ipv6_probability=(1.0,))
    world = populate(make_world("o2h", network=net), guests=1)
    _visit(world, world.guests[0], "v000:s0", 30000)
    knowledge = AdversaryKnowledge()
    consolidate(world, None, knowledge)
    assert check_O2(knowledge, world.truth).holds


def test_o2_violated_by_trace_leakage_mapping_uninfected_contact():
    net = NetworkConfig(carriers=1, ipv6_probability=(0.0,), nat_pool_min=100, nat_pool_max=100, adoption=1.0)
    world = populate(make_world("o2t", network=net), guests=3, venues=1)
    g0, g1 = world.guests[0], world.guests[1]
    r0 = flow_checkin_scanner(world, g0, "v000:s0", 30000)
    r1 = flow_checkin_scanner(world, g1, "v000:s0", 30050)
    flow_checkout(world, g0, 33000)
    flow_checkout(world, g1, 33050)
    code = flow_report_positive(world, g0, [0], 75600)
    flow_trace(world, world.hds[0], code, 79200)
    knowledge = _analyze(world)
    verdict = check_O2(knowledge, world.truth)
    assert not verdict.holds
    assert verdict.witness["user_id"] == g1.user_id
    assert verdict.witness["association"] == "user_id"


def test_o3_violated_on_linked_ipv6_checkins():
    net = NetworkConfig(carriers=1, ipv6_probability=(1.0,))
    world = populate(make_world("o3v", network=net), guests=1)
    _visit(world, world.guests[0], "v000:s0", 30000)
    _visit(world, world.guests[0], "v001:s0", 40000)
    knowledge = _analyze(world)
    verdict = check_O3(knowledge, world.truth)
    assert not verdict.holds
    assert len(verdict.witness["record_ids"]) == 2


def test_o3_holds_vacuously_with_single_checkin_per_guest():
    net = NetworkConfig(carriers=1, ipv6_probability=(1.0,))
    world = populate(make_world("o3h", network=net), guests=3)
    for i, guest in enumerate(world.guests):
        _visit(world, guest, "v000:s0", 30000 + i * 3000)
    knowledge = _analyze(world)
    assert check_O3(knowledge, world.truth).holds


def test_o4_violated_by_active_reconstruction_without_report():
    world = make_world("o4v")
    adversary = Adversary(Random("adv"))
    exf_v = make_attack(adversary, "exfiltrate_venue_key", {"venue": 0, "mode": "exfil_on_gen"})
    exf_h = make_attack(adversary, "exfiltrate_hd_key", {"hd": 1, "mode": "exfil_on_gen"})
    exf_v.install(world)
    exf_h.install(world)
    populate(world, guests=2, venues=1)
    guest = world.guests[0]
    _visit(world, guest, "v000:s0", 30000)
    _visit(world, guest, "v000:s0", 40000)
    knowledge = _analyze(world, adversary, attacks=[exf_v, exf_h])
    verdict = check_O4(knowledge, world.truth)
    assert not verdict.holds
    assert verdict.witness["user_id"] == guest.user_id
    assert len(verdict.witness["record_ids"]) == 2


def test_o4_holds_when_guest_consented_via_report():
    net = NetworkConfig(carriers=1, ipv6_probability=(1.0,))
    world = populate(make_world("o4h", network=net), guests=2)
    g0 = world.guests[0]
    _visit(world, g0, "v000:s0", 30000)
    _visit(world, g0, "v001:s0", 40000)
    code = flow_report_positive(world, g0, [0], 75600)
    flow_trace(world, world.hds[0], code, 79200)
    knowledge = _analyze(world)
    assert check_O4(knowledge, world.truth).holds


def test_o5_holds_when_window_covers_everything():
    net = NetworkConfig(carriers=1, ipv6_probability=(1.0,))
    world = populate(make_world("o5h", network=net), guests=2)
    g0 = world.guests[0]
    _visit(world, g0, "v000:s0", 30000)
    code = flow_report_positive(world, g0, [0], 75600)
    flow_trace(world, world.hds[0], code, 79200)
    knowledge = _analyze(world)
    assert check_O5(knowledge, world.truth).holds


def test_o5_violated_by_passively_linked_pre_window_visit():
    net = NetworkConfig(carriers=1, ipv6_probability=(1.0,))
    world = populate(make_world("o5v", network=net), guests=2, rotate_days=(0, 1))
    g0 = world.guests[0]
    pre = _visit(world, g0, "v000:s0", 30000)  # day 0, outside the window
    _visit(world, g0, "v001:s0", 86400 + 30000)  # day 1, in window
    code = flow_report_positive(world, g0, [1], 86400 + 75600)
    flow_trace(world, world.hds[0], code, 86400 + 79200)
    knowledge = _analyze(world)
    verdict = check_O5(knowledge, world.truth)
    assert not verdict.holds
    assert pre.record_id in verdict.witness["record_ids"]


def test_o5_violated_by_expand_window():
    world = make_world("o5e")
    adversary = Adversary(Random("adv"))
    expand = make_attack(adversary, "expand_window", {"pad_per_venue": 5})
    imp = make_attack(adversary, "impersonate_hd", {})
    imp.install(world)
    expand.install(world)
    populate(world, guests=2, venues=1, rotate_days=(0, 1))
    g0 = world.guests[0]
    pre = _visit(world, g0, "v000:s0", 30000)  # day 0: outside window
    _visit(world, g0, "v000:s0", 86400 + 30000)  # day 1: in window
    code = flow_report_positive(world, g0, [1], 86400 + 75600)
    flow_trace(world, world.hds[0], code, 86400 + 79200)
    knowledge = _analyze(world, adversary, attacks=[imp, expand])
    verdict = check_O5(knowledge, world.truth)
    assert not verdict.holds
    assert pre.record_id in verdict.witness["record_ids"]


def test_o6_holds_on_honest_trace():
    world = populate(make_world("o6h"), guests=3)
    g0, g1 = world.guests[0], world.guests[1]
    flow_checkin_scanner(world, g0, "v000:s0", 30000)
    flow_checkin_scanner(world, g1, "v000:s0", 30100)
    flow_checkout(world, g0, 33000)
    flow_checkout(world, g1, 33100)
    code = flow_report_positive(world, g0, [0], 75600)
    flow_trace(world, world.hds[0], code, 79200)
    knowledge = _analyze(world)
    assert check_O6(knowledge, world.truth).holds


def test_o6_violated_by_venue_oracle():
    world = make_world("o6v")
    adversary = Adversary(Random("adv"))
    oracle = make_attack(adversary, "venue_decryption_oracle", {"venue": 0})
    hd_oracle = make_attack(adversary, "hd_decryption_oracle", {"hd": 0})
    populate(world, guests=2, venues=1)
    _visit(world, world.guests[0], "v000:s0", 30000)
    oracle.execute(world, 84000)
    hd_oracle.execute(world, 84060)
    knowledge = _analyze(world, adversary, attacks=[oracle, hd_oracle])
    verdict = check_O6(knowledge, world.truth)
    assert not verdict.holds
    assert "consent" in verdict.witness["note"]


def test_o6_violated_by_venue_key_exfiltration():
    world = make_world("o6e")
    adversary = Adversary(Random("adv"))
    exf_v = make_attack(adversary, "exfiltrate_venue_key", {"venue": 0, "mode": "exfil_on_gen"})
    exf_h = make_attack(adversary, "exfiltrate_hd_key", {"hd": 1, "mode": "exfil_on_gen"})
    exf_v.install(world)
    exf_h.install(world)
    populate(world, guests=2, venues=1)
    _visit(world, world.guests[0], "v000:s0", 30000)
    knowledge = _analyze(world, adversary, attacks=[exf_v, exf_h])
    verdict = check_O6(knowledge, world.truth)
    assert not verdict.holds
    assert verdict.witness.get("contact_data_obtained") is True


def test_linkage_hostile_honest_baseline_all_hold():
    # One check-in per guest, everyone behind a single IPv4 gateway, no
    # traces, no attacks: the checker must report no false positives.
    net = NetworkConfig(carriers=1, ipv6_probability=(0.0,), nat_pool_min=200, nat_pool_max=200, adoption=1.0)
    world = populate(make_world("hostile", network=net), guests=20, venues=3)
    for i, guest in enumerate(world.guests):
        _visit(world, guest, f"v{i % 3:03d}:s0", 30000 + i * 2100)
    knowledge = _analyze(world)
    for verdict in evaluate_objectives(knowledge, world.truth):
        assert verdict.holds, (verdict.objective, verdict.witness)


def test_o1_exempts_an_infected_user():
    world = populate(make_world("o1i"), guests=2)
    g0, g1 = world.guests
    _visit(world, g0, "v000:s0", 30000)
    flow_report_positive(world, g0, [0], 75600)
    knowledge = AdversaryKnowledge()
    for guest in (g0, g1):
        contact = world.truth.contact_of(guest.user_id)
        knowledge.contact_data[guest.user_id] = ContactClaim(contact, "test")
    verdict = check_O1(knowledge, world.truth)
    assert not verdict.holds and verdict.witness["user_id"] == g1.user_id
    del knowledge.contact_data[g1.user_id]
    assert check_O1(knowledge, world.truth).holds
