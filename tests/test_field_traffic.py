"""Every field that ``parse_config`` reads is set by a bundled scenario or by
a perfbench workload at seeds 1-10, or is on the allowlist below with why it
stays.  A field that no source sets is a knob with no traffic: every run takes
its default, so it belongs in the code as a constant.

The probe wraps ``_Section.reject_unknown``, which runs once per section
after its fields are read: the keys the section read are the fields
``parse_config`` reads there, and the keys its data holds are the ones the
source sets.  Paths drop list indices (``script[].day``) and name an attack's
params by the attack (``adversary.attacks[hd_decryption_oracle].params.hd``).
"""

import importlib.util
import re
import sys
from pathlib import Path

from lucasim import scenario
from lucasim.scenario import bundled_scenario_names, load_bundled_config, parse_config

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SEEDS = range(1, 11)

# Field -> why it stays although no source sets it.
NO_TRAFFIC = {
    "venues.unavailable": "the offline-venue path, which each trace reports as its "
    "unavailable_venues: test_scenario_cli.py::test_offline_venues_validate_and_run",
}


def _workload_scenarios(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    # Dataclasses look their module up while the class is built.
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return [w.build(seed) for w in module.WORKLOADS.values() for seed in SEEDS]


def test_every_field_read_is_set_by_a_source_or_allowlisted(monkeypatch):
    sources = [load_bundled_config(name).raw for name in bundled_scenario_names()]
    sources += _workload_scenarios(monkeypatch)
    read, set_by_a_source = set(), set()
    reject_unknown = scenario._Section.reject_unknown
    parsing = {}

    def label(path):
        params = re.fullmatch(r"adversary\.attacks\[(\d+)\]\.params", path)
        if params:
            attack = parsing["raw"]["adversary"]["attacks"][int(params[1])]["attack"]
            return f"adversary.attacks[{attack}].params"
        return re.sub(r"\[\d+\]", "[]", path)

    def probe(section):
        path = label(section.path)
        for key in section.read:
            field = f"{path}.{key}" if path else key
            read.add(field)
            if key in section.data:
                set_by_a_source.add(field)
        reject_unknown(section)

    monkeypatch.setattr(scenario._Section, "reject_unknown", probe)
    for raw in sources:
        parsing["raw"] = raw
        parse_config(raw)
    no_traffic = read - set_by_a_source
    assert sorted(no_traffic - NO_TRAFFIC.keys()) == [], "no source sets these"
    assert sorted(NO_TRAFFIC.keys() - no_traffic) == [], "now set; drop from the allowlist"
