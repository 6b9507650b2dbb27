"""Every function in ``src/`` is reached by a bundled run or the CLI, or is
on the allowlist below with the test or the mode that reaches it.

The probe records each Python call under ``sys.setprofile`` while it runs
the bundled scenarios with their artifacts and the four CLI commands, plus
one exit-2 and one exit-3 path. A function that falls out of every run
shows up as newly uncalled; one that a run starts to reach must leave the
allowlist.
"""

import importlib
import inspect
import pkgutil
import sys
from pathlib import Path
from types import FunctionType

import lucasim
from lucasim import cli
from lucasim.actors import SimulationError
from lucasim.scenario import bundled_scenario_names, load_bundled_config, run_scenario

SRC = Path(lucasim.__file__).parent

# Function -> what reaches it, when no bundled run and no CLI command does.
UNCALLED = {
    "adversary.Attack.finalize": "abstract: every attack overrides it",
    "adversary.ExfiltrateHDKey._skip_checks": "mode skip_checks: test_adversary.py::"
    "test_exfiltrate_hd_key_skip_checks_reopens_impersonation_under_pki",
    "adversary.KeyExfiltration._backdoor_pair": "mode backdoor_keygen: test_adversary.py::"
    "test_exfiltrate_venue_key_backdoor_keygen",
    "adversary.KeyExfiltration._skip_checks": "mode skip_checks: test_adversary.py::"
    "test_key_exfiltration_outcomes_are_pinned",
    "crypto._decrypt": "a ciphertext outside a run's sealed record: test_crypto.py",
    "crypto._exchange": "a ciphertext outside a run's sealed record: test_crypto.py",
    "model.GroundTruthLog.true_cotenants": "test oracle: test_model.py::test_cotenants_*, "
    "test_acceptance.py::test_criterion_1_honest_tracing_matches_oracle",
    "model.intervals_overlap": "test oracle: test_model.py::test_interval_overlap_half_open",
    "netsim.CarrierNetwork.gateway_count": "test_netsim.py::"
    "test_reconnect_changes_address_with_expected_probability",
    "netsim.CarrierNetwork.gateway_occupancies": "test_netsim.py::"
    "test_gateway_occupancy_matches_sampling_distribution",
}


def _src_functions():
    """Each module-level function and method defined in ``src/``, by code object."""
    found = {}
    for info in pkgutil.iter_modules(lucasim.__path__):
        module = importlib.import_module(f"lucasim.{info.name}")
        owners = [module] + [
            value
            for value in vars(module).values()
            if inspect.isclass(value) and value.__module__ == module.__name__
        ]
        for owner in owners:
            for value in vars(owner).values():
                for fn in (getattr(value, "__func__", value), getattr(value, "fget", None)):
                    if isinstance(fn, FunctionType) and Path(fn.__code__.co_filename).parent == SRC:
                        found[fn.__code__] = f"{info.name}.{fn.__qualname__}"
    return found


def _exercise(tmp_path, monkeypatch):
    for name in bundled_scenario_names():
        run_scenario(load_bundled_config(name)).artifacts()
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["list"]) == 0
    assert cli.main(["validate", "--config", "honest_baseline"]) == 0
    assert cli.main(["run", "--config", "honest_baseline", "--out", str(a)]) == 0
    reseeded = ["run", "--config", "honest_baseline", "--seed-override", "2", "--json-only"]
    assert cli.main([*reseeded, "--out", str(b)]) == 0
    assert cli.main(["compare", str(a / "report.json"), str(b / "report.json")]) == 0
    assert cli.main(["validate", "--config", str(tmp_path / "missing.json")]) == 2

    def breach(config):
        raise SimulationError("synthetic invariant breach")

    monkeypatch.setattr(cli, "run_scenario", breach)
    assert cli.main(["run", "--config", "honest_baseline", "--json-only"]) == 3


def test_uncalled_functions_match_the_allowlist(tmp_path, monkeypatch, capsys):
    functions = _src_functions()
    called = set()

    def record(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(record)
    try:
        _exercise(tmp_path, monkeypatch)
    finally:
        sys.setprofile(previous)
    capsys.readouterr()
    uncalled = {name for code, name in functions.items() if code not in called}
    assert sorted(uncalled - UNCALLED.keys()) == [], "newly uncalled"
    assert sorted(UNCALLED.keys() - uncalled) == [], "now reached; drop from the allowlist"
