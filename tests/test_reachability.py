"""Every function in ``src/`` is reached by a bundled run or the CLI, or is
on the allowlist below with the test or the mode that reaches it; every
record field in ``src/`` (the annotated fields of a ``NamedTuple`` and the
``__slots__`` of a plain record class) is read there too, or is on the
write-only allowlist with what reads it.

The probe records each Python call under ``sys.setprofile`` while it runs
the bundled scenarios with their artifacts and the four CLI commands, plus
one exit-2 and one exit-3 path. A function that falls out of every run
shows up as newly uncalled; one that a run starts to reach must leave the
allowlist.
"""

import ast
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
    "crypto.derive_all_trace_ids": "seeds matched outside a run's record of derived trace ids: "
    "test_actors.py::test_records_for_seeds_in_counter_order",
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
    breaching = ["run", "--config", "honest_baseline", "--json-only"]
    assert cli.main([*breaching, "--out", str(tmp_path / "c")]) == 3


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


# Record field -> what reads it, when no code in ``src/`` does.
WRITE_ONLY = {
    "HealthDeptRecord.sign_public": "server-held state the harm model names: "
    "the HD signing key the server stores",
    "RunResult.knowledge": "test_adversary.py::test_scoped_consolidation_equals_brute_force",
    "RunResult.traces": "test_acceptance.py::test_criterion_1_honest_tracing_matches_oracle",
    "TraceServerView.seed_days": "server-held state the harm model names: "
    "the days whose seeds a trace request disclosed",
    "UserRecord.phone_validated": "server-held state the harm model names: "
    "the phone check the server records",
    "VenueRecord.owner_contact": "server-held state the harm model names: "
    "the venue owner's contact data the server stores",
    "VenueRecord.venue_type": "server-held state the harm model names: "
    "the venue type the server stores",
}


# A load that only receives one of these calls writes to the field.
MUTATORS = {"append", "extend", "update", "add", "setdefault", "insert"}


# Today's record classes and their fields; a probe that finds fewer has
# stopped recognising a form that records are defined in.
MIN_RECORD_CLASSES = 39
MIN_RECORD_FIELDS = 214


def _record_fields(cls):
    """Each field of a record class with its annotation (None for a slot):
    the annotated names of a ``NamedTuple``, the ``__slots__`` of any other class."""
    if any(isinstance(base, ast.Name) and base.id == "NamedTuple" for base in cls.bases):
        return {
            stmt.target.id: stmt.annotation
            for stmt in cls.body
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
        }
    return {
        slot.value: None
        for stmt in cls.body
        if isinstance(stmt, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "__slots__" for t in stmt.targets)
        for slot in stmt.value.elts
    }


def test_record_fields_are_read_or_allowlisted():
    trees = [ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))]
    nodes = [node for tree in trees for node in ast.walk(tree)]
    records = {cls.name: _record_fields(cls) for cls in nodes if isinstance(cls, ast.ClassDef)}
    fields = {
        f"{name}.{field}": annotation
        for name, record in records.items()
        for field, annotation in record.items()
    }
    assert len([r for r in records.values() if r]) >= MIN_RECORD_CLASSES
    assert len(fields) >= MIN_RECORD_FIELDS
    mutated = {
        id(call.func.value)
        for call in nodes
        if isinstance(call, ast.Call)
        and isinstance(call.func, ast.Attribute)
        and call.func.attr in MUTATORS
    }
    loaded = {
        n.attr
        for n in nodes
        if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load) and id(n) not in mutated
    }
    # ``config.mitigations._asdict()`` reads every field of the classes that
    # the field ``mitigations`` is annotated with.
    dumped = {
        name.id
        for call in nodes
        if isinstance(call, ast.Call)
        and isinstance(call.func, ast.Attribute)
        and call.func.attr == "_asdict"
        and isinstance(call.func.value, ast.Attribute)
        for field, annotation in fields.items()
        if field.endswith(f".{call.func.value.attr}") and annotation is not None
        for name in ast.walk(annotation)
        if isinstance(name, ast.Name)
    }
    unread = {
        field
        for field in fields
        if field.split(".")[1] not in loaded and field.split(".")[0] not in dumped
    }
    assert sorted(unread - WRITE_ONLY.keys()) == [], "write-only"
    assert sorted(WRITE_ONLY.keys() - unread) == [], "now read; drop from the allowlist"
