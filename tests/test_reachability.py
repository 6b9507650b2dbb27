"""Every function in ``src/`` is reached by a bundled run or the CLI, or is
on the allowlist below with the test or the mode that reaches it; every
record field in ``src/`` (the annotated fields of a ``NamedTuple`` and the
``__slots__`` of a plain record class) is read by those runs too, or is on
the write-only allowlist with what reads it.

The probe records each Python call under ``sys.setprofile`` while it runs
the bundled scenarios with their artifacts and the four CLI commands, plus
one exit-2 and one exit-3 path. A function that falls out of every run
shows up as newly uncalled; one that a run starts to reach must leave the
allowlist.  The field probe makes the same runs with each record field's
descriptor wrapped, so a read counts for the one class whose field it
loads; a record read only whole (unpacked, or through ``_asdict``) reads
no field this way.
"""

import ast
import dis
import functools
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


# Record field -> why it stays although no bundled run or CLI command reads it.
WRITE_ONLY = {
    "HealthDeptRecord.sign_public": "server-held state the harm model names: "
    "the HD signing key the server stores",
    "RunResult.config": "test_acceptance.py::test_criterion_6_group_linkage",
    "RunResult.knowledge": "test_adversary.py::test_scoped_consolidation_equals_brute_force",
    "RunResult.traces": "test_acceptance.py::test_criterion_1_honest_tracing_matches_oracle",
    "TraceServerView.code": "server-held state the harm model names: "
    "the verification code a trace request named",
    "TraceServerView.seed_days": "server-held state the harm model names: "
    "the days whose seeds a trace request disclosed",
    "UserRecord.phone_validated": "server-held state the harm model names: "
    "the phone check the server records",
    "VenueRecord.name": "server-held state the harm model names: the venue name the server stores",
    "VenueRecord.owner_contact": "server-held state the harm model names: "
    "the venue owner's contact data the server stores",
    "VenueRecord.venue_type": "server-held state the harm model names: "
    "the venue type the server stores",
    "Visit.venue_id": "tests/oracle.py, the reference tracing oracle",
}


# A load that only receives one of these calls writes to the field.
MUTATORS = {"append", "extend", "update", "add", "setdefault", "insert"}


# Today's record classes and their fields; a probe that finds fewer has
# stopped recognising a form that records are defined in.
MIN_RECORD_CLASSES = 41
MIN_RECORD_FIELDS = 210


def _record_fields(cls):
    """Each field name of a record class: the annotated names of a
    ``NamedTuple``, the ``__slots__`` of any other class."""
    if any(isinstance(base, ast.Name) and base.id == "NamedTuple" for base in cls.bases):
        return [
            stmt.target.id
            for stmt in cls.body
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
        ]
    return [
        slot.value
        for stmt in cls.body
        if isinstance(stmt, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "__slots__" for t in stmt.targets)
        for slot in stmt.value.elts
    ]


@functools.cache
def _next_instruction(code):
    """Each instruction offset of ``code`` -> the instruction after it."""
    instructions = list(dis.get_instructions(code))
    return dict(zip((i.offset for i in instructions), instructions[1:]))


class _CountedField:
    """A record field's descriptor, wrapped to note each read of the field by
    the class that defines it: a load that only feeds a mutator call
    (``view.contact_user_ids.extend(...)``) writes to the field."""

    def __init__(self, name, descriptor, read):
        self.name, self.descriptor, self.read = name, descriptor, read

    def __get__(self, obj, owner=None):
        if obj is None:
            return self.descriptor
        caller = sys._getframe(1)
        after = _next_instruction(caller.f_code).get(caller.f_lasti)
        if not (after and after.opname in ("LOAD_METHOD", "LOAD_ATTR") and after.argval in MUTATORS):
            self.read.add(self.name)
        return self.descriptor.__get__(obj, owner)

    def __set__(self, obj, value):
        self.descriptor.__set__(obj, value)


def test_record_fields_are_read_or_allowlisted(tmp_path, monkeypatch, capsys):
    fields = {}  # "Class.field" -> (class, field)
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef) and _record_fields(node):
                cls = getattr(importlib.import_module(f"lucasim.{path.stem}"), node.name)
                fields.update({f"{node.name}.{field}": (cls, field) for field in _record_fields(node)})
    classes = {cls for cls, _ in fields.values()}
    assert len(classes) >= MIN_RECORD_CLASSES
    assert len(fields) >= MIN_RECORD_FIELDS
    read = set()
    for name, (cls, field) in fields.items():
        monkeypatch.setattr(cls, field, _CountedField(name, vars(cls)[field], read))
    _exercise(tmp_path, monkeypatch)
    capsys.readouterr()
    unread = fields.keys() - read
    assert sorted(unread - WRITE_ONLY.keys()) == [], "write-only"
    assert sorted(WRITE_ONLY.keys() - unread) == [], "now read; drop from the allowlist"
