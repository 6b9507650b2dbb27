"""Start-up: a ``lucasim`` process defines its records without code generation.

Every record class is a ``typing.NamedTuple`` or a plain class with
``__slots__`` and a hand-written ``__init__`` (README, "Start-up"), so
importing the package generates no methods and never loads ``dataclasses``.
A record is a plain class only for a reason listed in ``PLAIN_RECORDS``.
No timing is asserted here; perfbench's ``setup_s`` measures it.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import lucasim

SRC = Path(lucasim.__file__).parent

_IMPORT_ALL = """
import importlib, pkgutil, sys
import lucasim, lucasim.cli
for info in pkgutil.iter_modules(lucasim.__path__):
    importlib.import_module(f"lucasim.{info.name}")
print(sorted(name for name in sys.modules if name.split(".")[0] == "dataclasses"))
"""


# Plain ``__slots__`` class -> why it is not a ``NamedTuple``: its attributes
# are rebound after construction, or a run builds one per message or event.
PLAIN_RECORDS = {
    "actors.GuestApp": "the flows rebind user_id and open_checkin",
    "actors.BackendHooks": "ExpandWindow.install sets trace_padding",
    "adversary.AdversaryKnowledge": "the analyses rebind it",
    "crypto._Run": "built per crypto call outside a run",
    "model.GroundTruthEvent": "built per event",
    "model.CheckInRecord": "set_checkout rebinds checkout_time, and built per check-in",
    "netsim.NetworkIdentity": "reconnects and next_port rebind it",
    "netsim.NetworkObservation": "built per message",
}


def _imported_modules(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module


def test_no_module_imports_dataclasses():
    for path in sorted(SRC.glob("*.py")):
        modules = set(_imported_modules(ast.parse(path.read_text())))
        assert "dataclasses" not in {m.split(".")[0] for m in modules}, path.name


def test_a_fresh_interpreter_importing_every_module_loads_no_dataclasses():
    src = str(SRC.parent)
    pythonpath = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_ALL],
        env={**os.environ, "PYTHONPATH": pythonpath},
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    assert proc.stdout.strip() == "[]"


def test_every_plain_slotted_class_has_its_reason():
    slotted = {
        f"{path.stem}.{node.name}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ClassDef)
        and any(
            isinstance(stmt, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__slots__" for t in stmt.targets)
            for stmt in node.body
        )
    }
    assert sorted(slotted) == sorted(PLAIN_RECORDS)
