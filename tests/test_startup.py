"""Start-up: a ``lucasim`` process defines its records without code generation.

Every record class is a ``typing.NamedTuple`` or a plain class with
``__slots__`` and a hand-written ``__init__`` (README, "Start-up"), so
importing the package generates no methods and never loads ``dataclasses``.
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
