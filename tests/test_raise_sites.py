"""A run fails one way: every exception that ``src/`` raises or defines.

A validated scenario either runs to completion or fails with
``SimulationError`` (exit 3); a bad input fails with ``ConfigError`` or
``CompareError`` (exit 2).  ``DecryptionFailure`` is a cryptographic verdict
that the run catches, and ``crypto`` keeps ``ValueError`` for a misused
primitive.
"""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import lucasim

_SRC = Path(lucasim.__file__).resolve().parent
_RUN_EXCEPTIONS = {"ConfigError", "CompareError", "SimulationError"}
_CRYPTO_EXCEPTIONS = {"DecryptionFailure", "ValueError"}
# The abstract attack's finalize, which every concrete attack overrides.
_ABSTRACT = ("Attack.finalize", "NotImplementedError")


def _raised_name(node: ast.Raise) -> str:
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    if isinstance(exc, ast.Attribute):
        return exc.attr
    return exc.id if isinstance(exc, ast.Name) else ast.dump(node)


def _raise_sites(node: ast.AST, scope: tuple[str, ...] = ()):
    """(enclosing class and function names, raised name, line) of every raise."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _raise_sites(child, scope + (child.name,))
            continue
        if isinstance(child, ast.Raise):
            yield ".".join(scope), _raised_name(child), child.lineno
        yield from _raise_sites(child, scope)


def _sites(path: Path):
    return list(_raise_sites(ast.parse(path.read_text(), filename=str(path))))


def test_src_raises_only_the_run_exceptions():
    bad = [
        f"{path.name}:{line} {scope} raises {name}"
        for path in sorted(_SRC.glob("*.py"))
        if path.name != "crypto.py"
        for scope, name, line in _sites(path)
        if name not in _RUN_EXCEPTIONS and (scope, name) != _ABSTRACT
    ]
    assert bad == []


def test_crypto_raises_only_its_verdict_and_value_error():
    sites = _sites(_SRC / "crypto.py")
    assert sites
    assert [s for s in sites if s[1] not in _CRYPTO_EXCEPTIONS] == []


def test_src_defines_four_exception_classes():
    defined = set()
    for info in pkgutil.iter_modules([str(_SRC)]):
        module = importlib.import_module(f"lucasim.{info.name}")
        defined.update(
            f"{info.name}.{name}"
            for name, cls in inspect.getmembers(module, inspect.isclass)
            if issubclass(cls, BaseException) and cls.__module__ == module.__name__
        )
    assert defined == {
        "crypto.DecryptionFailure",
        "model.SimulationError",
        "report.CompareError",
        "scenario.ConfigError",
    }
