"""List the statements in function bodies of ``src/lucasim`` that the
in-process tests never run, and check them against an allowlist.

    PYTHONPATH=src python tests/statement_probe.py [extra pytest arguments]

The probe runs pytest over ``tests/`` in this process under ``sys.settrace``,
recording the lines executed in frames of ``src/lucasim`` code.  Hypothesis
is seeded, so its drawn inputs, and the lines they reach, are the same on
every run.  A statement counts as run when any line of its span ran.
Docstrings and ``global``/``nonlocal`` declarations compile to no code and
are not counted.  Tests that start lucasim in a fresh interpreter are not
traced, so the statements only they reach are on the allowlist with that
reason.  Line tracing slows the suite down about twofold, which is why pytest
does not collect this file.

Each line of ``statement_probe_allowlist.txt`` reads
``<module>:<function> | <reason> | <first line of the statement>``; a
statement that occurs twice in one function is listed twice.  The probe
exits 0 when the unrun statements are exactly the allowlist, and 1 when a
statement falls out of the tests or an allowlisted one starts to run.
"""

from __future__ import annotations

import ast
import os
import sys
from collections import Counter
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "lucasim"
ALLOWLIST = TESTS / "statement_probe_allowlist.txt"

_NO_CODE = (ast.Global, ast.Nonlocal)
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _without_docstring(body: list[ast.stmt]) -> list[ast.stmt]:
    first = body[0]
    docstring = isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
    return body[1:] if docstring and isinstance(first.value.value, str) else body


def _inner_bodies(stmt: ast.stmt) -> list[list[ast.stmt]]:
    """The statement lists nested in a compound statement other than a definition."""
    bodies = [getattr(stmt, field, []) for field in ("body", "orelse", "finalbody")]
    clauses = getattr(stmt, "handlers", []) + getattr(stmt, "cases", [])
    return bodies + [clause.body for clause in clauses]


def _statements(path: Path) -> list[tuple[str, int, int, str]]:
    """(function, first line, last line, first source line) of each statement
    in a function body of ``path``, nested functions included."""
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    found = []

    def collect(body: list[ast.stmt], prefix: str, in_function: bool) -> None:
        for stmt in body:
            if in_function and not isinstance(stmt, _NO_CODE):
                first = min([stmt.lineno] + [d.lineno for d in getattr(stmt, "decorator_list", [])])
                found.append((prefix, first, stmt.end_lineno, lines[stmt.lineno - 1].strip()))
            if isinstance(stmt, _DEFS):
                name = f"{prefix}.{stmt.name}" if prefix else stmt.name
                is_function = not isinstance(stmt, ast.ClassDef)
                collect(_without_docstring(stmt.body), name, in_function or is_function)
            else:
                for inner in _inner_bodies(stmt):
                    collect(inner, prefix, in_function)

    collect(ast.parse(source).body, "", False)
    return found


def _trace_tests(pytest_args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """Run pytest under a line tracer; return its exit code and the lines run per file."""
    ran: dict[str, set[int]] = {str(path): set() for path in SRC.glob("*.py")}
    by_filename: dict[str, set[int] | None] = {}

    def tracer(frame, event, arg):
        filename = frame.f_code.co_filename
        if filename not in by_filename:
            by_filename[filename] = ran.get(os.path.abspath(filename))
        lines = by_filename[filename]
        if lines is None:
            return None

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local

    sys.settrace(tracer)
    try:
        code = pytest.main(
            ["-q", "-p", "no:cacheprovider", "--hypothesis-seed=0", str(TESTS), *pytest_args]
        )
    finally:
        sys.settrace(None)
    return int(code), ran


def _allowlist() -> Counter:
    allowed: Counter = Counter()
    for line in ALLOWLIST.read_text(encoding="utf-8").splitlines():
        if line.strip() and not line.startswith("#"):
            where, _reason, statement = line.split(" | ", 2)
            allowed[where, statement] += 1
    return allowed


def main(argv: list[str]) -> int:
    code, ran = _trace_tests(argv)
    total = 0
    unrun: list[tuple[str, str, str]] = []  # (module:function, statement, file:line)
    for path in sorted(SRC.glob("*.py")):
        lines = ran[str(path)]
        for function, first, last, text in _statements(path):
            total += 1
            if not any(n in lines for n in range(first, last + 1)):
                unrun.append((f"{path.stem}:{function}", text, f"{path.name}:{first}"))
    print(f"\n{len(unrun)} of {total} statements in function bodies never ran")
    allowed = _allowlist()
    found = Counter((where, text) for where, text, _ in unrun)
    new = [u for u in unrun if found[u[:2]] > allowed[u[:2]]]
    stale = sorted((allowed - found).elements())
    for where, text, location in new:
        print(f"not on the allowlist: {location}  {where} | {text}")
    for where, text in stale:
        print(f"on the allowlist but run (or gone): {where} | {text}")
    if code != 0:
        print(f"pytest exited with {code}; the lines above may be incomplete")
        return code
    return 1 if new or stale else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
