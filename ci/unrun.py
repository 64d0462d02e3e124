"""List the statements of the package that no Tier-1 test executes.

Runs the Tier-1 suite in this process under ``sys.settrace``, recording the
lines that run in the files of ``src/thermocontact``, then prints each
function-body statement that never ran, one ``file:line`` per line (the
file relative to the package, the line of the statement's first line), and
a last line counting them.  No coverage package is needed.

A statement counts as run when any line of its own ran: its lines up to the
start of its body for a compound statement (``if``, ``for``, ``with``,
``try``, ``def`` ...), all its lines otherwise.  Statements that compile to
no bytecode (docstrings, ``global``) are left out.  Code that runs in a
subprocess is not traced: the CLI tests that start a fresh interpreter and
``tests/test_dispatch_levels.py`` run nothing here, so a statement listed
may still run there.

Run from anywhere, with the package's test requirements installed::

    python ci/unrun.py                 # the whole Tier-1 suite
    python ci/unrun.py tests/test_models.py -k roots

Extra arguments go to pytest in place of the default ``-q -p
no:cacheprovider``.  The exit status is pytest's.  Tracing slows the suite
down about twofold: the whole of Tier-1 took 179 s on a 2-vCPU x86-64 VM,
so CI does not run this.
"""

from __future__ import annotations

import ast
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "thermocontact"


def _code_lines(code) -> set[int]:
    """The lines that the bytecode of ``code`` and its nested code maps to."""
    lines = {line for *_, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def _own_lines(stmt: ast.stmt) -> range:
    """The lines of ``stmt`` outside the statements nested in it."""
    first = min([stmt.lineno] + [d.lineno for d in getattr(stmt, "decorator_list", [])])
    inner = [s.lineno for field in ("body", "orelse", "finalbody", "handlers", "cases")
             for s in getattr(stmt, field, []) if isinstance(s, ast.AST)]
    return range(first, min(inner) if inner else stmt.end_lineno + 1)


def function_statements(path: Path) -> list[tuple[int, range]]:
    """(first line, own lines) of every statement inside a function body of
    the file at ``path`` that compiles to bytecode."""
    source = path.read_text()
    executable = _code_lines(compile(source, str(path), "exec"))
    out = set()  # a nested function's statements are walked from each enclosing one
    for func in ast.walk(ast.parse(source, str(path))):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for stmt in ast.walk(ast.Module(body=func.body, type_ignores=[])):
            if isinstance(stmt, ast.stmt) and not isinstance(stmt, ast.Module):
                own = _own_lines(stmt)
                if executable.intersection(own):
                    out.add((stmt.lineno, own))
    return sorted(out, key=lambda s: s[0])


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    os.chdir(ROOT)
    prefix = str(PACKAGE) + os.sep
    ran: dict[str, set[int]] = {}
    traced: dict[object, bool] = {}

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def call(frame, event, arg):
        code = frame.f_code
        if code not in traced:
            traced[code] = code.co_filename.startswith(prefix)
            ran.setdefault(code.co_filename, set())
        return local if traced[code] else None

    import pytest

    sys.settrace(call)
    try:
        status = pytest.main(argv or ["-q", "-p", "no:cacheprovider"])
    finally:
        sys.settrace(None)

    unrun = []
    for path in sorted(PACKAGE.glob("*.py")):
        lines = ran.get(str(path), set())
        for first, own in function_statements(path):
            if not lines.intersection(own):
                unrun.append(f"{path.name}:{first}")
    print("\n".join(unrun))
    print(f"{len(unrun)} function-body statements never ran")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
